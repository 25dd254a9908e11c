#pragma once

// Indentation-aware source writer shared by all AOT backends.

#include <string>

namespace msc::codegen {

class Emitter {
 public:
  /// Appends one line at the current indent level.
  Emitter& line(const std::string& text = "");

  /// Appends `text {` and indents.
  Emitter& open(const std::string& text);

  /// Dedents and appends `}` (optionally with a trailer, e.g. `} else {`).
  Emitter& close(const std::string& trailer = "}");

  const std::string& str() const { return out_; }

 private:
  std::string out_;
  int indent_ = 0;
};

}  // namespace msc::codegen
