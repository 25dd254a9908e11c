#include "codegen/emitter.hpp"

#include "support/error.hpp"

namespace msc::codegen {

Emitter& Emitter::line(const std::string& text) {
  if (!text.empty()) out_ += std::string(static_cast<std::size_t>(indent_) * 2, ' ') + text;
  out_ += "\n";
  return *this;
}

Emitter& Emitter::open(const std::string& text) {
  line(text + " {");
  ++indent_;
  return *this;
}

Emitter& Emitter::close(const std::string& trailer) {
  MSC_ASSERT(indent_ > 0) << "unbalanced close()";
  --indent_;
  line(trailer);
  return *this;
}

}  // namespace msc::codegen
