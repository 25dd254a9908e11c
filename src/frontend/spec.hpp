#pragma once

// Textual stencil specification — a standalone frontend over the embedded
// DSL, consumed by the `mscc` command-line driver (tools/mscc.cpp).  A
// spec is a line-based description of one stencil program:
//
//   # 3-D 7-point stencil with two time dependencies
//   name   my3d7pt
//   grid   256 256 256          # 1-3 extents (slowest first)
//   halo   1
//   dtype  f64                  # f32 | f64
//   point  0 0 0   0.4          # neighbor offset + coefficient
//   point  0 0 -1  0.1
//   ...
//   term   -1 0.6               # temporal combination: offset + weight
//   term   -2 0.4
//   tile   2 8 32               # optional: schedule tile per dimension
//   parallel 64                 # optional: thread count (default by target)
//   mpi    4 4 4                # optional: process grid
//
// parse_spec builds the Program (kernel + stencil + schedule) through the
// same public DSL a C++ user drives, so the whole pipeline — verification,
// scheduling, execution, codegen — is reachable from a text file.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsl/program.hpp"

namespace msc::frontend {

/// Parsed-but-unbuilt form, exposed for tests and tooling.
struct StencilSpec {
  std::string name;
  std::vector<std::int64_t> grid;
  std::int64_t halo = 1;
  ir::DataType dtype = ir::DataType::f64;
  struct Point {
    std::array<std::int64_t, 3> offset{0, 0, 0};
    double coeff = 0.0;
  };
  std::vector<Point> points;
  struct Term {
    int offset = -1;
    double weight = 1.0;
  };
  std::vector<Term> terms;
  std::array<std::int64_t, 3> tile{0, 0, 0};  ///< 0 = unscheduled
  int parallel_threads = 0;                   ///< 0 = none requested
  std::vector<int> mpi;
};

/// Parses the text; throws msc::Error with the offending line number on
/// malformed input, and CodedError(ErrorCode::InvalidConfig) naming the line,
/// directive and value when a `tile`, `parallel` or `mpi` value is below 1 or
/// beyond `int` range.  A tile factor above its grid extent is clamped to it.
StencilSpec parse_spec(const std::string& text);

/// Builds the full DSL program (kernel, stencil, schedule, MPI grid).
std::unique_ptr<dsl::Program> build_program(const StencilSpec& spec);

/// Convenience: parse + build.
std::unique_ptr<dsl::Program> program_from_spec(const std::string& text);

}  // namespace msc::frontend
