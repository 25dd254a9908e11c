// Textual-frontend tests: spec parsing, program construction, error
// reporting with line numbers, and end-to-end execution of a spec-built
// program against the serial reference.

#include <gtest/gtest.h>

#include <string>

#include "frontend/spec.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"

namespace msc::frontend {
namespace {

const char* k3d7ptSpec = R"(# 3-D 7-point, two time dependencies
name  spec3d7pt
grid  20 20 20
halo  1
dtype f64
point  0 0 0   0.4
point  0 0 -1  0.1
point  0 0 1   0.1
point  0 -1 0  0.1
point  0 1 0   0.1
point -1 0 0   0.1
point  1 0 0   0.1
term  -1 0.6
term  -2 0.4
tile  4 4 8
parallel 4
mpi   2 2 2
)";

TEST(SpecParse, FullSpecRoundTrip) {
  const auto spec = parse_spec(k3d7ptSpec);
  EXPECT_EQ(spec.name, "spec3d7pt");
  ASSERT_EQ(spec.grid.size(), 3u);
  EXPECT_EQ(spec.grid[0], 20);
  EXPECT_EQ(spec.halo, 1);
  EXPECT_EQ(spec.dtype, ir::DataType::f64);
  EXPECT_EQ(spec.points.size(), 7u);
  EXPECT_DOUBLE_EQ(spec.points[0].coeff, 0.4);
  EXPECT_EQ(spec.points[1].offset[2], -1);
  ASSERT_EQ(spec.terms.size(), 2u);
  EXPECT_EQ(spec.terms[1].offset, -2);
  EXPECT_EQ(spec.tile[2], 8);
  EXPECT_EQ(spec.parallel_threads, 4);
  EXPECT_EQ(spec.mpi, (std::vector<int>{2, 2, 2}));
}

TEST(SpecParse, DefaultsAndComments) {
  const auto spec = parse_spec("name x\ngrid 8 8  # 2-D\npoint 0 0 1.0\n");
  EXPECT_EQ(spec.terms.size(), 1u);  // implicit term -1 1.0
  EXPECT_EQ(spec.terms[0].offset, -1);
  EXPECT_EQ(spec.dtype, ir::DataType::f64);
  EXPECT_EQ(spec.tile[0], 0);
}

TEST(SpecParse, ErrorsCarryLineNumbers) {
  try {
    parse_spec("name x\ngrid 8 8\nbogus 1 2\n");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(SpecParse, RejectsMalformedDirectives) {
  EXPECT_THROW(parse_spec("grid 8 8\npoint 0 0 1.0\n"), Error);          // no name
  EXPECT_THROW(parse_spec("name x\npoint 0 0 1.0\n"), Error);            // no grid
  EXPECT_THROW(parse_spec("name x\ngrid 8 8\n"), Error);                 // no points
  EXPECT_THROW(parse_spec("name x\ngrid 8 8\npoint 0 1.0\n"), Error);    // arity
  EXPECT_THROW(parse_spec("name x\ngrid 8 8\ndtype f16\npoint 0 0 1\n"), Error);
  EXPECT_THROW(parse_spec("name x\ngrid 8 8\npoint 0 zz 1.0\n"), Error); // bad int
}

TEST(SpecBuild, ProgramRunsAndValidates) {
  auto prog = program_from_spec(k3d7ptSpec);
  EXPECT_EQ(prog->stencil().time_window(), 3);
  EXPECT_EQ(prog->stencil().max_radius(), 1);
  EXPECT_EQ(prog->mpi_shape().processes(), 8);
  EXPECT_EQ(prog->primary_schedule().parallel_threads(), 4);
  prog->input(dsl::GridRef(prog->stencil().state()), 11);
  EXPECT_LT(prog->relative_error_vs_reference(1, 4), 1e-10);
}

TEST(SpecBuild, GeneratesAllTargets) {
  auto prog = program_from_spec(k3d7ptSpec);
  for (const auto* target : {"c", "openmp", "sunway", "openacc"})
    EXPECT_FALSE(prog->compile_to_source_code(target).empty()) << target;
}

TEST(SpecBuild, ParallelWithoutTileRejected) {
  EXPECT_THROW(program_from_spec("name x\ngrid 8 8\npoint 0 0 1.0\nparallel 4\n"), Error);
}

// ---- out-of-range counts --------------------------------------------------

/// `directive_line` lands on spec line 4; the rejection must be an
/// InvalidConfig CodedError naming that line, the directive and the value.
void expect_invalid_config(const std::string& directive_line, const std::string& directive,
                           const std::string& value) {
  const std::string text =
      "name x\ngrid 8 8\npoint 0 0 1.0\n" + directive_line + "\ntile 4 4\n";
  try {
    parse_spec(text);
    ADD_FAILURE() << "accepted '" << directive_line << "'";
  } catch (const CodedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidConfig);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find(directive), std::string::npos) << msg;
    EXPECT_NE(msg.find(value), std::string::npos) << msg;
  }
}

TEST(SpecValidation, NegativeParallelRejected) {
  expect_invalid_config("parallel -5", "parallel", "-5");
}

TEST(SpecValidation, ZeroParallelRejected) {
  expect_invalid_config("parallel 0", "parallel", "0");
}

TEST(SpecValidation, ParallelBeyondIntRejected) {
  expect_invalid_config("parallel 99999999999", "parallel", "99999999999");
}

TEST(SpecValidation, ZeroTileFactorRejected) {
  expect_invalid_config("tile 0 8", "tile", "0");
}

TEST(SpecValidation, TileFactorBeyondIntRejected) {
  expect_invalid_config("tile 8 999999999999", "tile", "999999999999");
}

TEST(SpecValidation, ZeroMpiExtentRejected) {
  expect_invalid_config("mpi 0 2", "mpi", "0");
}

TEST(SpecValidation, MpiExtentBeyondIntRejected) {
  expect_invalid_config("mpi 99999999999", "mpi", "99999999999");
}

TEST(SpecValidation, WideParallelStaysValid) {
  // examples/specs/3d7pt.msc asks for 64 threads.
  const auto spec = parse_spec("name x\ngrid 8 8\npoint 0 0 1.0\ntile 4 4\nparallel 64\n");
  EXPECT_EQ(spec.parallel_threads, 64);
}

TEST(SpecBuild, TwoDimensionalSpecWorks) {
  auto prog = program_from_spec(
      "name heat2d\ngrid 16 16\nhalo 1\npoint 0 0 0.6\npoint 0 -1 0.1\npoint 0 1 0.1\n"
      "point -1 0 0.1\npoint 1 0 0.1\ntile 8 8\n");
  prog->input(dsl::GridRef(prog->stencil().state()), 3);
  EXPECT_LT(prog->relative_error_vs_reference(1, 3), 1e-12);
}

}  // namespace
}  // namespace msc::frontend
