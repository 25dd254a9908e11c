// Unit tests of the execution engine: grid storage, linearization, the
// generic evaluator, and reference-vs-scheduled executor agreement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dsl/program.hpp"
#include "exec/eval.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "exec/linearize.hpp"
#include "frontend/spec.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/shell.hpp"
#include "support/thread_pool.hpp"

namespace msc::exec {
namespace {

TEST(GridStorage, GeometryAndSlots) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 6}, 2, 3);
  GridStorage<double> g(t);
  EXPECT_EQ(g.ndim(), 2);
  EXPECT_EQ(g.slots(), 3);
  EXPECT_EQ(g.halo(), 2);
  EXPECT_EQ(g.padded_points(), 8 * 10);
  EXPECT_EQ(g.stride(0), 10);
  EXPECT_EQ(g.stride(1), 1);
}

TEST(GridStorage, ElementTypeMustMatchDtype) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1);
  EXPECT_THROW(GridStorage<float>{t}, Error);
}

TEST(GridStorage, SlotForTimeWrapsNegatives) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1, 3);
  GridStorage<double> g(t);
  EXPECT_EQ(g.slot_for_time(0), 0);
  EXPECT_EQ(g.slot_for_time(-1), 2);
  EXPECT_EQ(g.slot_for_time(-2), 1);
  EXPECT_EQ(g.slot_for_time(3), 0);
}

TEST(GridStorage, HaloAndInteriorAddressingDisjoint) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1);
  GridStorage<double> g(t);
  g.at(0, {0, 0, 0}) = 5.0;
  g.at(0, {-1, -1, 0}) = 7.0;  // halo corner
  EXPECT_DOUBLE_EQ(g.at(0, {0, 0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(g.at(0, {-1, -1, 0}), 7.0);
}

TEST(GridStorage, ZeroHaloClearsOnlyHalo) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {3, 3}, 1);
  GridStorage<double> g(t);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) { g.at(0, c) = 1.0; });
  g.at(0, {-1, 0, 0}) = 9.0;
  g.fill_halo(0, Boundary::ZeroHalo);
  EXPECT_DOUBLE_EQ(g.at(0, {-1, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(g.at(0, {1, 1, 0}), 1.0);
}

TEST(GridStorage, PeriodicHaloWraps) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1);
  GridStorage<double> g(t);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    g.at(0, c) = static_cast<double>(10 * c[0] + c[1]);
  });
  g.fill_halo(0, Boundary::Periodic);
  EXPECT_DOUBLE_EQ(g.at(0, {-1, 0, 0}), 30.0);  // wraps to row 3
  EXPECT_DOUBLE_EQ(g.at(0, {0, -1, 0}), 3.0);   // wraps to col 3
  EXPECT_DOUBLE_EQ(g.at(0, {4, 4, 0}), 0.0);    // wraps to (0,0)
  EXPECT_DOUBLE_EQ(g.at(0, {-1, -1, 0}), 33.0); // corner wrap
}

TEST(GridStorage, PeriodicHaloWraps3dEdgesAndCorners) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {3, 4, 5}, 2);
  GridStorage<double> g(t);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    g.at(0, c) = static_cast<double>(100 * c[0] + 10 * c[1] + c[2]);
  });
  g.fill_halo(0, Boundary::Periodic);
  EXPECT_DOUBLE_EQ(g.at(0, {1, 2, -2}), 123.0);    // face: wraps to col 3
  EXPECT_DOUBLE_EQ(g.at(0, {4, -2, 2}), 122.0);    // edge: (1, 2, 2)
  EXPECT_DOUBLE_EQ(g.at(0, {-1, -1, -1}), 234.0);  // low corner: (2, 3, 4)
  EXPECT_DOUBLE_EQ(g.at(0, {-2, 5, 6}), 111.0);    // mixed low/high corner: (1, 1, 1)
  EXPECT_DOUBLE_EQ(g.at(0, {4, 5, 6}), 111.0);     // high corner: (1, 1, 1)
  EXPECT_DOUBLE_EQ(g.at(0, {3, 4, 5}), 0.0);       // high corner: origin
}

/// The retired per-point periodic fill, kept only as the oracle: every
/// padded cell that is halo in some dimension takes the interior cell found
/// by wrapping each of its halo coordinates by the extent.  Returns the
/// whole padded slot as the fill should leave it.
template <typename T>
std::vector<T> periodic_oracle(const GridStorage<T>& g, int slot) {
  const T* data = g.slot_data(slot);
  std::vector<T> out(data, data + g.padded_points());
  const std::int64_t h = g.halo();
  std::array<std::int64_t, 3> pe{1, 1, 1};
  for (int d = 0; d < g.ndim(); ++d) pe[static_cast<std::size_t>(d)] = g.extent(d) + 2 * h;
  std::array<std::int64_t, 3> p{0, 0, 0};
  for (p[0] = 0; p[0] < pe[0]; ++p[0])
    for (p[1] = 0; p[1] < pe[1]; ++p[1])
      for (p[2] = 0; p[2] < pe[2]; ++p[2]) {
        bool is_halo = false;
        std::int64_t dst = 0, src = 0;
        for (int d = 0; d < g.ndim(); ++d) {
          const std::int64_t e = g.extent(d);
          std::int64_t s = p[static_cast<std::size_t>(d)];
          if (s < h) {
            s += e;
            is_halo = true;
          } else if (s >= e + h) {
            s -= e;
            is_halo = true;
          }
          dst += p[static_cast<std::size_t>(d)] * g.stride(d);
          src += s * g.stride(d);
        }
        if (is_halo) out[static_cast<std::size_t>(dst)] = data[src];
      }
  return out;
}

/// Random 1-3-D grids (odd extents, halo == 0, halo == narrowest extent),
/// every slot poisoned halos and all: the fill must leave the target slot
/// exactly as the oracle does and every other slot untouched.
template <typename T>
void expect_periodic_fill_matches_oracle(ir::DataType dt, std::uint64_t seed) {
  Rng rng(seed);
  for (int iter = 0; iter < 300; ++iter) {
    const int ndim = static_cast<int>(rng.next_int(1, 3));
    std::vector<std::int64_t> shape;
    for (int d = 0; d < ndim; ++d) shape.push_back(rng.next_int(1, 9));
    const std::int64_t narrowest = *std::min_element(shape.begin(), shape.end());
    const std::int64_t halo = iter % 4 == 0   ? narrowest
                              : iter % 4 == 1 ? 0
                                              : rng.next_int(0, narrowest);
    const int slots = static_cast<int>(rng.next_int(1, 3));
    GridStorage<T> g(ir::make_sp_tensor("B", dt, shape, halo, slots));
    std::vector<std::vector<T>> before;
    for (int s = 0; s < slots; ++s) {
      T* data = g.slot_data(s);
      for (std::int64_t i = 0; i < g.padded_points(); ++i)
        data[i] = static_cast<T>(rng.next_real(-1e3, 1e3));
      before.emplace_back(data, data + g.padded_points());
    }
    const int target = static_cast<int>(rng.next_int(0, slots - 1));
    const auto want = periodic_oracle(g, target);
    g.fill_halo(target, Boundary::Periodic);
    for (int s = 0; s < slots; ++s)
      ASSERT_EQ(std::memcmp(g.slot_data(s),
                            (s == target ? want : before[static_cast<std::size_t>(s)]).data(),
                            want.size() * sizeof(T)),
                0)
          << "iter " << iter << " ndim " << ndim << " extent0 " << shape[0] << " halo " << halo
          << " slot " << s << " of " << slots << " (target " << target << ")";
  }
}

TEST(GridStorage, PeriodicFillMatchesPerPointOracleF64) {
  expect_periodic_fill_matches_oracle<double>(ir::DataType::f64, 101);
}

TEST(GridStorage, PeriodicFillMatchesPerPointOracleF32) {
  expect_periodic_fill_matches_oracle<float>(ir::DataType::f32, 202);
}

TEST(GridStorage, ExternalBoundaryLeavesHaloUntouched) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {3, 3}, 1);
  GridStorage<double> g(t);
  g.at(0, {-1, 0, 0}) = 4.0;
  g.fill_halo(0, Boundary::External);
  EXPECT_DOUBLE_EQ(g.at(0, {-1, 0, 0}), 4.0);
}

TEST(GridStorage, FillRandomDeterministic) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1);
  GridStorage<double> a(t), b(t);
  a.fill_random(0, 42);
  b.fill_random(0, 42);
  EXPECT_DOUBLE_EQ(a.at(0, {3, 3, 0}), b.at(0, {3, 3, 0}));
  b.fill_random(0, 43);
  EXPECT_NE(a.at(0, {3, 3, 0}), b.at(0, {3, 3, 0}));
}

TEST(MaxRelativeError, DetectsDifference) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 0);
  GridStorage<double> a(t), b(t);
  a.for_each_interior([&](std::array<std::int64_t, 3> c) { a.at(0, c) = 2.0; });
  b.for_each_interior([&](std::array<std::int64_t, 3> c) { b.at(0, c) = 2.0; });
  EXPECT_DOUBLE_EQ(max_relative_error(a, 0, b, 0), 0.0);
  a.at(0, {1, 1, 0}) = 2.2;
  EXPECT_NEAR(max_relative_error(a, 0, b, 0), 0.1, 1e-12);
}

// ---- linearization --------------------------------------------------------

TEST(Linearize, AffineSumOfProducts) {
  auto B = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 3);
  auto acc = [&](std::int64_t dj, std::int64_t di) {
    return ir::make_access(B, {{"j", dj}, {"i", di}});
  };
  // 0.5*B[j,i-1] - 2*B[j+1,i] + B[j,i]
  auto rhs = ir::make_binary(
      ir::BinaryOp::Add,
      ir::make_binary(ir::BinaryOp::Sub,
                      ir::make_binary(ir::BinaryOp::Mul, ir::make_float(0.5), acc(0, -1)),
                      ir::make_binary(ir::BinaryOp::Mul, ir::make_float(2.0), acc(1, 0))),
      acc(0, 0));
  auto k = ir::make_kernel("k", ir::make_te_tensor("o", B), ir::default_axes(B), rhs);
  const auto lin = linearize(*k, {});
  ASSERT_TRUE(lin.has_value());
  ASSERT_EQ(lin->terms.size(), 3u);
  EXPECT_DOUBLE_EQ(lin->terms[0].coeff, 0.5);
  EXPECT_EQ(lin->terms[0].offset[1], -1);
  EXPECT_DOUBLE_EQ(lin->terms[1].coeff, -2.0);
  EXPECT_EQ(lin->terms[1].offset[0], 1);
  EXPECT_DOUBLE_EQ(lin->terms[2].coeff, 1.0);
}

TEST(Linearize, HandlesNegationAndVarBindings) {
  auto B = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 3);
  auto acc = ir::make_access(B, {{"j", 0}, {"i", 0}});
  auto rhs = ir::make_unary(ir::UnaryOp::Neg,
                            ir::make_binary(ir::BinaryOp::Mul,
                                            ir::make_var("c", ir::DataType::f64), acc));
  auto k = ir::make_kernel("k", ir::make_te_tensor("o", B), ir::default_axes(B), rhs);
  EXPECT_FALSE(linearize(*k, {}).has_value());  // unbound var
  const auto lin = linearize(*k, {{"c", 3.0}});
  ASSERT_TRUE(lin.has_value());
  EXPECT_DOUBLE_EQ(lin->terms[0].coeff, -3.0);
}

TEST(Linearize, RejectsDivision) {
  auto B = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 3);
  auto acc = ir::make_access(B, {{"j", 0}, {"i", 0}});
  auto rhs = ir::make_binary(ir::BinaryOp::Div, acc, ir::make_float(2.0));
  auto k = ir::make_kernel("k", ir::make_te_tensor("o", B), ir::default_axes(B), rhs);
  EXPECT_FALSE(linearize(*k, {}).has_value());
}

// ---- generic evaluator -----------------------------------------------------

TEST(Eval, ArithmeticAndCalls) {
  EvalEnv env;
  env.axis_values["i"] = 4;
  auto e = ir::make_binary(ir::BinaryOp::Max, ir::make_float(2.0),
                           ir::make_call("sqrt", {ir::make_var("i", ir::DataType::f64)},
                                         ir::DataType::f64));
  EXPECT_DOUBLE_EQ(eval_expr(e, env), 2.0);
  env.axis_values["i"] = 16;
  auto e2 = ir::make_call("sqrt", {ir::make_var("i", ir::DataType::f64)}, ir::DataType::f64);
  EXPECT_DOUBLE_EQ(eval_expr(e2, env), 4.0);
}

TEST(Eval, DivisionByZeroThrows) {
  EvalEnv env;
  auto e = ir::make_binary(ir::BinaryOp::Div, ir::make_float(1.0), ir::make_float(0.0));
  EXPECT_THROW(eval_expr(e, env), Error);
}

TEST(Eval, UnboundVariableThrows) {
  EvalEnv env;
  EXPECT_THROW(eval_expr(ir::make_var("ghost", ir::DataType::f64), env), Error);
}

// ---- executors --------------------------------------------------------

/// Builds a 2-time-dep 2-D star stencil program for executor tests.
struct ExecProgram {
  std::unique_ptr<dsl::Program> prog;
  ExecProgram(std::int64_t n, bool with_schedule) {
    prog = std::make_unique<dsl::Program>("exec_test");
    dsl::Var j = prog->var("j"), i = prog->var("i");
    dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f64, n, n);
    auto& k = prog->kernel("k", {j, i},
                           dsl::ExprH(0.3) * B(j, i) + dsl::ExprH(0.15) * B(j, i - 1) +
                               dsl::ExprH(0.15) * B(j, i + 1) + dsl::ExprH(0.2) * B(j - 1, i) +
                               dsl::ExprH(0.2) * B(j + 1, i));
    if (with_schedule) {
      k.tile({8, 8})
          .reorder({"j_outer", "i_outer", "j_inner", "i_inner"})
          .cache_read("B", "rbuf")
          .cache_write("wbuf")
          .compute_at("rbuf", "i_outer")
          .compute_at("wbuf", "i_outer")
          .parallel("j_outer", 4);
    }
    prog->def_stencil("st", B, 0.7 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2]);
  }
};

TEST(Executor, ScheduledMatchesReferenceBitExact) {
  ExecProgram ep(30, /*with_schedule=*/true);  // 30 % 8 != 0: remainder tiles
  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {30, 30}, 1, 3);
  GridStorage<double> a(grid), b(grid);
  for (int s = 0; s < 3; ++s) {
    a.fill_random(s, 11 + static_cast<std::uint64_t>(s));
    b.fill_random(s, 11 + static_cast<std::uint64_t>(s));
  }
  ExecStats stats;
  run_scheduled(ep.prog->stencil(), ep.prog->primary_schedule(), a, 1, 6,
                Boundary::ZeroHalo, {}, &stats);
  run_reference(ep.prog->stencil(), b, 1, 6, Boundary::ZeroHalo);
  // Identical term order -> identical floating-point result.
  EXPECT_EQ(max_relative_error(a, a.slot_for_time(6), b, b.slot_for_time(6)), 0.0);
  EXPECT_EQ(stats.timesteps, 6);
  EXPECT_EQ(stats.points_updated, 6 * 30 * 30);
}

TEST(Executor, PeriodicBoundaryMatches) {
  ExecProgram ep(16, true);
  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {16, 16}, 1, 3);
  GridStorage<double> a(grid), b(grid);
  for (int s = 0; s < 3; ++s) {
    a.fill_random(s, 5 + static_cast<std::uint64_t>(s));
    b.fill_random(s, 5 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(ep.prog->stencil(), ep.prog->primary_schedule(), a, 1, 4, Boundary::Periodic);
  run_reference(ep.prog->stencil(), b, 1, 4, Boundary::Periodic);
  EXPECT_EQ(max_relative_error(a, a.slot_for_time(4), b, b.slot_for_time(4)), 0.0);
}

TEST(Executor, PeriodicRunWiderThanGridThrowsBeforeWriting) {
  // A 3-wide wrap of a 2x2 grid would read halo cells: the run must throw
  // before it writes anything, halos included.
  auto prog = frontend::program_from_spec(
      "name tiny\ngrid 2 2\nhalo 3\npoint 0 0 0.5\npoint 0 -1 0.25\npoint 1 0 0.25\n");
  prog->input(dsl::GridRef(prog->stencil().state()), 4);
  const std::int64_t window = prog->stencil().time_window();
  const auto snapshot = [&] {
    std::vector<double> cells;
    for (std::int64_t t = 0; t > -window; --t)
      for (std::int64_t j = -3; j < 5; ++j)
        for (std::int64_t i = -3; i < 5; ++i) cells.push_back(prog->value_at(t, {j, i, 0}));
    return cells;
  };
  const auto before = snapshot();
  try {
    prog->run(1, 3, Boundary::Periodic);
    FAIL() << "a wrap wider than the grid must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("periodic halo 3 exceeds extent 2 of dim 0"),
              std::string::npos)
        << e.what();
  }
  const auto after = snapshot();
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(std::memcmp(after.data(), before.data(), before.size() * sizeof(double)), 0);
}

TEST(Executor, LoopPlanValidatesCoverage) {
  ExecProgram ep(16, true);
  const auto plan = build_loop_plan(ep.prog->primary_schedule());
  EXPECT_EQ(plan.ndim, 2);
  EXPECT_EQ(plan.levels.size(), 4u);
  EXPECT_EQ(plan.parallel_depth, 0);
}

TEST(Executor, StencilLinearizationCombinesWeights) {
  ExecProgram ep(16, false);
  const auto lin = linearize_stencil(ep.prog->stencil(), {});
  ASSERT_TRUE(lin.has_value());
  // 5 spatial terms x 2 time terms.
  EXPECT_EQ(lin->terms.size(), 10u);
  // First time term scaled by 0.7.
  EXPECT_NEAR(lin->terms[0].coeff, 0.3 * 0.7, 1e-15);
  EXPECT_EQ(lin->terms[0].time_offset, -1);
  EXPECT_NEAR(lin->terms[5].coeff, 0.3 * 0.3, 1e-15);
  EXPECT_EQ(lin->terms[5].time_offset, -2);
}

TEST(Executor, GenericFallbackForNonAffineStencil) {
  // A stencil with min() falls off the affine path; run_reference must
  // still execute it (and run_scheduled must refuse).
  dsl::Program prog("nonaffine");
  dsl::Var j = prog.var("j"), i = prog.var("i");
  dsl::GridRef B = prog.def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 8, 8);
  auto& k = prog.kernel("clamp", {j, i}, dsl::min(B(j, i), dsl::ExprH(0.5)));
  prog.def_stencil("st", B, k[prog.t() - 1]);
  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 2);
  GridStorage<double> g(grid);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    g.at(g.slot_for_time(0), c) = static_cast<double>(c[1]);
  });
  run_reference(prog.stencil(), g, 1, 1, Boundary::ZeroHalo);
  EXPECT_DOUBLE_EQ(g.at(g.slot_for_time(1), {0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(g.at(g.slot_for_time(1), {0, 3, 0}), 0.5);
  EXPECT_THROW(run_scheduled(prog.stencil(), prog.primary_schedule(), g, 1, 1,
                             Boundary::ZeroHalo),
               Error);
}

TEST(Executor, ThreeDStencilSchedulesCorrectly) {
  dsl::Program prog("exec3d");
  dsl::Var k = prog.var("k"), j = prog.var("j"), i = prog.var("i");
  dsl::GridRef B = prog.def_tensor_3d_timewin("B", 2, 1, ir::DataType::f64, 12, 10, 14);
  auto& kn = prog.kernel("lap", {k, j, i},
                         dsl::ExprH(0.4) * B(k, j, i) + dsl::ExprH(0.1) * B(k, j, i - 1) +
                             dsl::ExprH(0.1) * B(k, j, i + 1) + dsl::ExprH(0.1) * B(k, j - 1, i) +
                             dsl::ExprH(0.1) * B(k, j + 1, i) + dsl::ExprH(0.1) * B(k - 1, j, i) +
                             dsl::ExprH(0.1) * B(k + 1, j, i));
  kn.tile({4, 5, 7})
      .reorder({"k_outer", "j_outer", "i_outer", "k_inner", "j_inner", "i_inner"})
      .parallel("k_outer", 3);
  prog.def_stencil("st", B, 0.5 * kn[prog.t() - 1] + 0.5 * kn[prog.t() - 2]);

  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {12, 10, 14}, 1, 3);
  GridStorage<double> a(grid), b(grid);
  for (int s = 0; s < 3; ++s) {
    a.fill_random(s, 77 + static_cast<std::uint64_t>(s));
    b.fill_random(s, 77 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(prog.stencil(), prog.primary_schedule(), a, 1, 3, Boundary::ZeroHalo);
  run_reference(prog.stencil(), b, 1, 3, Boundary::ZeroHalo);
  EXPECT_EQ(max_relative_error(a, a.slot_for_time(3), b, b.slot_for_time(3)), 0.0);
}

TEST(Executor, RejectsEmptyTimeRange) {
  ExecProgram ep(8, false);
  auto grid = ir::make_sp_tensor("B", ir::DataType::f64, {8, 8}, 1, 3);
  GridStorage<double> g(grid);
  EXPECT_THROW(run_reference(ep.prog->stencil(), g, 5, 4, Boundary::ZeroHalo), Error);
}

// ---- the one scheduled entry point: route matrix ---------------------------

// 2-D, radius 1, three-slot window, odd extents under 8x8 tiles with staged
// buffers (which the host engines must ignore) and a parallel level.
std::unique_ptr<dsl::Program> route_program(ir::DataType dt, std::int64_t time_depth) {
  auto prog = std::make_unique<dsl::Program>("route");
  dsl::Var j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, dt, 19, 23);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.3) * B(j, i) + dsl::ExprH(0.15) * B(j, i - 1) +
                             dsl::ExprH(0.15) * B(j, i + 1) + dsl::ExprH(0.2) * B(j - 1, i) +
                             dsl::ExprH(0.2) * B(j + 1, i));
  k.tile({8, 8})
      .reorder({"j_outer", "i_outer", "j_inner", "i_inner"})
      .cache_read("B", "rbuf")
      .cache_write("wbuf")
      .compute_at("rbuf", "i_outer")
      .compute_at("wbuf", "i_outer")
      .parallel("j_outer", 4);
  if (time_depth > 1) k.time_tile(time_depth);
  prog->def_stencil("st", B, 0.7 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2]);
  return prog;
}

std::int64_t counter_value(const char* name) {
  return prof::global_counters().value(name);
}

using RouteCell = std::tuple<HostBackend, std::int64_t, Boundary, ir::DataType>;

class RouteMatrix : public ::testing::TestWithParam<RouteCell> {
 protected:
  template <typename T>
  void run_cell() {
    const auto [backend, depth, bc, dt] = GetParam();
    if (backend == HostBackend::Aot && !host_cc_available())
      GTEST_SKIP() << "no host C compiler ('cc') on PATH";
    auto prog = route_program(dt, depth);
    const auto& st = prog->stencil();
    const auto& sched = prog->primary_schedule();
    constexpr std::int64_t kSteps = 5;  // depth 3: one full block + remainder

    GridStorage<T> ref(st.state()), got(st.state());
    for (int s = 0; s < ref.slots(); ++s) {
      ref.fill_random(s, 31 + static_cast<std::uint64_t>(s));
      got.fill_random(s, 31 + static_cast<std::uint64_t>(s));
    }
    // run_reference ticks the exec.* counters once per run, as run_scheduled
    // does, with the same values it reports in its stats.
    const auto ref_points0 = counter_value("exec.points_updated");
    const auto ref_flops0 = counter_value("exec.flops");
    const auto ref_steps0 = counter_value("exec.timesteps");
    ExecStats ref_stats;
    run_reference(st, ref, 1, kSteps, bc, {}, &ref_stats);
    EXPECT_EQ(counter_value("exec.points_updated") - ref_points0, ref_stats.points_updated);
    EXPECT_EQ(counter_value("exec.flops") - ref_flops0, ref_stats.flops);
    EXPECT_EQ(counter_value("exec.timesteps") - ref_steps0, ref_stats.timesteps);

    // The selection rule: AOT when asked for and the boundary is ZeroHalo;
    // else the wedges when time_tile() > 1 and the boundary is ZeroHalo;
    // else the per-step sweep.  Every refused request names the boundary.
    const bool zero = bc == Boundary::ZeroHalo;
    const bool want_aot = backend == HostBackend::Aot;
    const Route want = want_aot && zero ? Route::Aot
                       : depth > 1 && zero ? Route::Temporal
                                            : Route::Sweep;
    const bool want_fallback = !zero && (want_aot || depth > 1);

    const auto points0 = counter_value("exec.points_updated");
    const auto flops0 = counter_value("exec.flops");
    const auto steps0 = counter_value("exec.timesteps");
    const auto aot_fb0 = counter_value("aot.fallback.boundary");
    const auto tt_fb0 = counter_value("sweep.temporal.fallback");
    ExecOptions opts;
    opts.backend = backend;
    ExecInfo info;
    ExecStats stats;
    run_scheduled(st, sched, got, 1, kSteps, bc, {}, &stats, opts, &info);

    EXPECT_EQ(info.route, want) << route_name(info.route) << ": " << info.fallback_reason;
    EXPECT_EQ(info.aot.aot, want == Route::Aot);
    if (want_fallback) {
      EXPECT_NE(info.fallback_reason.find("per-step halo exchange"), std::string::npos)
          << info.fallback_reason;
    } else {
      EXPECT_EQ(info.fallback_reason, "");
    }
    EXPECT_EQ(counter_value("aot.fallback.boundary") - aot_fb0, want_aot && !zero ? 1 : 0);
    EXPECT_EQ(counter_value("sweep.temporal.fallback") - tt_fb0,
              depth > 1 && !zero && want != Route::Aot ? 1 : 0);
    if (want == Route::Temporal) {
      EXPECT_EQ(info.wedge_depth, depth);
      EXPECT_EQ(info.blocks, 2);
    } else {
      EXPECT_EQ(info.blocks, 0);
    }

    // Every ring slot, halos included, bit for bit.
    const auto bytes = static_cast<std::size_t>(ref.padded_points()) * sizeof(T);
    for (int s = 0; s < ref.slots(); ++s)
      EXPECT_EQ(std::memcmp(ref.slot_data(s), got.slot_data(s), bytes), 0) << "slot " << s;

    // The same accounting on every route.
    const auto terms = static_cast<std::int64_t>(linearize_stencil(st, {})->terms.size());
    const std::int64_t points = kSteps * 19 * 23;
    EXPECT_EQ(stats.timesteps, kSteps);
    EXPECT_EQ(stats.points_updated, points);
    EXPECT_EQ(stats.flops, 2 * terms * points);
    EXPECT_EQ(counter_value("exec.points_updated") - points0, stats.points_updated);
    EXPECT_EQ(counter_value("exec.flops") - flops0, stats.flops);
    EXPECT_EQ(counter_value("exec.timesteps") - steps0, stats.timesteps);
    EXPECT_EQ(ref_stats.timesteps, stats.timesteps);
    EXPECT_EQ(ref_stats.points_updated, stats.points_updated);
    EXPECT_EQ(ref_stats.flops, stats.flops);
  }
};

TEST_P(RouteMatrix, MatchesReferenceAndReportsTheRoute) {
  if (std::get<3>(GetParam()) == ir::DataType::f32) {
    run_cell<float>();
  } else {
    run_cell<double>();
  }
}

std::string route_cell_name(const ::testing::TestParamInfo<RouteCell>& p) {
  const auto [backend, depth, bc, dt] = p.param;
  return std::string(backend == HostBackend::Aot ? "Aot" : "Sweep") + "_tt" +
         std::to_string(depth) + "_" + (bc == Boundary::ZeroHalo ? "ZeroHalo" : "Periodic") +
         "_" + (dt == ir::DataType::f32 ? "f32" : "f64");
}

INSTANTIATE_TEST_SUITE_P(
    Exec, RouteMatrix,
    ::testing::Combine(::testing::Values(HostBackend::Sweep, HostBackend::Aot),
                       ::testing::Values(std::int64_t{1}, std::int64_t{3}),
                       ::testing::Values(Boundary::ZeroHalo, Boundary::Periodic),
                       ::testing::Values(ir::DataType::f32, ir::DataType::f64)),
    route_cell_name);

// ---- the worker team: `parallel N` runs on exactly N threads -------------

// 24x24 f64, dim 0 in `rows`-row tiles (and `rows`-row wedges under
// time_tile), `parallel("j_outer", threads)` unless threads is 0.
std::unique_ptr<dsl::Program> team_program(std::int64_t rows, int threads,
                                           std::int64_t time_depth) {
  auto prog = std::make_unique<dsl::Program>("team");
  dsl::Var j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f64, 24, 24);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.3) * B(j, i) + dsl::ExprH(0.15) * B(j, i - 1) +
                             dsl::ExprH(0.15) * B(j, i + 1) + dsl::ExprH(0.2) * B(j - 1, i) +
                             dsl::ExprH(0.2) * B(j + 1, i));
  k.tile({rows, 24}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  if (threads > 0) k.parallel("j_outer", threads);
  if (time_depth > 1) k.time_tile(time_depth, rows);
  prog->def_stencil("st", B, 0.7 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2]);
  return prog;
}

/// Distinct flight threads that recorded a `work` event during `run`, and
/// whether the thread that recorded the route's `caller` event is among
/// them.
template <typename Run>
std::pair<std::set<int>, bool> flight_threads(prof::FlightKind work, prof::FlightKind caller,
                                              Run run) {
  auto& flight = prof::global_flight();
  const bool was_enabled = flight.enabled();
  flight.set_enabled(true);
  flight.clear();
  run();
  std::set<int> workers;
  int caller_tid = -1;
  for (const auto& d : flight.drain())
    for (const auto& e : d.events) {
      if (e.kind == work) workers.insert(d.tid);
      if (e.kind == caller) caller_tid = d.tid;
    }
  flight.set_enabled(was_enabled);
  return {workers, workers.count(caller_tid) == 1};
}

TEST(WorkerTeam, ParallelNRunsOnExactlyMinOfNUnitsAndTeamThreads) {
  ThreadPool pool(4);  // a 4-member team on any host
  const bool have_cc = host_cc_available();
  struct Case {
    std::int64_t rows;
    int threads;  // 0: serial schedule
  };
  // 6 units of 4 rows, or 2 units of 12 rows (fewer units than threads).
  for (const Case c : {Case{4, 0}, Case{4, 1}, Case{4, 2}, Case{4, 3}, Case{4, 4}, Case{4, 6},
                       Case{12, 4}}) {
    for (const Route route : {Route::Sweep, Route::Temporal, Route::Aot}) {
      if (route == Route::Aot && !have_cc) continue;
      SCOPED_TRACE(::testing::Message() << route_name(route) << ", rows " << c.rows
                                        << ", parallel " << c.threads);
      auto prog = team_program(c.rows, c.threads, route == Route::Temporal ? 2 : 1);
      const auto& st = prog->stencil();
      GridStorage<double> g(st.state());
      for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 3 + static_cast<std::uint64_t>(s));
      ExecOptions opts;
      opts.pool = &pool;
      if (route == Route::Aot) opts.backend = HostBackend::Aot;
      ExecInfo info;
      const auto work =
          route == Route::Temporal ? prof::FlightKind::Wedge : prof::FlightKind::RowChunk;
      const auto caller = route == Route::Sweep      ? prof::FlightKind::Step
                          : route == Route::Temporal ? prof::FlightKind::WedgeBlock
                                                     : prof::FlightKind::AotRun;
      const auto [threads, caller_worked] = flight_threads(work, caller, [&] {
        run_scheduled(st, prog->primary_schedule(), g, 1, 4, Boundary::ZeroHalo, {}, nullptr,
                      opts, &info);
      });
      ASSERT_EQ(info.route, route) << info.fallback_reason;
      const std::int64_t units = route == Route::Temporal ? info.wedges : 24 / c.rows;
      const std::int64_t want =
          c.threads == 0 ? 1 : std::min<std::int64_t>({c.threads, units, 4});
      EXPECT_EQ(static_cast<std::int64_t>(threads.size()), want);
      EXPECT_TRUE(caller_worked) << "the caller is member 0";
    }
  }
}

TEST(ProgramRun, TimeTileTakesTheWedgeRoute) {
  auto prog = route_program(ir::DataType::f64, 4);
  prog->input(dsl::GridRef(prog->stencil().state()), 42);
  const auto wedges0 = counter_value("sweep.temporal.wedges");
  prog->run(1, 8);
  EXPECT_GT(counter_value("sweep.temporal.wedges"), wedges0);
  EXPECT_EQ(prog->last_exec_info().route, Route::Temporal);
  EXPECT_EQ(prog->last_exec_info().wedge_depth, 4);
}

TEST(ProgramRun, SweepRunAfterAotRunClearsTheAotProvenance) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto prog = route_program(ir::DataType::f64, 1);
  prog->input(dsl::GridRef(prog->stencil().state()), 42);
  prog->set_backend(HostBackend::Aot);
  prog->run(1, 2);
  ASSERT_TRUE(prog->last_aot_info().aot) << prog->last_exec_info().fallback_reason;
  prog->set_backend(HostBackend::Sweep);
  prog->run(3, 4);
  EXPECT_FALSE(prog->last_aot_info().aot);
  EXPECT_EQ(prog->last_aot_info().plan_hash, "");
  EXPECT_EQ(prog->last_exec_info().route, Route::Sweep);
}

// ---- the kept plan: lower once per Program, re-lower on every edit -------

/// Bit pattern of a value: bit-identity, not numeric equality (-0 vs +0).
std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// A Program and a run_reference copy of its state driven through the same
/// calls; each run checks every interior value of the program's last step
/// bit for bit against the reference under the settings of that run.
class ReferenceTwin {
 public:
  explicit ReferenceTwin(dsl::Program& prog) : prog_(prog), ref_(prog.stencil().state()) {
    for (std::int64_t t = 0; t > -prog.stencil().time_window(); --t) {
      const int slot = ref_.slot_for_time(t);
      ref_.for_each_interior(
          [&](std::array<std::int64_t, 3> c) { ref_.at(slot, c) = prog.value_at(t, c); });
    }
  }

  /// Runs [t0, t1] on both and returns the mismatching interior points.
  std::int64_t run(std::int64_t t0, std::int64_t t1, Boundary bc = Boundary::ZeroHalo) {
    prog_.run(t0, t1, bc);
    return follow(t0, t1, bc);
  }

  /// Runs [t0, t1] on the reference after the program ran it.
  std::int64_t follow(std::int64_t t0, std::int64_t t1, Boundary bc = Boundary::ZeroHalo) {
    run_reference(prog_.stencil(), ref_, t0, t1, bc, prog_.bindings());
    std::int64_t mismatches = 0;
    const int slot = ref_.slot_for_time(t1);
    ref_.for_each_interior([&](std::array<std::int64_t, 3> c) {
      mismatches += bits(ref_.at(slot, c)) != bits(prog_.value_at(t1, c)) ? 1 : 0;
    });
    return mismatches;
  }

 private:
  dsl::Program& prog_;
  GridStorage<double> ref_;
};

/// A 19x23 five-point program on its default schedule (untiled, serial),
/// its centre coefficient the bound variable `c0`.
std::unique_ptr<dsl::Program> plain_program() {
  auto prog = std::make_unique<dsl::Program>("plain");
  dsl::Var j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f64, 19, 23);
  const dsl::ExprH c0(ir::make_var("c0", ir::DataType::f64));
  auto& k = prog->kernel("k", {j, i},
                         c0 * B(j, i) + dsl::ExprH(0.15) * B(j, i - 1) +
                             dsl::ExprH(0.15) * B(j, i + 1) + dsl::ExprH(0.2) * B(j - 1, i) +
                             dsl::ExprH(0.2) * B(j + 1, i));
  prog->def_stencil("st", B, 0.7 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2]);
  prog->bind("c0", 0.3);
  prog->input(B, 42);
  return prog;
}

/// Flight events of `kind` recorded during `run`, and the sum of their b
/// lanes.
template <typename Run>
std::pair<std::int64_t, std::int64_t> flight_count(prof::FlightKind kind, Run run) {
  auto& flight = prof::global_flight();
  const bool was_enabled = flight.enabled();
  flight.set_enabled(true);
  flight.clear();
  run();
  std::int64_t n = 0, b = 0;
  for (const auto& d : flight.drain())
    for (const auto& e : d.events)
      if (e.kind == kind) {
        ++n;
        b += e.b;
      }
  flight.set_enabled(was_enabled);
  return {n, b};
}

TEST(ProgramRun, TimeTileThroughTheHandleIsPickedUp) {
  auto prog = route_program(ir::DataType::f64, 1);
  prog->input(dsl::GridRef(prog->stencil().state()), 42);
  ReferenceTwin twin(*prog);
  EXPECT_EQ(twin.run(1, 3), 0);
  EXPECT_EQ(prog->last_exec_info().route, Route::Sweep);
  EXPECT_FALSE(prog->last_exec_info().plan_reused);
  EXPECT_EQ(twin.run(4, 6), 0);
  EXPECT_TRUE(prog->last_exec_info().plan_reused);

  prog->primary_kernel().time_tile(4);
  EXPECT_EQ(twin.run(7, 14), 0);
  EXPECT_EQ(prog->last_exec_info().route, Route::Temporal);
  EXPECT_EQ(prog->last_exec_info().wedge_depth, 4);
  EXPECT_FALSE(prog->last_exec_info().plan_reused);
  EXPECT_EQ(twin.run(15, 22), 0);
  EXPECT_EQ(prog->last_exec_info().route, Route::Temporal);
  EXPECT_TRUE(prog->last_exec_info().plan_reused);
}

TEST(ProgramRun, TileChangeThroughARetainedSchedPtrIsPickedUp) {
  auto prog = plain_program();
  const schedule::SchedulePtr sched = prog->primary_kernel().sched_ptr();
  ReferenceTwin twin(*prog);
  // The RowChunk b lane counts the sweep tiles a chunk ran.
  const auto untiled = flight_count(prof::FlightKind::RowChunk, [&] { prog->run(1, 1); });
  EXPECT_EQ(twin.follow(1, 1), 0);
  EXPECT_EQ(untiled.second, 1);

  sched->tile({4, 23});  // 5 dim-0 tiles, serial
  const auto tiled = flight_count(prof::FlightKind::RowChunk, [&] { prog->run(2, 2); });
  EXPECT_EQ(twin.follow(2, 2), 0);
  EXPECT_EQ(tiled.second, 5);
  EXPECT_FALSE(prog->last_exec_info().plan_reused);
}

TEST(ProgramRun, BindOfANewCoefficientIsPickedUp) {
  auto prog = plain_program();
  ReferenceTwin twin(*prog);
  EXPECT_EQ(twin.run(1, 3), 0);
  prog->bind("c0", 0.31);
  EXPECT_EQ(twin.run(4, 6), 0);
  EXPECT_FALSE(prog->last_exec_info().plan_reused);
  // The run used the new value: 0.31 and 0.3 diverge from the same state.
  auto stale = plain_program();
  stale->run(1, 6);
  EXPECT_NE(bits(stale->value_at(6, {9, 11, 0})), bits(prog->value_at(6, {9, 11, 0})));
}

TEST(ProgramRun, BoundaryChangesOnTheAotBackendFallBackAndReturn) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto prog = plain_program();
  prog->set_backend(HostBackend::Aot);
  ReferenceTwin twin(*prog);
  EXPECT_EQ(twin.run(1, 2), 0);
  ASSERT_EQ(prog->last_exec_info().route, Route::Aot) << prog->last_exec_info().fallback_reason;

  EXPECT_EQ(twin.run(3, 4, Boundary::Periodic), 0);
  EXPECT_EQ(prog->last_exec_info().route, Route::Sweep);
  EXPECT_FALSE(prog->last_aot_info().aot);
  EXPECT_NE(prog->last_exec_info().fallback_reason.find("per-step halo exchange"),
            std::string::npos)
      << prog->last_exec_info().fallback_reason;

  EXPECT_EQ(twin.run(5, 6), 0);
  EXPECT_EQ(prog->last_exec_info().route, Route::Aot);
  EXPECT_EQ(prog->last_exec_info().fallback_reason, "");
  EXPECT_TRUE(prog->last_aot_info().aot);
}

TEST(ProgramRun, BackendSwitchesAreBitExact) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto prog = plain_program();
  ReferenceTwin twin(*prog);
  std::int64_t t = 1;
  for (const HostBackend b :
       {HostBackend::Aot, HostBackend::Sweep, HostBackend::Aot, HostBackend::Sweep}) {
    prog->set_backend(b);
    EXPECT_EQ(twin.run(t, t + 1), 0);
    t += 2;
    const Route want = b == HostBackend::Aot ? Route::Aot : Route::Sweep;
    EXPECT_EQ(prog->last_exec_info().route, want) << prog->last_exec_info().fallback_reason;
    EXPECT_EQ(prog->last_aot_info().aot, want == Route::Aot);
    EXPECT_FALSE(prog->last_exec_info().plan_reused);
  }
}

TEST(ProgramRun, WarmRunsLowerNothingOnAnyRoute) {
  const bool have_cc = host_cc_available();
  for (const Route route : {Route::Sweep, Route::Temporal, Route::Aot}) {
    if (route == Route::Aot && !have_cc) continue;
    SCOPED_TRACE(route_name(route));
    auto prog = route_program(ir::DataType::f64, route == Route::Temporal ? 3 : 1);
    prog->input(dsl::GridRef(prog->stencil().state()), 42);
    if (route == Route::Aot) prog->set_backend(HostBackend::Aot);
    ReferenceTwin twin(*prog);
    const auto cold = flight_count(prof::FlightKind::Lower, [&] { twin.run(1, 4); });
    ASSERT_EQ(prog->last_exec_info().route, route) << prog->last_exec_info().fallback_reason;
    EXPECT_GE(cold.first, 1);
    std::int64_t mismatches = -1;
    const auto warm =
        flight_count(prof::FlightKind::Lower, [&] { mismatches = twin.run(5, 8); });
    const auto emit = flight_count(prof::FlightKind::AotEmit, [&] { twin.run(9, 12); });
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(warm.first, 0);
    EXPECT_EQ(emit.first, 0);
    EXPECT_TRUE(prog->last_exec_info().plan_reused);
    EXPECT_EQ(prog->last_exec_info().route, route);
  }
}

}  // namespace
}  // namespace msc::exec
