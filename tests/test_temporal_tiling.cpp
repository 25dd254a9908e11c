// Differential battery for the time-skewed temporal engine
// (exec/temporal_sweep): wedge lowering must cover every (step, point)
// exactly once with every clamp resolved at lowering time, and
// run_scheduled's wedge route must be bit-identical to the per-point
// interpreter for every dtype, time depth and wedge shape — including odd
// extents that force remainder wedges, skews clamped at the grid
// boundary, wedge depths past the stencil's time window, single-row
// grids, and over-subscribed parallel plans.  Randomized cases shrink to
// a minimal reproducer on failure (check/shrink).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "check/case_gen.hpp"
#include "check/shrink.hpp"
#include "dsl/program.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "exec/temporal_sweep.hpp"
#include "support/thread_pool.hpp"

namespace msc::exec {
namespace {

// The CI host may expose a single core, where the global pool cannot
// exercise the chunk-wavefront DAG; every parallel test injects this pool
// instead (the yield-based waits make progress even over-subscribed).
ThreadPool& test_pool() {
  static ThreadPool pool(4);
  return pool;
}

// `sched` with time_tile(depth, width) applied.
schedule::Schedule time_tiled(const schedule::Schedule& sched, std::int64_t depth,
                              std::int64_t width = 0) {
  schedule::Schedule out = sched;
  out.time_tile(depth, width);
  return out;
}

// Runs the interpreter and run_scheduled from identically seeded grids and
// compares every ring slot's interior bit for bit, so the whole retained
// window — not just the final step — must agree.  A time_tile() depth > 1
// must take the wedge route, depth 1 the per-step sweep.
template <typename T>
::testing::AssertionResult temporal_bit_identical(const ir::StencilDef& st,
                                                  const schedule::Schedule& sched,
                                                  std::int64_t steps, std::uint64_t seed,
                                                  ThreadPool* pool = nullptr) {
  GridStorage<T> gi(st.state());
  GridStorage<T> gt(st.state());
  for (int s = 0; s < gi.slots(); ++s) {
    gi.fill_random(s, seed + static_cast<std::uint64_t>(s));
    gt.fill_random(s, seed + static_cast<std::uint64_t>(s));
  }
  run_scheduled_interpreted(st, sched, gi, 1, steps, Boundary::ZeroHalo);
  ExecOptions opts;
  opts.pool = pool;
  ExecInfo info;
  run_scheduled(st, sched, gt, 1, steps, Boundary::ZeroHalo, {}, nullptr, opts, &info);
  const Route want = sched.time_tile_depth() > 1 ? Route::Temporal : Route::Sweep;
  if (info.route != want)
    return ::testing::AssertionFailure() << "ran the " << route_name(info.route)
                                         << " route: " << info.fallback_reason;
  for (int s = 0; s < gi.slots(); ++s) {
    const auto vi = gi.interior_values(s);
    const auto vt = gt.interior_values(s);
    if (vi.size() != vt.size())
      return ::testing::AssertionFailure() << "slot " << s << " size mismatch";
    for (std::size_t p = 0; p < vi.size(); ++p) {
      if (vi[p] != vt[p])
        return ::testing::AssertionFailure()
               << "slot " << s << " diverges at flat index " << p << ": interpreted "
               << vi[p] << " vs temporal " << vt[p] << " (wedge_depth="
               << info.wedge_depth << " width=" << info.wedge_width << " blocks="
               << info.blocks << " dep_span=" << info.dep_span << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// 2-D program with odd extents, radius 1, a three-deep time window and a
// tiled+reordered schedule: remainder tiles in both dimensions and
// boundary-clamped skews at every wedge rank.
std::unique_ptr<dsl::Program> odd_2d_program(std::int64_t time_depth = 1,
                                             std::int64_t time_width = 0) {
  auto prog = std::make_unique<dsl::Program>("tt2d");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 3, 1, ir::DataType::f64, 19, 23);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.2) * B(j, i) + dsl::ExprH(0.2) * B(j - 1, i) +
                             dsl::ExprH(0.2) * B(j + 1, i) + dsl::ExprH(0.2) * B(j, i - 1) +
                             dsl::ExprH(0.2) * B(j, i + 1));
  k.tile({5, 8}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  if (time_depth > 1) k.time_tile(time_depth, time_width);
  prog->def_stencil("st", B,
                    0.5 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2] + 0.2 * k[prog->t() - 3]);
  return prog;
}

// 3-D program with odd extents and a radius-2 star along dim 0, so the
// per-step skew is 2 rows and wedge clamps trigger on both faces.
std::unique_ptr<dsl::Program> odd_3d_program(ir::DataType dtype) {
  auto prog = std::make_unique<dsl::Program>("tt3d");
  auto kv = prog->var("k"), j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_3d_timewin("B", 2, 2, dtype, 11, 9, 13);
  auto& k = prog->kernel("k", {kv, j, i},
                         dsl::ExprH(0.3) * B(kv, j, i) + dsl::ExprH(0.15) * B(kv - 2, j, i) +
                             dsl::ExprH(0.15) * B(kv + 2, j, i) +
                             dsl::ExprH(0.1) * B(kv - 1, j, i) +
                             dsl::ExprH(0.1) * B(kv + 1, j, i) +
                             dsl::ExprH(0.1) * B(kv, j - 1, i) +
                             dsl::ExprH(0.1) * B(kv, j, i + 1));
  k.tile({4, 4, 8}).reorder({"k_outer", "j_outer", "i_outer", "k_inner", "j_inner", "i_inner"});
  prog->def_stencil("st", B, 0.7 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2]);
  return prog;
}

// ---- lowering properties -------------------------------------------------

// Every local step of a block must cover every interior point exactly
// once, for full and remainder wedge sets alike — the clamps and the
// remainder resolution happen at lowering time, so this is checkable
// without executing anything.
void expect_each_step_covers_once(const WedgeSet& set,
                                  const std::array<std::int64_t, 3>& extent, int ndim) {
  std::int64_t interior = 1;
  for (int d = 0; d < ndim; ++d) interior *= extent[static_cast<std::size_t>(d)];
  for (std::int64_t s = 0; s < set.depth; ++s) {
    std::vector<int> hits(static_cast<std::size_t>(interior), 0);
    for (const auto& wedge : set.wedges) {
      for (const auto& ws : wedge.steps) {
        if (ws.step != s) continue;
        for (const auto& t : ws.tiles) {
          EXPECT_GE(t.lo[0], ws.lo0);
          EXPECT_LE(t.hi[0], ws.hi0);
          std::array<std::int64_t, 3> c{0, 0, 0};
          for (c[0] = t.lo[0]; c[0] < t.hi[0]; ++c[0])
            for (c[1] = t.lo[1]; c[1] < t.hi[1]; ++c[1])
              for (c[2] = t.lo[2]; c[2] < t.hi[2]; ++c[2]) {
                std::int64_t flat = 0;
                for (int d = 0; d < ndim; ++d)
                  flat = flat * extent[static_cast<std::size_t>(d)] +
                         c[static_cast<std::size_t>(d)];
                ++hits[static_cast<std::size_t>(flat)];
              }
        }
      }
    }
    for (std::size_t p = 0; p < hits.size(); ++p)
      ASSERT_EQ(hits[p], 1) << "step " << s << " covers flat point " << p << " "
                            << hits[p] << " times";
  }
}

TEST(LowerTemporal, WedgeStepsCoverEachStepExactlyOnce) {
  auto prog = odd_2d_program();
  const LoopPlan plan = build_loop_plan(time_tiled(prog->primary_schedule(), 3, 5));
  const TemporalPlan tp = lower_temporal(plan, 4, 1, 1, 7);
  EXPECT_EQ(tp.wedge_depth, 3);
  EXPECT_EQ(tp.full_blocks, 2);
  EXPECT_EQ(tp.remainder.depth, 1);
  EXPECT_EQ(tp.blocks(), 3);
  // Wedge indices must equal vector positions even when boundary clamps
  // empty out whole wedges (chunk math runs in wedge-index space).
  for (std::size_t w = 0; w < tp.full.wedges.size(); ++w)
    EXPECT_EQ(tp.full.wedges[w].index, static_cast<std::int64_t>(w));
  expect_each_step_covers_once(tp.full, tp.extent, tp.ndim);
  expect_each_step_covers_once(tp.remainder, tp.extent, tp.ndim);
}

TEST(LowerTemporal, DepthBeyondStepCountClampsToStepCount) {
  auto prog = odd_2d_program();
  // Depth 16, but only 5 steps exist.
  const LoopPlan plan = build_loop_plan(time_tiled(prog->primary_schedule(), 16));
  const TemporalPlan tp = lower_temporal(plan, 4, 1, 1, 5);
  EXPECT_EQ(tp.wedge_depth, 5);
  EXPECT_EQ(tp.full_blocks, 1);
  EXPECT_EQ(tp.remainder.depth, 0);
  expect_each_step_covers_once(tp.full, tp.extent, tp.ndim);
}

TEST(LowerTemporal, DegenerateSkewWiderThanWedgeStillCovers) {
  // Radius 2, wedge width 1: the skew exceeds the wedge width, so a step's
  // footprint lies entirely outside its own wedge's step-0 rows and the
  // dependency span gets deep.  The lowering must still cover exactly once.
  auto prog = odd_3d_program(ir::DataType::f64);
  const LoopPlan plan = build_loop_plan(time_tiled(prog->primary_schedule(), 3, 1));
  const TemporalPlan tp = lower_temporal(plan, 3, 2, 1, 6);
  EXPECT_GE(tp.dep_span, 6);  // ceil(3 * 2 / 1)
  expect_each_step_covers_once(tp.full, tp.extent, tp.ndim);
}

TEST(LowerTemporal, SingleRowGridDegeneratesToOneWedge) {
  auto prog = std::make_unique<dsl::Program>("row1");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 1, 37);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.5) * B(j, i - 1) + dsl::ExprH(0.5) * B(j, i + 1));
  k.tile({1, 8}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  prog->def_stencil("st", B, k[prog->t() - 1]);

  const auto sched = time_tiled(prog->primary_schedule(), 4);
  const TemporalPlan tp = lower_temporal(build_loop_plan(sched), 2, 1, 1, 8);
  expect_each_step_covers_once(tp.full, tp.extent, tp.ndim);
  EXPECT_TRUE(temporal_bit_identical<double>(prog->stencil(), sched, 8, 77));
}

TEST(LowerTemporal, ScheduleTimeTileFeedsDefaults) {
  // time_tile() on the schedule must reach the lowering through the
  // LoopPlan.
  auto prog = odd_2d_program(/*time_depth=*/2, /*time_width=*/7);
  const LoopPlan plan = build_loop_plan(prog->primary_schedule());
  EXPECT_EQ(plan.time_depth, 2);
  EXPECT_EQ(plan.time_width, 7);
  const TemporalPlan tp = lower_temporal(plan, 4, 1, 1, 9);
  EXPECT_EQ(tp.wedge_depth, 2);
  EXPECT_EQ(tp.wedge_width, 7);
  expect_each_step_covers_once(tp.full, tp.extent, tp.ndim);
}

// ---- differential battery ------------------------------------------------

TEST(TemporalVsInterpreter, TimeDepthByWedgeDepthBattery2D) {
  auto prog = odd_2d_program();
  for (std::int64_t steps : {1, 2, 3, 7, 16}) {
    for (std::int64_t depth : {1, 2, 3, 4}) {
      SCOPED_TRACE("steps=" + std::to_string(steps) + " depth=" + std::to_string(depth));
      EXPECT_TRUE(temporal_bit_identical<double>(
          prog->stencil(), time_tiled(prog->primary_schedule(), depth), steps,
          1000 + static_cast<std::uint64_t>(steps)));
    }
  }
}

TEST(TemporalVsInterpreter, TimeDepthByWedgeDepthBattery3D) {
  for (auto dtype : {ir::DataType::f64, ir::DataType::f32}) {
    auto prog = odd_3d_program(dtype);
    for (std::int64_t steps : {1, 3, 7, 16}) {
      for (std::int64_t depth : {1, 2, 4}) {
        const auto sched = time_tiled(prog->primary_schedule(), depth);
        SCOPED_TRACE("dtype=" + std::string(dtype == ir::DataType::f64 ? "f64" : "f32") +
                     " steps=" + std::to_string(steps) + " depth=" + std::to_string(depth));
        if (dtype == ir::DataType::f64) {
          EXPECT_TRUE(temporal_bit_identical<double>(
              prog->stencil(), sched, steps, 2000 + static_cast<std::uint64_t>(steps)));
        } else {
          EXPECT_TRUE(temporal_bit_identical<float>(
              prog->stencil(), sched, steps, 3000 + static_cast<std::uint64_t>(steps)));
        }
      }
    }
  }
}

TEST(TemporalVsInterpreter, WedgeDepthBeyondTimeWindowBitIdentical) {
  // Depth 4 against a 2-deep window: in-place slot rotation overwrites a
  // step's inputs within the same wedge pass; the skew proof says that is
  // safe, and this pins it.
  auto prog = odd_3d_program(ir::DataType::f64);
  EXPECT_TRUE(temporal_bit_identical<double>(
      prog->stencil(), time_tiled(prog->primary_schedule(), 4, 3), 9, 41));
}

TEST(TemporalVsInterpreter, ParallelWavefrontBitIdentical) {
  // Parallel schedule + injected 4-worker pool: the chunk-level DAG with
  // spin-wait counters must agree with the serial interpreter bitwise.
  auto prog = std::make_unique<dsl::Program>("ttpar");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f64, 33, 21);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.3) * B(j, i) + dsl::ExprH(0.25) * B(j - 1, i) +
                             dsl::ExprH(0.25) * B(j + 1, i) +
                             dsl::ExprH(0.1) * B(j, i - 1) + dsl::ExprH(0.1) * B(j, i + 1));
  k.tile({4, 21}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  k.parallel("j_outer", 4);
  prog->def_stencil("st", B, 0.6 * k[prog->t() - 1] + 0.4 * k[prog->t() - 2]);

  for (std::int64_t depth : {2, 3, 7}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    EXPECT_TRUE(temporal_bit_identical<double>(
        prog->stencil(), time_tiled(prog->primary_schedule(), depth), 16,
        500 + static_cast<std::uint64_t>(depth), &test_pool()));
  }
}

TEST(TemporalVsInterpreter, OversubscribedParallelPlanBitIdentical) {
  // 16 requested threads over a 4-worker pool and only a handful of
  // wedges: chunk count must clamp and the wavefront must still drain.
  auto prog = std::make_unique<dsl::Program>("ttover");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f64, 7, 29);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.5) * B(j - 1, i) + dsl::ExprH(0.5) * B(j + 1, i));
  k.parallel("j", 16);
  prog->def_stencil("st", B, 0.5 * k[prog->t() - 1] + 0.5 * k[prog->t() - 2]);

  EXPECT_TRUE(temporal_bit_identical<double>(
      prog->stencil(), time_tiled(prog->primary_schedule(), 3, 2), 11, 87, &test_pool()));
}

TEST(TemporalVsInterpreter, NonZeroHaloFallsBackReported) {
  // Periodic boundaries need a fresh halo every step; the temporal engine
  // must refuse — loudly — and produce per-step-engine results.
  auto prog = odd_2d_program();
  const auto& st = prog->stencil();
  GridStorage<double> gi(st.state());
  GridStorage<double> gt(st.state());
  for (int s = 0; s < gi.slots(); ++s) {
    gi.fill_random(s, 11 + static_cast<std::uint64_t>(s));
    gt.fill_random(s, 11 + static_cast<std::uint64_t>(s));
  }
  run_scheduled_interpreted(st, prog->primary_schedule(), gi, 1, 5, Boundary::Periodic);
  ExecInfo info;
  run_scheduled(st, time_tiled(prog->primary_schedule(), 3), gt, 1, 5, Boundary::Periodic, {},
                nullptr, {}, &info);
  EXPECT_EQ(info.route, Route::Sweep);
  EXPECT_NE(info.fallback_reason.find("per-step halo"), std::string::npos)
      << info.fallback_reason;
  const int fs = gi.slot_for_time(5);
  EXPECT_EQ(gi.interior_values(fs), gt.interior_values(fs));
}

TEST(TemporalVsInterpreter, RandomCasesShrinkOnFailure) {
  const auto run_case = [](const check::CaseSpec& spec) -> ::testing::AssertionResult {
    auto prog = check::build_program(spec);
    if (!linearize_stencil(prog->stencil(), prog->bindings()).has_value())
      return ::testing::AssertionSuccess();
    const std::int64_t depth = 1 + static_cast<std::int64_t>(spec.seed % 4);
    return temporal_bit_identical<double>(prog->stencil(),
                                          time_tiled(prog->primary_schedule(), depth),
                                          spec.timesteps, spec.seed * 131 + 7, &test_pool());
  };

  int ran = 0;
  for (std::uint64_t seed = 1; seed <= 60 && ran < 16; ++seed) {
    const auto spec = check::random_case(seed);
    {
      auto prog = check::build_program(spec);
      if (!linearize_stencil(prog->stencil(), prog->bindings()).has_value()) continue;
    }
    ++ran;
    const auto result = run_case(spec);
    if (result) continue;
    // Shrink towards a minimal reproducer before failing, so the assert
    // message is actionable (same flow as tools/msc-conform).
    const auto shrunk = check::shrink_case(
        spec, [&](const check::CaseSpec& s) { return !static_cast<bool>(run_case(s)); });
    FAIL() << "temporal engine diverged; minimal reproducer after "
           << shrunk.accepted << " shrink steps:\n"
           << check::describe(shrunk.spec) << "\n" << result.message();
  }
  EXPECT_GE(ran, 10) << "case generator stopped producing affine cases";
}

}  // namespace
}  // namespace msc::exec
