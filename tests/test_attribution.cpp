// Tests of the measured-roofline attribution engine (src/prof/attribution):
// the analytic plan walk against hand-computed FLOP/byte counts, the phase
// bucketing of flight events, the roofline join, and the msc-attr-v1
// document schema.  The analytic fixture is the whole point: every number
// here is derivable by hand from the stencil shape, so a traffic-model
// regression shows up as an exact integer mismatch, not a tolerance drift.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "machine/machine.hpp"
#include "prof/attribution.hpp"
#include "prof/flight.hpp"
#include "prof/timeline.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace msc::prof {
namespace {

// ---- the analytic walk, hand-computed -----------------------------------

// 3d7pt_star on a 16^3 grid, radius 1, fp64, steps t=1..3:
//   terms          = 7 spatial points x 2 time slots            = 14
//   interior       = 16^3                                       = 4096
//   padded         = 18^3 (one-cell halo)                       = 5832
//   flops          = 2 * 14 * 4096 * 3                          = 344064
//   bytes_written  = 3 * 4096 * 8                               = 98304
//   bytes_read     = 3 steps * 2 slots * 5832 * 8               = 279936
TEST(Attribution, SweepPlanCountsMatchHandComputation) {
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {16, 16, 16});
  workload::apply_msc_schedule(*prog, info, "cpu");
  const auto cost = attribute_plan(prog->stencil(), prog->primary_schedule(),
                                   exec::Route::Sweep, sizeof(double), 1, 3);
  EXPECT_EQ(cost.steps, 3);
  EXPECT_EQ(cost.terms, 14);
  EXPECT_EQ(cost.interior_points, 4096);
  EXPECT_EQ(cost.input_slots, 2);
  EXPECT_EQ(cost.flops, 344064);
  EXPECT_EQ(cost.bytes_written, 98304);
  EXPECT_EQ(cost.bytes_read, 279936);
  EXPECT_EQ(cost.wedge_depth, 1);
  EXPECT_EQ(cost.blocks, 3);  // per-step engine: one "block" per step
  EXPECT_DOUBLE_EQ(cost.oi, 344064.0 / (98304.0 + 279936.0));
}

// 2d9pt_star on 32^2, radius 2, fp64, one step: 9 x 2 = 18 terms,
// interior 1024, padded 36^2 = 1296.
TEST(Attribution, TwoDStarCountsMatchHandComputation) {
  const auto& info = workload::benchmark("2d9pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {32, 32, 0});
  workload::apply_msc_schedule(*prog, info, "cpu");
  const auto cost = attribute_plan(prog->stencil(), prog->primary_schedule(),
                                   exec::Route::Sweep, sizeof(double), 1, 1);
  EXPECT_EQ(cost.terms, 18);
  EXPECT_EQ(cost.interior_points, 1024);
  EXPECT_EQ(cost.flops, 2 * 18 * 1024);
  EXPECT_EQ(cost.bytes_written, 1024 * 8);
  EXPECT_EQ(cost.bytes_read, 2 * 1296 * 8);
}

// The temporal walk must agree with the engine's own lowering: same wedge
// depth, same block count — and the block-level reuse is exactly what makes
// its analytic intensity beat the per-step engine's.
TEST(Attribution, TemporalReuseMatchesEngineLowering) {
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {16, 16, 16});
  workload::apply_msc_schedule(*prog, info, "cpu");
  prog->primary_kernel().time_tile(2);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  const auto sweep = attribute_plan(st, sched, exec::Route::Sweep, 8, 1, 4);
  const auto temporal = attribute_plan(st, sched, exec::Route::Temporal, 8, 1, 4);
  EXPECT_EQ(temporal.flops, sweep.flops) << "fusing time never changes the math";
  EXPECT_EQ(temporal.bytes_written, sweep.bytes_written);
  EXPECT_GT(temporal.wedge_depth, 1);
  EXPECT_LT(temporal.blocks, temporal.steps);
  EXPECT_LT(temporal.bytes_read, sweep.bytes_read) << "block reuse is the whole point";
  EXPECT_GT(temporal.oi, sweep.oi);

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 3);
  exec::ExecInfo ti;
  exec::run_scheduled(st, sched, g, 1, 4, exec::Boundary::ZeroHalo, {}, nullptr, {}, &ti);
  ASSERT_EQ(ti.route, exec::Route::Temporal) << ti.fallback_reason;
  EXPECT_EQ(temporal.wedge_depth, ti.wedge_depth);
  EXPECT_EQ(temporal.blocks, ti.blocks);
}

// ---- phase bucketing ----------------------------------------------------

FlightEvent ev(FlightKind kind, std::uint64_t dur_ns) {
  FlightEvent e;
  e.kind = kind;
  e.dur_ns = dur_ns;
  return e;
}

TEST(Attribution, BucketPhasesSplitsLeafKindsAndComputesDispatch) {
  std::vector<FlightThreadDump> dumps(2);
  dumps[0].tid = 0;
  dumps[0].events = {ev(FlightKind::RowChunk, 10'000'000), ev(FlightKind::AotCompile, 2'000'000),
                     ev(FlightKind::Step, 99'000'000)};  // structural parent: not bucketed
  dumps[1].tid = 1;
  dumps[1].events = {ev(FlightKind::WedgeWait, 5'000'000), ev(FlightKind::Wedge, 4'000'000),
                     ev(FlightKind::AotRun, 50'000'000)};  // parent of AOT RowChunks

  const auto p = bucket_phases(dumps, 0.020);
  EXPECT_DOUBLE_EQ(p.compute_s, 0.014);    // RowChunk + Wedge
  EXPECT_DOUBLE_EQ(p.wedge_wait_s, 0.005);
  EXPECT_DOUBLE_EQ(p.aot_pipeline_s, 0.002);
  EXPECT_DOUBLE_EQ(p.wall_s, 0.020);
  // Busiest thread: tid 0 with 10+2 = 12 ms attributed; dispatch is the rest.
  EXPECT_DOUBLE_EQ(p.dispatch_s, 0.008);
  EXPECT_EQ(p.events, 4);  // the Step and AotRun parent spans are excluded
}

TEST(Attribution, BucketPhasesIgnoresRankPhaseSpans) {
  // The comm layers' RankPhase spans share the rings with engine spans; a
  // rank's compute phase wraps engine work, so bucketing it would double
  // count.
  std::vector<FlightThreadDump> dumps(1);
  dumps[0].events = {ev(FlightKind::RowChunk, 10'000'000)};
  const auto before = bucket_phases(dumps, 0.020);
  dumps[0].events.push_back(ev(FlightKind::RankPhase, 15'000'000));
  dumps[0].events.back().b = static_cast<std::int64_t>(Phase::Compute);
  const auto after = bucket_phases(dumps, 0.020);
  EXPECT_DOUBLE_EQ(after.compute_s, before.compute_s);
  EXPECT_DOUBLE_EQ(after.dispatch_s, before.dispatch_s);
  EXPECT_EQ(after.events, before.events);
}

TEST(Attribution, BucketPhasesClampsDispatchAtZero) {
  std::vector<FlightThreadDump> dumps(1);
  dumps[0].events = {ev(FlightKind::RowChunk, 50'000'000)};
  const auto p = bucket_phases(dumps, 0.010);  // wall < attributed (clock skew)
  EXPECT_DOUBLE_EQ(p.dispatch_s, 0.0);
}

// ---- the roofline join --------------------------------------------------

TEST(Attribution, AttributeRunJoinsAgainstTheRoofline) {
  machine::MachineModel m;
  m.name = "synthetic";
  m.mem_bw_gbs = 100.0;  // ridge at peak/bw flop/byte

  PlanCost cost;
  cost.flops = 2'000'000'000;
  cost.bytes_read = 800'000'000;
  cost.bytes_written = 200'000'000;
  cost.oi = 2.0;  // 2e9 / 1e9

  PhaseBreakdown phases;
  phases.wall_s = 1.0;

  const auto row = attribute_run("fixture", exec::Route::Sweep, cost, phases, m);
  EXPECT_DOUBLE_EQ(row.measured_gflops, 2.0);  // 2e9 flops / 1 s
  // attainable = min(peak, oi * bw) = min(peak, 200 GF/s)
  const double expected_attainable = std::min(m.peak_gflops(), 2.0 * 100.0);
  EXPECT_DOUBLE_EQ(row.attainable_gflops, expected_attainable);
  EXPECT_DOUBLE_EQ(row.pct_of_attainable, 100.0 * 2.0 / expected_attainable);
  EXPECT_EQ(row.memory_bound, cost.oi < m.ridge_flop_per_byte());
}

TEST(Attribution, BoundLabelsMemoryRidgeAndCompute) {
  machine::MachineModel m;
  m.name = "synthetic";
  m.mem_bw_gbs = 100.0;
  const double ridge = m.ridge_flop_per_byte();
  PhaseBreakdown phases;
  phases.wall_s = 1.0;
  const auto row_at = [&](double oi) {
    PlanCost cost;
    cost.oi = oi;
    return attribute_run("fixture", exec::Route::Sweep, cost, phases, m);
  };
  struct Case {
    double oi;
    const char* bound;
    bool memory_bound;
  };
  // The band is ±25% of the ridge, edges included; memory_bound keeps its
  // strict "left of the ridge" meaning inside it.
  for (const Case c : {Case{ridge * 0.5, "memory", true}, Case{ridge * 0.74, "memory", true},
                       Case{ridge * 0.75, "ridge", true}, Case{ridge * 0.9, "ridge", true},
                       Case{ridge * 1.1, "ridge", false}, Case{ridge * 1.25, "ridge", false},
                       Case{ridge * 1.26, "compute", false}, Case{ridge * 4.0, "compute", false}}) {
    SCOPED_TRACE(c.oi / ridge);
    const auto row = row_at(c.oi);
    EXPECT_STREQ(row.bound, c.bound);
    EXPECT_EQ(row.memory_bound, c.memory_bound);
    const auto doc = attribution_json({row}, m);
    EXPECT_EQ(doc.find("rows")->elements()[0].find("bound")->as_string(), c.bound);
    const std::string md = attribution_markdown({row}, m);
    EXPECT_NE(md.find(std::string(" | ") + c.bound + " | "), std::string::npos) << md;
  }
  // The flip this band exists for: 3d7pt_star temporal at 2.26 F/B against
  // quick-probe ridges anywhere in 1.93-2.75 F/B reads "ridge" every time.
  for (const double probed : {1.93, 2.26, 2.75})
    EXPECT_STREQ(roofline_bound(2.26, probed), "ridge") << probed;
}

// ---- document schema ----------------------------------------------------

TEST(Attribution, JsonSchemaAndMarkdownRows) {
  machine::MachineModel m;
  m.name = "synthetic";
  m.mem_bw_gbs = 50.0;

  PlanCost cost;
  cost.flops = 1000;
  cost.bytes_read = 400;
  cost.bytes_written = 100;
  cost.oi = 2.0;
  PhaseBreakdown phases;
  phases.wall_s = 0.5;

  auto ok = attribute_run("3d7pt_star", exec::Route::Sweep, cost, phases, m);
  auto fell_back = attribute_run("3d7pt_star", exec::Route::Aot, cost, phases, m);
  fell_back.ran = false;
  fell_back.note = "no host C compiler";

  const auto doc = attribution_json({ok, fell_back}, m);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_string(), "msc-attr-v1");
  EXPECT_EQ(doc.find("machine")->find("name")->as_string(), "synthetic");
  const auto& rows = doc.find("rows")->elements();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].find("benchmark")->as_string(), "3d7pt_star");
  EXPECT_EQ(rows[0].find("backend")->as_string(), "sweep");
  EXPECT_TRUE(rows[0].find("ran")->as_bool());
  EXPECT_EQ(rows[0].find("oi_flop_per_byte")->as_number(), 2.0);
  EXPECT_FALSE(rows[1].find("ran")->as_bool());
  EXPECT_EQ(rows[1].find("note")->as_string(), "no host C compiler");

  const std::string md = attribution_markdown({ok, fell_back}, m);
  EXPECT_NE(md.find("| benchmark |"), std::string::npos);
  EXPECT_NE(md.find("3d7pt_star"), std::string::npos);
  EXPECT_NE(md.find("no host C compiler"), std::string::npos);
}

// ---- end to end against a real run --------------------------------------

TEST(Attribution, MeasuredRunProducesNonEmptyPhases) {
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {16, 16, 16});
  workload::apply_msc_schedule(*prog, info, "cpu");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 3);

  auto& flight = global_flight();
  flight.clear();
  exec::run_scheduled(st, sched, g, 1, 3, exec::Boundary::ZeroHalo);
  const auto phases = bucket_phases(flight.drain(), 1.0);
  EXPECT_GT(phases.events, 0);
  EXPECT_GT(phases.compute_s, 0.0);
  EXPECT_DOUBLE_EQ(phases.wedge_wait_s, 0.0);  // per-step engine never waits
  EXPECT_DOUBLE_EQ(phases.aot_pipeline_s, 0.0);
  flight.clear();
}

}  // namespace
}  // namespace msc::prof
