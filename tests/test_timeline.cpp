// Per-rank phase timeline tests: interval arithmetic in critical_path(),
// the simulated-time spans the Sunway CG simulator returns (they must sum
// to the simulated wall time), overlap attribution of the async halo
// exchange from a flight drain, and JSON validity of the drain-derived
// chrome + msc-timeline-v1 documents under concurrent SimWorld rank threads.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/simmpi.hpp"
#include "exec/grid.hpp"
#include "prof/flight.hpp"
#include "prof/timeline.hpp"
#include "sunway/cg_sim.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace msc::prof {
namespace {

using workload::Json;

TEST(Timeline, PhaseNamesAndCommClassification) {
  EXPECT_STREQ(phase_name(Phase::Pack), "pack");
  EXPECT_STREQ(phase_name(Phase::Compute), "compute");
  EXPECT_STREQ(phase_name(Phase::Dma), "dma");
  for (int p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    EXPECT_EQ(phase_is_comm(phase), phase != Phase::Compute) << phase_name(phase);
  }
}

TEST(Timeline, RankPhaseScopeRecordsIntoTheFlightRings) {
  global_flight().clear();
  { RankPhaseScope scope(3, Phase::Unpack); }
  const auto spans = phase_spans(global_flight().drain());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].rank, 3);
  EXPECT_EQ(spans[0].phase, Phase::Unpack);
  EXPECT_DOUBLE_EQ(spans[0].t0, 0.0);  // seconds since the earliest span
  EXPECT_GE(spans[0].seconds(), 0.0);
  global_flight().clear();
}

TEST(Timeline, PhaseSpansSkipOtherKindsAndShareOneOrigin) {
  std::vector<FlightThreadDump> dumps(2);
  FlightEvent ev;
  ev.kind = FlightKind::RankPhase;
  ev.start_ns = 5'000'000'000;
  ev.dur_ns = 2'000'000;
  ev.a = 1;
  ev.b = static_cast<std::int64_t>(Phase::Wait);
  dumps[0].events.push_back(ev);
  ev.start_ns = 5'001'000'000;  // another ring, 1 ms later
  ev.a = 0;
  ev.b = static_cast<std::int64_t>(Phase::Compute);
  dumps[1].events.push_back(ev);
  ev.kind = FlightKind::RowChunk;  // an engine span: not a rank phase
  ev.start_ns = 0;
  dumps[1].events.push_back(ev);

  const auto spans = phase_spans(dumps);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].rank, 1);
  EXPECT_EQ(spans[0].phase, Phase::Wait);
  EXPECT_DOUBLE_EQ(spans[0].t0, 0.0);
  EXPECT_NEAR(spans[0].t1, 0.002, 1e-15);
  EXPECT_EQ(spans[1].phase, Phase::Compute);
  EXPECT_NEAR(spans[1].t0, 0.001, 1e-15);
}

TEST(CriticalPath, SyntheticSpansAttributeExactly) {
  std::vector<PhaseSpan> spans = {
      {0, Phase::Compute, 0.0, 1.0},  // rank 0: compute 1.0 s
      {0, Phase::Send, 0.5, 1.6},     // rank 0: send 1.1 s, 0.5 s under compute
      {1, Phase::Compute, 0.0, 0.6},  // rank 1: pure compute, finishes early
  };
  const auto report = critical_path(spans);
  ASSERT_EQ(report.ranks.size(), 2u);

  const RankBreakdown& r0 = report.ranks[0];
  EXPECT_NEAR(r0.phase_seconds[static_cast<std::size_t>(Phase::Compute)], 1.0, 1e-12);
  EXPECT_NEAR(r0.phase_seconds[static_cast<std::size_t>(Phase::Send)], 1.1, 1e-12);
  EXPECT_NEAR(r0.busy_seconds, 1.6, 1e-12);         // union of [0,1] and [0.5,1.6]
  EXPECT_NEAR(r0.comm_seconds, 1.1, 1e-12);
  EXPECT_NEAR(r0.hidden_comm_seconds, 0.5, 1e-12);  // [0.5,1.0]

  EXPECT_EQ(report.critical_rank, 0);
  EXPECT_NEAR(report.wall_seconds, 1.6, 1e-12);
  EXPECT_EQ(report.bounding_phase, Phase::Send);
  EXPECT_NEAR(report.total_comm_seconds, 1.1, 1e-12);
  EXPECT_NEAR(report.overlap_efficiency, 0.5 / 1.1, 1e-12);
}

TEST(CriticalPath, FragmentedSpansUnionCorrectly) {
  // Overlapping and duplicate intervals must not double-count busy time.
  std::vector<PhaseSpan> spans = {
      {0, Phase::Compute, 0.0, 2.0},
      {0, Phase::Compute, 1.0, 3.0},
      {0, Phase::Compute, 1.5, 2.5},
      {0, Phase::Wait, 5.0, 6.0},  // disjoint gap: busy adds, not bridges
  };
  const auto report = critical_path(spans);
  EXPECT_NEAR(report.ranks[0].busy_seconds, 4.0, 1e-12);  // [0,3] + [5,6]
  EXPECT_NEAR(report.ranks[0].hidden_comm_seconds, 0.0, 1e-12);
  EXPECT_NEAR(report.overlap_efficiency, 0.0, 1e-12);
}

TEST(CriticalPath, EmptyRecordingIsSafe) {
  const auto report = critical_path({});
  EXPECT_TRUE(report.ranks.empty());
  EXPECT_EQ(report.critical_rank, -1);
  EXPECT_DOUBLE_EQ(report.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.overlap_efficiency, 0.0);
  EXPECT_FALSE(critical_path_summary(report).empty());
}

// ---- Sunway CG simulator spans (simulated time base) --------------------

template <bool DoubleBuffer>
sunway::CgSimResult run_sim() {
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {16, 16, 16});
  workload::apply_msc_schedule(*prog, info, "sunway", {2, 8, 16});
  exec::GridStorage<double> g(prog->stencil().state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 7);
  return sunway::run_cg_sim(prog->stencil(), prog->primary_schedule(), g, 1, 3,
                            exec::Boundary::ZeroHalo, {}, machine::sunway_cg(), DoubleBuffer);
}

TEST(CgSimTimeline, BlockingSpansSumToSimulatedWall) {
  const auto result = run_sim<false>();
  const auto& spans = result.spans;
  ASSERT_FALSE(spans.empty());
  // A blocking pipeline serializes compute and DMA, so the phase spans
  // partition each step: their durations sum to the simulated wall time.
  double span_sum = 0.0;
  for (const auto& s : spans) {
    EXPECT_EQ(s.rank, 0);  // the simulated core group
    EXPECT_TRUE(s.phase == Phase::Compute || s.phase == Phase::Dma) << phase_name(s.phase);
    span_sum += s.seconds();
  }
  EXPECT_NEAR(span_sum, result.seconds, 1e-12 + 1e-9 * result.seconds);

  // And the critical-path wall time (union measure) agrees too.
  const auto report = critical_path(spans);
  EXPECT_NEAR(report.wall_seconds, result.seconds, 1e-12 + 1e-9 * result.seconds);
  EXPECT_EQ(report.critical_rank, 0);
  EXPECT_NEAR(report.overlap_efficiency, 0.0, 1e-12);  // nothing hidden when blocking
}

TEST(CgSimTimeline, DoubleBufferedUnionEqualsSimulatedWall) {
  const auto result = run_sim<true>();
  const auto& spans = result.spans;
  ASSERT_FALSE(spans.empty());
  // With double buffering compute hides under DMA (or vice versa): the span
  // *union* is the wall time while the plain sum exceeds it by the overlap.
  const auto report = critical_path(spans);
  EXPECT_NEAR(report.wall_seconds, result.seconds, 1e-12 + 1e-9 * result.seconds);
  double span_sum = 0.0;
  for (const auto& s : spans) span_sum += s.seconds();
  EXPECT_GE(span_sum, report.wall_seconds - 1e-12);
  // 3d7pt on the CG model is DMA-bound: compute genuinely hides under DMA.
  EXPECT_GT(report.overlap_efficiency, 0.0);
  EXPECT_LE(report.ranks[0].hidden_comm_seconds,
            std::min(result.compute_seconds, result.dma_seconds) + 1e-12);
}

// ---- distributed halo-exchange spans (wall-clock time base) -------------

TEST(CommTimeline, OverlappedRunHidesCommUnderCompute) {
  const auto& info = workload::benchmark("2d9pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {32, 32, 0});
  const auto& st = prog->stencil();
  comm::CartDecomp dec({2, 2}, {32, 32});
  comm::SimWorld world(4);

  global_flight().clear();
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor = ir::make_sp_tensor("B", ir::DataType::f64,
                                           {dec.local_extent(r, 0), dec.local_extent(r, 1)},
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);
    for (int s = 0; s < local.slots(); ++s) local.fill_random(s, 7 + r);
    comm::run_distributed_overlapped(ctx, dec, st, local, 1, 5);
  });
  const auto dumps = global_flight().drain();
  EXPECT_EQ(dropped_events(dumps), 0u);
  const auto spans = phase_spans(dumps);
  const auto report = critical_path(spans);

  ASSERT_EQ(report.ranks.size(), 4u);  // every rank recorded spans
  bool saw_send = false, saw_pack = false, saw_compute = false;
  for (const auto& s : spans) {
    EXPECT_GE(s.rank, 0);
    EXPECT_LT(s.rank, 4);
    saw_send |= s.phase == Phase::Send;
    saw_pack |= s.phase == Phase::Pack;
    saw_compute |= s.phase == Phase::Compute;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_pack);
  EXPECT_TRUE(saw_compute);
  // Both halves of every step's compute are on the timeline: the interior
  // inside the send window and the boundary shell after the wait.
  for (int r = 0; r < 4; ++r) {
    int compute_spans = 0;
    for (const auto& s : spans) compute_spans += s.rank == r && s.phase == Phase::Compute;
    EXPECT_EQ(compute_spans, 2 * 5) << "rank " << r;
  }

  // The interior sweep runs inside the in-flight send window, so some comm
  // time must be attributed as hidden (this is paper Fig. 10's mechanism).
  EXPECT_GT(report.total_comm_seconds, 0.0);
  EXPECT_GT(report.hidden_comm_seconds, 0.0);
  EXPECT_GT(report.overlap_efficiency, 0.0);
  EXPECT_LE(report.overlap_efficiency, 1.0);
}

TEST(CommTimeline, ConcurrentRankThreadsProduceParseableJson) {
  // Rank threads record their phase spans concurrently; both documents
  // derived from the drain must still parse with workload::Json (the
  // stress behind "trace JSON stays valid under concurrency").
  const auto& info = workload::benchmark("2d9pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {24, 24, 0});
  const auto& st = prog->stencil();
  comm::CartDecomp dec({2, 2}, {24, 24});
  comm::SimWorld world(4);

  global_flight().clear();
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor = ir::make_sp_tensor("B", ir::DataType::f64,
                                           {dec.local_extent(r, 0), dec.local_extent(r, 1)},
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);
    for (int s = 0; s < local.slots(); ++s) local.fill_random(s, 3 + r);
    comm::run_distributed_overlapped(ctx, dec, st, local, 1, 4);
  });
  const auto dumps = global_flight().drain();
  const auto spans = phase_spans(dumps);
  global_flight().clear();

  const Json trace_doc = Json::parse(chrome_trace_json(dumps).dump());
  std::size_t comm_events = 0;
  for (const auto& e : trace_doc.find("traceEvents")->elements())
    if (e.find("ph")->as_string() == "X") comm_events += e.find("cat")->as_string() == "comm";
  EXPECT_GT(comm_events, 0u);
  EXPECT_EQ(comm_events, spans.size());  // every rank phase, once

  const Json tl_doc = Json::parse(timeline_json(spans, dropped_events(dumps)).dump());
  EXPECT_EQ(tl_doc.find("schema")->as_string(), "msc-timeline-v1");
  EXPECT_EQ(tl_doc.find("dropped_events")->as_integer(), 0);
  const Json* tl_spans = tl_doc.find("spans");
  ASSERT_NE(tl_spans, nullptr);
  EXPECT_EQ(tl_spans->elements().size(), spans.size());
  for (const auto& s : tl_spans->elements()) {
    EXPECT_GE(s.find("rank")->as_integer(), 0);
    EXPECT_LT(s.find("rank")->as_integer(), 4);
    EXPECT_GE(s.find("t1")->as_number(), s.find("t0")->as_number());
  }
  const Json* cp = tl_doc.find("critical_path");
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->find("ranks")->elements().size(), 4u);
}

}  // namespace
}  // namespace msc::prof
