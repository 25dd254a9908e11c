// Tests of the execution flight recorder (src/prof/flight): ring capacity
// and wraparound ordering, seqlock-lite drain consistency under concurrent
// writers, ring adoption after thread exit, the msc-flight-v1 dump schema,
// plan-fingerprint scoping, and the resilience-layer crash dump that
// msc-chaos attaches to its reports.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "prof/flight.hpp"
#include "prof/timeline.hpp"
#include "resilience/chaos.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace msc::prof {
namespace {

// ---- ring semantics -----------------------------------------------------

TEST(Flight, RecordsAndDrainsInOrder) {
  FlightRecorder rec;
  for (int i = 0; i < 10; ++i)
    rec.record(FlightKind::RowChunk, static_cast<std::uint64_t>(i) * 100,
               static_cast<std::uint64_t>(i) * 100 + 50, i, 2 * i);
  const auto dumps = rec.drain();
  ASSERT_EQ(dumps.size(), 1u);
  ASSERT_EQ(dumps[0].events.size(), 10u);
  EXPECT_EQ(dumps[0].recorded, 10u);
  for (int i = 0; i < 10; ++i) {
    const auto& ev = dumps[0].events[static_cast<std::size_t>(i)];
    EXPECT_EQ(ev.kind, FlightKind::RowChunk);
    EXPECT_EQ(ev.a, i);          // oldest first
    EXPECT_EQ(ev.b, 2 * i);
    EXPECT_EQ(ev.seq, static_cast<std::uint32_t>(i));
    EXPECT_EQ(ev.dur_ns, 50u);
  }
}

TEST(Flight, WraparoundKeepsNewestSuffixInOrder) {
  FlightRecorder rec;
  const std::int64_t total = 3 * static_cast<std::int64_t>(FlightRecorder::kRingCapacity) + 7;
  for (std::int64_t i = 0; i < total; ++i)
    rec.record(FlightKind::Step, static_cast<std::uint64_t>(i),
               static_cast<std::uint64_t>(i) + 1, i);
  const auto dumps = rec.drain();
  ASSERT_EQ(dumps.size(), 1u);
  const auto& d = dumps[0];
  EXPECT_EQ(d.recorded, static_cast<std::uint64_t>(total));
  // The ring holds exactly the newest kRingCapacity events, oldest first.
  ASSERT_EQ(d.events.size(), FlightRecorder::kRingCapacity);
  const std::int64_t first = total - static_cast<std::int64_t>(FlightRecorder::kRingCapacity);
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    EXPECT_EQ(d.events[i].a, first + static_cast<std::int64_t>(i));
    if (i > 0) EXPECT_EQ(d.events[i].seq, d.events[i - 1].seq + 1) << "gap at " << i;
  }
}

TEST(Flight, DrainLastNTruncatesFromTheOldEnd) {
  FlightRecorder rec;
  for (int i = 0; i < 100; ++i)
    rec.record(FlightKind::Wedge, 0, 1, i);
  const auto dumps = rec.drain(8);
  ASSERT_EQ(dumps.size(), 1u);
  ASSERT_EQ(dumps[0].events.size(), 8u);
  EXPECT_EQ(dumps[0].events.front().a, 92);  // newest 8, still oldest first
  EXPECT_EQ(dumps[0].events.back().a, 99);
}

TEST(Flight, ClearMakesEventsInvisibleButKeepsThreads) {
  FlightRecorder rec;
  rec.record(FlightKind::Step, 0, 1);
  ASSERT_EQ(rec.drain().size(), 1u);
  rec.clear();
  const auto dumps = rec.drain();
  ASSERT_EQ(dumps.size(), 1u);  // the ring registration survives
  EXPECT_TRUE(dumps[0].events.empty());
  EXPECT_EQ(rec.total_recorded(), 0u);
}

TEST(Flight, DisabledRecorderRecordsNothing) {
  FlightRecorder rec;
  rec.set_enabled(false);
  rec.record(FlightKind::Step, 0, 1);
  EXPECT_EQ(rec.total_recorded(), 0u);
  rec.set_enabled(true);
  rec.record(FlightKind::Step, 0, 1);
  EXPECT_EQ(rec.total_recorded(), 1u);
}

// ---- concurrency --------------------------------------------------------

TEST(Flight, ConcurrentWritersVsDrainYieldConsistentSuffixes) {
  FlightRecorder rec;
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerWriter = 20000;
  std::atomic<bool> go{false};
  std::atomic<int> finished{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      while (!go.load()) {
      }
      for (std::int64_t i = 0; i < kPerWriter; ++i)
        rec.record(FlightKind::RowChunk, static_cast<std::uint64_t>(i),
                   static_cast<std::uint64_t>(i) + 1, i, w);
      // Stay alive until every writer is done: an early exit would hand
      // this ring to a writer that has not registered yet.
      finished.fetch_add(1);
      while (finished.load() < kWriters) std::this_thread::yield();
    });

  go.store(true);
  // Drain repeatedly while the writers hammer their rings.  Every drained
  // suffix must be internally consistent: strictly consecutive sequence
  // numbers (no torn or duplicated slots) and monotone payloads.
  for (int round = 0; round < 50; ++round) {
    for (const auto& d : rec.drain()) {
      for (std::size_t i = 1; i < d.events.size(); ++i) {
        ASSERT_EQ(d.events[i].seq, d.events[i - 1].seq + 1)
            << "torn drain on tid " << d.tid << " round " << round;
        ASSERT_EQ(d.events[i].a, d.events[i - 1].a + 1);
      }
    }
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(rec.total_recorded(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
  const auto final_dumps = rec.drain();
  ASSERT_EQ(final_dumps.size(), static_cast<std::size_t>(kWriters));
  for (const auto& d : final_dumps) {
    EXPECT_EQ(d.recorded, static_cast<std::uint64_t>(kPerWriter));
    EXPECT_EQ(d.events.size(), FlightRecorder::kRingCapacity);
    EXPECT_EQ(d.events.back().a, kPerWriter - 1);
  }
}

// ---- ring adoption after thread exit ------------------------------------

TEST(Flight, ExitedThreadsRingIsAdoptedWithItsCount) {
  FlightRecorder rec;
  std::thread([&] {
    for (int i = 0; i < 3; ++i) rec.record(FlightKind::Step, 0, 1, i);
  }).join();
  auto dumps = rec.drain();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_FALSE(dumps[0].live);  // its thread exited
  EXPECT_EQ(dumps[0].recorded, 3u);
  const int tid = dumps[0].tid;

  std::thread([&] {
    for (int i = 3; i < 5; ++i) rec.record(FlightKind::Step, 0, 1, i);
    const auto live = rec.drain();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_TRUE(live[0].live);
  }).join();
  dumps = rec.drain();
  ASSERT_EQ(dumps.size(), 1u);  // adopted, not a second ring
  EXPECT_EQ(dumps[0].tid, tid);
  EXPECT_EQ(dumps[0].recorded, 5u);  // the count carries on
  EXPECT_EQ(rec.total_recorded(), 5u);
  ASSERT_EQ(dumps[0].events.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dumps[0].events[i].a, static_cast<std::int64_t>(i));
    EXPECT_EQ(dumps[0].events[i].seq, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(dumps[0].dropped(), 0u);
}

TEST(Flight, RepeatedSimWorldRunsReuseRings) {
  // Every SimWorld::run spawns fresh rank threads.  Without adoption each
  // would leave a 48 KB ring behind: 200 rings after 100 two-rank runs.
  auto& flight = global_flight();
  flight.clear();
  const std::size_t rings_before = flight.drain().size();
  constexpr int kRuns = 100, kRanks = 2, kPerRank = 3;
  comm::SimWorld world(kRanks);
  for (int run = 0; run < kRuns; ++run)
    world.run([](comm::RankCtx& ctx) {
      for (int e = 0; e < kPerRank; ++e) RankPhaseScope span(ctx.rank(), Phase::Compute);
    });
  const auto dumps = flight.drain();
  EXPECT_LE(dumps.size(), rings_before + kRanks);  // peak live threads, not 200
  EXPECT_EQ(flight.total_recorded(), static_cast<std::uint64_t>(kRuns * kRanks * kPerRank));
  EXPECT_EQ(phase_spans(dumps).size(), static_cast<std::size_t>(kRuns * kRanks * kPerRank));
  flight.clear();
}

TEST(Flight, RecorderDestroyedBeforeItsThreadsExitIsSafe) {
  std::atomic<bool> recorded{false}, destroyed{false};
  auto rec = std::make_unique<FlightRecorder>();
  std::thread writer([&] {
    rec->record(FlightKind::Step, 0, 1);
    recorded = true;
    while (!destroyed.load()) std::this_thread::yield();
  });  // exits after its recorder is gone: nothing to hand the ring back to
  while (!recorded.load()) std::this_thread::yield();
  rec.reset();
  destroyed = true;
  writer.join();  // under ASan, a hand-back to the freed recorder would trip here
}

// ---- plan fingerprints --------------------------------------------------

TEST(Flight, PlanFingerprintIsStableAndShapeSensitive) {
  const auto fp = plan_fingerprint(64, 64, 64, 14, 32);
  EXPECT_EQ(fp, plan_fingerprint(64, 64, 64, 14, 32));
  EXPECT_NE(fp, plan_fingerprint(64, 64, 64, 14, 33));
  EXPECT_NE(fp, plan_fingerprint(64, 64, 32, 14, 32));
  EXPECT_NE(fp, plan_fingerprint(64, 64, 64, 14, 32, 0xA07));
  EXPECT_NE(fp, 0u);
}

TEST(Flight, PlanScopesNestAndRestore) {
  const std::uint64_t before = current_flight_plan();
  {
    FlightPlanScope outer(111);
    EXPECT_EQ(current_flight_plan(), 111u);
    {
      FlightPlanScope inner(222);
      EXPECT_EQ(current_flight_plan(), 222u);
    }
    EXPECT_EQ(current_flight_plan(), 111u);
  }
  EXPECT_EQ(current_flight_plan(), before);
}

// ---- engine integration -------------------------------------------------

TEST(Flight, SweepEngineRecordsStepAndChunkSpans) {
  auto& flight = global_flight();
  flight.clear();
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {16, 16, 16});
  workload::apply_msc_schedule(*prog, info, "cpu");
  exec::GridStorage<double> g(prog->stencil().state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 3);
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), g, 1, 3,
                      exec::Boundary::ZeroHalo);

  int steps = 0, chunks = 0;
  std::uint64_t plan = 0;
  for (const auto& d : flight.drain())
    for (const auto& ev : d.events) {
      if (ev.kind == FlightKind::Step) ++steps;
      if (ev.kind == FlightKind::RowChunk) ++chunks;
      if (ev.plan != 0) plan = ev.plan;
      EXPECT_NE(ev.plan, 0u) << "engine spans must carry the plan fingerprint";
    }
  EXPECT_EQ(steps, 3);
  EXPECT_GE(chunks, 3);  // at least one chunk per step
  EXPECT_NE(plan, 0u);
  flight.clear();
}

// ---- dump schema + crash capture ----------------------------------------

TEST(Flight, DumpJsonSchema) {
  auto& flight = global_flight();
  flight.clear();
  flight.record(FlightKind::AotCompile, 10, 20, 1234);
  const auto doc = flight_dump_json(16);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_string(), "msc-flight-v1");
  EXPECT_EQ(doc.find("ring_capacity")->as_integer(),
            static_cast<long long>(FlightRecorder::kRingCapacity));
  const auto* threads = doc.find("threads");
  ASSERT_TRUE(threads != nullptr && threads->is_array());
  bool found = false;
  for (const auto& th : threads->elements())
    for (const auto& ev : th.find("events")->elements())
      if (ev.find("kind")->as_string() == "aot_compile" && ev.find("a")->as_integer() == 1234)
        found = true;
  EXPECT_TRUE(found);
  flight.clear();
}

TEST(Flight, DumpJsonCountsDroppedEventsPerThread) {
  auto& flight = global_flight();
  flight.clear();
  const long long total = static_cast<long long>(FlightRecorder::kRingCapacity) + 9;
  for (long long i = 0; i < total; ++i) flight.record(FlightKind::Step, 30, 40);
  const auto doc = flight_dump_json(16);
  bool found = false;
  for (const auto& th : doc.find("threads")->elements()) {
    const auto recorded = th.find("recorded")->as_integer();
    const auto events = static_cast<long long>(th.find("events")->elements().size());
    EXPECT_EQ(th.find("dropped")->as_integer(), recorded - events);
    if (recorded == total) {
      found = true;
      EXPECT_TRUE(th.find("live")->as_bool());  // this very thread owns the ring
      EXPECT_EQ(events, 16);
    }
  }
  EXPECT_TRUE(found);
  flight.clear();
}

TEST(Flight, ChaosCrashReportCarriesFlightDump) {
  using namespace msc::resilience;
  global_flight().clear();
  ChaosScenario sc;
  sc.workload = "3d7pt_star";
  sc.nranks = 2;
  sc.kind = FaultKind::Crash;
  sc.seed = 1;
  const ChaosResult res = run_chaos_scenario(sc);
  EXPECT_TRUE(res.ok) << res.note;

  // The dump is captured at the first crash and rides into the report.
  ASSERT_TRUE(res.flight_dump.is_object()) << "crash scenario must capture a flight dump";
  EXPECT_EQ(res.flight_dump.find("schema")->as_string(), "msc-flight-v1");
  bool crash_event = false;
  for (const auto& th : res.flight_dump.find("threads")->elements())
    for (const auto& ev : th.find("events")->elements())
      if (ev.find("kind")->as_string() == "crash") crash_event = true;
  EXPECT_TRUE(crash_event) << "the dump must include the crash instant itself";

  const auto doc = chaos_report({res});
  const auto& scenario = doc.find("scenarios")->elements().at(0);
  const auto* flight = scenario.find("flight");
  ASSERT_TRUE(flight != nullptr) << "msc-chaos-v1 crash entries must attach the dump";
  EXPECT_EQ(flight->find("schema")->as_string(), "msc-flight-v1");
  global_flight().clear();
}

}  // namespace
}  // namespace msc::prof
