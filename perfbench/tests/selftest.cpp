// Tests of the benchmark's own code: statistics, span arithmetic, state
// digests, failure accounting, seeded generation, and replay equivalence
// of every workload at a tiny size.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "runner.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "ir/tensor.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(min_samples_for_tail(0.9), 100u);
  EXPECT_EQ(min_samples_for_tail(0.99), 1000u);
  EXPECT_FALSE(tail_percentile(ramp(99), 0.9).has_value());
  const auto p90 = tail_percentile(ramp(100), 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(*p90, 90.0);  // ten samples (91..100) lie beyond it
  EXPECT_EQ(*tail_percentile(ramp(250), 0.9), 225.0);
  EXPECT_DOUBLE_EQ(median(ramp(4)), 2.5);
}

TEST(TailPercentile, WindowsAreConsecutiveAndWhole) {
  // 250 samples: windows 250..151 and 150..51; the last 50 are dropped.
  const auto w = window_percentiles(ramp(250), 0.9);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 240.0);  // 241..250 lie beyond it
  EXPECT_EQ(w[1], 140.0);
  EXPECT_TRUE(window_percentiles(ramp(99), 0.9).empty());
  EXPECT_EQ(quantile(w, 0.25), 140.0);
  EXPECT_EQ(quantile(ramp(8), 0.25), 2.0);
  EXPECT_EQ(quantile({}, 0.25), 0.0);
}

/// root [0,10] > a [1,4] > a1 [2,3]; root > b [3.5,6] on another lane;
/// root > c [9,12] runs past its parent's end.
std::vector<Span> nested() {
  return {{"sample:call", 0, 10, -1, 0, 0},   {"exec.kernel:a", 1, 4, 0, 0, 0},
          {"exec.lower:a1", 2, 3, 1, 0, 0},   {"bench:b", 3.5, 6, 0, 1, 0},
          {"exec.boundary:c", 9, 12, 0, 0, 0}};
}

TEST(Spans, SelfTimeSubtractsTheUnionOfNestedChildren) {
  const auto self = self_times(nested());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (6.0 - 1.0) - (10.0 - 9.0));  // a and b overlap
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 2.5);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
}

TEST(Spans, CoverageCountsLayersAgainstStructuralSelfTime) {
  const auto spans = nested();
  const Coverage c = trace_coverage(spans, self_times(spans));
  EXPECT_DOUBLE_EQ(c.layer_s, 2.0 + 1.0 + 3.0);
  EXPECT_DOUBLE_EQ(c.uncovered_s, 4.0);  // the harness span counts on neither side
  EXPECT_DOUBLE_EQ(c.ratio(), 6.0 / 10.0);

  const auto rows = layer_table(spans, self_times(spans));
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().layer, "sample");
}

TEST(Spans, RecorderNestsScopedSpansPerThread) {
  SpanRecorder rec("t");
  rec.begin_sample();
  {
    ScopedSpan outer(&rec, "sample:call");
    ScopedSpan inner(&rec, "exec.kernel:x");
    EXPECT_EQ(current_span(), inner.id());
  }
  EXPECT_EQ(current_span(), -1);
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].sample, 0);
  EXPECT_NE(chrome_trace_json(spans, "t").find("\"ph\":\"X\""), std::string::npos);
}

TEST(Digest, ReplayEquivalenceCheckFailsOnAPerturbedGrid) {
  const auto tensor = msc::ir::make_sp_tensor("B", msc::ir::DataType::f64, {6, 7}, 1, 3);
  msc::exec::GridStorage<double> a(tensor);
  for (int s = 0; s < a.slots(); ++s) a.fill_random(s, 11 + s);
  auto b = a;
  EXPECT_EQ(digest_grid(a, 5), digest_grid(b, 5));
  double& v = b.at(b.slot_for_time(4), {3, 2, 0});
  v = std::nextafter(v, 2.0);  // one ulp in the middle level
  EXPECT_FALSE(digest_grid(a, 5) == digest_grid(b, 5));
}

/// Deterministic stand-in whose final state is whatever the test says.
class FakeWorkload final : public Workload {
 public:
  explicit FakeWorkload(StateDigest d) : d_(std::move(d)) {}
  bool setup(SpanRecorder*) override { return true; }
  bool call(SpanRecorder*) override { return true; }
  StateDigest digest() const override { return d_; }
  void teardown() override {}
  StateDigest reference_digest(std::int64_t) override { return d_; }
  int steps_per_call() const override { return 1; }
  int calls_per_episode() const override { return 4; }
  std::int64_t points_per_step() const override { return 100; }
  int kernel_threads() const override { return 1; }
  std::int64_t flops_per_point() const override { return 2; }
  double bytes_per_point() const override { return 16; }
  std::map<std::string, double> replay_counts() const override { return {}; }

 private:
  StateDigest d_;
};

TEST(Accounting, MismatchedFinalStateFailsEverySampleOfTheEpisode) {
  FakeWorkload w(StateDigest{{1, 2}});
  EpisodeScratch scratch(::testing::TempDir() + "perfbench_fake");
  PhaseLimits lim;
  lim.seconds = 0.0;
  auto good = run_phase(w, nullptr, lim, scratch);
  auto bad = good;
  check_episodes(good, StateDigest{{1, 2}});
  check_episodes(bad, StateDigest{{1, 3}});
  EXPECT_EQ(tally(good).failed, 0);
  EXPECT_EQ(tally(good).attempted, 4);
  EXPECT_EQ(tally(bad).failed, 4);
  EXPECT_DOUBLE_EQ(tally(bad).error_rate(), 1.0);
}

TEST(Accounting, AotFallbackCountsAsAFailedSample) {
  // Runs in a fresh process: without a C compiler on PATH the AOT backend
  // falls back to the sweep engine, which is bit-identical, so only the
  // fallback itself can make the sample fail.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("PATH", "/nonexistent", 1);
        auto w = make_workload("aot_box2d121", 3, Scale::Test);
        EpisodeScratch scratch(::testing::TempDir() + "perfbench_fallback");
        auto eps = run_phase(*w, nullptr, PhaseLimits{0.0, 0, 1.0}, scratch);
        const auto ref = w->reference_digest(w->calls_per_episode() * w->steps_per_call());
        const bool same_state = eps.front().digest == ref;
        check_episodes(eps, ref);
        std::exit(same_state && tally(eps).failed == tally(eps).attempted &&
                          tally(eps).error_rate() > 0.0
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Seeds, SeedDeterminesSpecAndStateSeed) {
  for (const auto& name : workload_names()) {
    const auto a = make_inputs(name, 7), b = make_inputs(name, 7), c = make_inputs(name, 8);
    EXPECT_EQ(a.spec, b.spec) << name;
    EXPECT_EQ(a.state_seed, b.state_seed) << name;
    EXPECT_NE(a.spec, c.spec) << name;
    EXPECT_NE(a.state_seed, c.state_seed) << name;
  }
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, UntracedAndReplayEndBitIdenticalToTheReference) {
  auto w = make_workload(GetParam(), 5, Scale::Test);
  EpisodeScratch scratch(::testing::TempDir() + "perfbench_" + GetParam());
  PhaseLimits lim;
  lim.seconds = 0.0;
  auto untraced = run_phase(*w, nullptr, lim, scratch);
  SpanRecorder rec(GetParam());
  auto replay = run_phase(*w, &rec, lim, scratch);
  ASSERT_TRUE(untraced.front().finished) << untraced.front().error;
  ASSERT_TRUE(replay.front().finished) << replay.front().error;
  EXPECT_EQ(untraced.front().digest, replay.front().digest);

  const auto ref = w->reference_digest(w->calls_per_episode() * w->steps_per_call());
  check_episodes(untraced, ref);
  check_episodes(replay, ref);
  EXPECT_EQ(tally(untraced).failed, 0);
  EXPECT_EQ(tally(replay).failed, 0);

  const auto spans = rec.spans();
  EXPECT_GT(trace_coverage(spans, self_times(spans)).ratio(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Perfbench, EveryWorkload, ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace perfbench
