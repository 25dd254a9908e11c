// Bench-history ledger tests: flattening msc-bench-v1 reports, the jsonl
// append/load round trip, config-hash scoping, direction heuristics, and the
// noise-aware regression gate msc-bench-diff drives in CI.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "prof/bench_report.hpp"
#include "prof/history.hpp"
#include "support/error.hpp"
#include "workload/report.hpp"

namespace msc::prof {
namespace {

using workload::Json;

Json make_report(double seconds, double gflops, const std::string& grid = "32x32x32") {
  Json doc = Json::object();
  doc["schema"] = Json::string("msc-bench-v1");
  doc["name"] = Json::string("unit_hist");
  doc["workload"] = Json::string("3d7pt_star");
  doc["config"] = Json::object();
  doc["config"]["grid"] = Json::string(grid);
  doc["config"]["steps"] = Json::string("4");
  Json row = Json::object();
  row["benchmark"] = Json::string("3d7pt_star");
  row["elapsed_seconds"] = Json::number(seconds);
  row["gflops"] = Json::number(gflops);
  row["note"] = Json::string("not a metric");
  Json& results = doc["results"];
  results = Json::array();
  results.push_back(std::move(row));
  doc["wall_seconds"] = Json::number(0.5);
  return doc;
}

TEST(History, FlattenExtractsNumericMetricsWithRowLabels) {
  const auto entry = flatten_bench_report(make_report(0.125, 40.0));
  EXPECT_EQ(entry.name, "unit_hist");
  EXPECT_EQ(entry.workload, "3d7pt_star");
  EXPECT_FALSE(entry.config_hash.empty());
  EXPECT_DOUBLE_EQ(entry.wall_seconds, 0.5);
  ASSERT_EQ(entry.metrics.size(), 2u);  // the string member is not a metric
  EXPECT_EQ(entry.metrics[0].first, "3d7pt_star.elapsed_seconds");
  EXPECT_DOUBLE_EQ(entry.metrics[0].second, 0.125);
  EXPECT_EQ(entry.metrics[1].first, "3d7pt_star.gflops");
}

TEST(History, RowsSharingABenchmarkKeepTheirBackends) {
  // Three engines of one benchmark (bench_attribution's sweep, temporal
  // and AOT rows) must flatten to three metric sets, not collapse into one.
  Json doc = make_report(0.125, 40.0);
  Json& results = doc["results"];
  results = Json::array();
  for (const char* backend : {"sweep", "temporal", "aot"}) {
    Json row = Json::object();
    row["benchmark"] = Json::string("3d7pt_star");
    row["backend"] = Json::string(backend);
    row["wall_s"] = Json::number(0.5);
    results.push_back(std::move(row));
  }
  Json overhead = Json::object();  // no backend: the label stays the benchmark
  overhead["benchmark"] = Json::string("3d7pt_star");
  overhead["recorder_efficiency"] = Json::number(0.99);
  results.push_back(std::move(overhead));

  const auto entry = flatten_bench_report(doc);
  std::vector<std::string> keys;
  for (const auto& [key, value] : entry.metrics) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"3d7pt_star.sweep.wall_s",
                                            "3d7pt_star.temporal.wall_s",
                                            "3d7pt_star.aot.wall_s",
                                            "3d7pt_star.recorder_efficiency"}));
  const auto back = parse_history_entry(Json::parse(history_entry_json(entry).dump_compact()));
  EXPECT_EQ(back.metrics.size(), 4u);  // every row survives the ledger round trip
}

TEST(History, FlattenRejectsWrongSchema) {
  Json doc = Json::object();
  doc["schema"] = Json::string("something-else");
  EXPECT_THROW(flatten_bench_report(doc), Error);
  EXPECT_THROW(flatten_bench_report(Json::object()), Error);
}

TEST(History, ConfigHashSeparatesConfigurations) {
  const auto a = config_hash(make_report(0.1, 40.0, "32x32x32"));
  const auto b = config_hash(make_report(0.2, 20.0, "32x32x32"));
  const auto c = config_hash(make_report(0.1, 40.0, "64x64x64"));
  EXPECT_EQ(a, b);  // results don't affect the hash, only name/workload/config
  EXPECT_NE(a, c);
}

TEST(History, EntryJsonRoundTrips) {
  const auto entry = flatten_bench_report(make_report(0.25, 10.0));
  const auto back = parse_history_entry(Json::parse(history_entry_json(entry).dump_compact()));
  EXPECT_EQ(back.name, entry.name);
  EXPECT_EQ(back.workload, entry.workload);
  EXPECT_EQ(back.config_hash, entry.config_hash);
  EXPECT_DOUBLE_EQ(back.wall_seconds, entry.wall_seconds);
  ASSERT_EQ(back.metrics.size(), entry.metrics.size());
  for (std::size_t i = 0; i < entry.metrics.size(); ++i) {
    EXPECT_EQ(back.metrics[i].first, entry.metrics[i].first);
    EXPECT_DOUBLE_EQ(back.metrics[i].second, entry.metrics[i].second);
  }
}

TEST(History, AppendAndLoadLedger) {
  const std::string dir = ::testing::TempDir() + "msc_history_test";
  const auto e1 = flatten_bench_report(make_report(0.10, 40.0));
  const auto e2 = flatten_bench_report(make_report(0.11, 38.0));
  append_history(dir, e1);  // creates the directory
  append_history(dir, e2);
  const auto loaded = load_history(history_path(dir, "unit_hist"));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0].metrics[0].second, 0.10);
  EXPECT_DOUBLE_EQ(loaded[1].metrics[0].second, 0.11);
  std::remove(history_path(dir, "unit_hist").c_str());
}

TEST(History, MissingLedgerLoadsEmpty) {
  EXPECT_TRUE(load_history("/nonexistent/path/nothing.jsonl").empty());
}

TEST(History, DirectionHeuristics) {
  EXPECT_EQ(metric_direction("x.elapsed_seconds"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("x.dma_bytes"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("x.messages_per_rank"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("x.gflops"), MetricDirection::HigherIsBetter);
  EXPECT_EQ(metric_direction("x.gain"), MetricDirection::HigherIsBetter);
  EXPECT_EQ(metric_direction("x.overlap_efficiency"), MetricDirection::HigherIsBetter);
  EXPECT_EQ(metric_direction("x.tiles"), MetricDirection::Informational);
}

// ---- the regression gate ------------------------------------------------

std::vector<HistoryEntry> synthetic_history(const std::vector<double>& seconds) {
  std::vector<HistoryEntry> history;
  for (double s : seconds) history.push_back(flatten_bench_report(make_report(s, 4.0 / s)));
  return history;
}

TEST(HistoryDiff, TwoTimesSlowdownRegresses) {
  const auto history = synthetic_history({0.100, 0.101, 0.099, 0.1005, 0.0995});
  const auto fresh = flatten_bench_report(make_report(0.200, 20.0));
  const auto report = diff_against_history(history, fresh);
  EXPECT_TRUE(report.regressed);
  EXPECT_EQ(report.baseline_runs, 5);
  // Both the slower time (lower-is-better) and the halved gflops
  // (higher-is-better) must trip.
  int tripped = 0;
  for (const auto& d : report.deltas)
    if (d.regressed) ++tripped;
  EXPECT_EQ(tripped, 2);
}

TEST(HistoryDiff, WithinNoiseRerunPasses) {
  const auto history = synthetic_history({0.100, 0.101, 0.099, 0.1005, 0.0995});
  const auto fresh = flatten_bench_report(make_report(0.1008, 39.7));
  const auto report = diff_against_history(history, fresh);
  EXPECT_FALSE(report.regressed);
  for (const auto& d : report.deltas) EXPECT_FALSE(d.regressed);
}

TEST(HistoryDiff, NoisyHistoryWidensTheThreshold) {
  // Run-to-run noise of ~±20%: a +15% result is inside 3*MAD and must pass,
  // even though it exceeds the 5% floor.
  const auto history = synthetic_history({0.080, 0.120, 0.095, 0.115, 0.100});
  const auto fresh = flatten_bench_report(make_report(0.115, 34.8));
  const auto report = diff_against_history(history, fresh);
  EXPECT_FALSE(report.regressed);
  for (const auto& d : report.deltas) {
    if (d.key == "3d7pt_star.elapsed_seconds") {
      EXPECT_GT(d.threshold, 0.05);
    }
  }
}

TEST(HistoryDiff, OtherConfigurationsAreInvisible) {
  // History holds only a different grid: the fresh run has no baseline.
  std::vector<HistoryEntry> history;
  for (double s : {0.1, 0.1, 0.1})
    history.push_back(flatten_bench_report(make_report(s, 40.0, "64x64x64")));
  const auto fresh = flatten_bench_report(make_report(0.9, 4.4, "32x32x32"));
  const auto report = diff_against_history(history, fresh);
  EXPECT_EQ(report.baseline_runs, 0);
  EXPECT_FALSE(report.regressed);
  EXPECT_TRUE(report.deltas.empty());
  EXPECT_EQ(report.new_metrics.size(), 2u);  // every metric is baseline-seeding
}

TEST(HistoryDiff, BaselineUsesOnlyTheLastK) {
  // Ancient slow runs must not mask a regression against the recent window.
  std::vector<double> seconds = {0.50, 0.50, 0.50};           // old, slow
  for (int n = 0; n < 5; ++n) seconds.push_back(0.100);       // recent, fast
  const auto history = synthetic_history(seconds);
  const auto fresh = flatten_bench_report(make_report(0.200, 20.0));
  DiffOptions opts;
  opts.last_k = 5;
  const auto report = diff_against_history(history, fresh, opts);
  EXPECT_TRUE(report.regressed);
  for (const auto& d : report.deltas)
    if (d.key == "3d7pt_star.elapsed_seconds") {
      EXPECT_DOUBLE_EQ(d.baseline, 0.100);
      EXPECT_EQ(d.samples, 5);
    }
}

TEST(HistoryDiff, ImprovementIsNotARegression) {
  const auto history = synthetic_history({0.100, 0.101, 0.099, 0.1005, 0.0995});
  const auto fresh = flatten_bench_report(make_report(0.050, 80.0));  // 2x faster
  const auto report = diff_against_history(history, fresh);
  EXPECT_FALSE(report.regressed);
}

TEST(HistoryDiff, MarkdownTableCarriesTheVerdict) {
  const auto history = synthetic_history({0.100, 0.101, 0.099});
  const auto fresh = flatten_bench_report(make_report(0.300, 13.3));
  const auto report = diff_against_history(history, fresh);
  const std::string md = diff_markdown(fresh, report, {});
  EXPECT_NE(md.find("| metric |"), std::string::npos);
  EXPECT_NE(md.find("**REGRESSED**"), std::string::npos);
  EXPECT_NE(md.find("**verdict: REGRESSION**"), std::string::npos);

  const auto ok = diff_against_history(history, flatten_bench_report(make_report(0.100, 40.0)));
  EXPECT_NE(diff_markdown(flatten_bench_report(make_report(0.100, 40.0)), ok, {})
                .find("verdict: ok"),
            std::string::npos);
}

// A fresh run whose config no ledger row shares compared nothing; its
// verdict must differ from "verdict: ok" so a gate grepping for a pass
// cannot pass vacuously.
TEST(HistoryDiff, ZeroBaselineVerdictIsNotOk) {
  std::vector<HistoryEntry> history;
  for (double s : {0.1, 0.1, 0.1})
    history.push_back(flatten_bench_report(make_report(s, 40.0, "64x64x64")));
  const auto fresh = flatten_bench_report(make_report(0.1, 40.0, "32x32x32"));
  const auto report = diff_against_history(history, fresh);
  ASSERT_EQ(report.baseline_runs, 0);
  const std::string md = diff_markdown(fresh, report, {});
  EXPECT_EQ(md.find("verdict: ok"), std::string::npos) << md;
  EXPECT_NE(md.find("**verdict: no baseline**"), std::string::npos) << md;
}

// ---- end to end through a real BenchReport ------------------------------

TEST(History, RealBenchReportFlattens) {
  BenchReport report("hist_e2e", "2d5pt_star");
  report.set_config("grid", "64x64");
  Json row = Json::object();
  row["label"] = Json::string("overlapped");
  row["elapsed_seconds"] = Json::number(0.125);
  report.add_result(std::move(row));
  report.set_wall_seconds(1.0);
  const auto entry = flatten_bench_report(Json::parse(report.to_json().dump()));
  ASSERT_EQ(entry.metrics.size(), 1u);
  EXPECT_EQ(entry.metrics[0].first, "overlapped.elapsed_seconds");
}

}  // namespace
}  // namespace msc::prof
