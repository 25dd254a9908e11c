// Tests of the profiling layer (src/prof): counter registry semantics and
// thread-safety, the chrome://tracing document derived from a flight drain,
// the BenchReport schema — and the workload::Json parser those last two
// lean on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/log.hpp"
#include "prof/timeline.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "workload/report.hpp"

namespace msc::prof {
namespace {

using workload::Json;

// ---- counters -----------------------------------------------------------

TEST(Counters, MonotonicAddAndValue) {
  CounterRegistry reg;
  auto& c = reg.counter("test.bytes");
  EXPECT_EQ(c.value(), 0);
  c.add(100);
  c.add(28);
  EXPECT_EQ(c.value(), 128);
  EXPECT_EQ(reg.value("test.bytes"), 128);
  EXPECT_EQ(reg.value("never.touched"), 0);
}

TEST(Counters, GaugeFoldsWithMax) {
  CounterRegistry reg;
  auto& g = reg.gauge("test.high_water");
  g.record_max(500);
  g.record_max(200);  // lower sample: no effect
  EXPECT_EQ(g.value(), 500);
  g.record_max(700);
  EXPECT_EQ(g.value(), 700);
}

TEST(Counters, KindMismatchThrows) {
  CounterRegistry reg;
  reg.counter("test.mono");
  reg.gauge("test.gauge");
  EXPECT_THROW(reg.gauge("test.mono"), Error);
  EXPECT_THROW(reg.counter("test.gauge"), Error);
  // Same-kind re-lookup returns the same counter.
  EXPECT_EQ(&reg.counter("test.mono"), &reg.counter("test.mono"));
}

TEST(Counters, KindMisuseOnIncrementThrows) {
  // add() on a gauge would silently turn a high-water mark into a sum (and
  // record_max() on a monotonic would drop increments), so both throw.
  CounterRegistry reg;
  auto& mono = reg.counter("test.mono2");
  auto& g = reg.gauge("test.gauge2");
  EXPECT_THROW(g.add(1), Error);
  EXPECT_THROW(mono.record_max(5), Error);
  // The misuse left the values untouched and the right verbs still work.
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(mono.value(), 0);
  mono.add(3);
  g.record_max(9);
  EXPECT_EQ(mono.value(), 3);
  EXPECT_EQ(g.value(), 9);
}

TEST(Counters, ResetZeroesButKeepsReferencesValid) {
  CounterRegistry reg;
  auto& c = reg.counter("test.count");
  c.add(42);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  c.add(7);  // the cached reference still works after reset
  EXPECT_EQ(reg.value("test.count"), 7);
}

TEST(Counters, SnapshotIsSortedByName) {
  CounterRegistry reg;
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  reg.gauge("m.middle").record_max(2);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "a.first");
  EXPECT_EQ(snap[1].first, "m.middle");
  EXPECT_EQ(snap[2].first, "z.last");
  EXPECT_EQ(snap[2].second, 3);
}

TEST(Counters, ConcurrentAddsFromThreadPoolLoseNothing) {
  CounterRegistry reg;
  auto& c = reg.counter("test.concurrent");
  auto& g = reg.gauge("test.concurrent_max");
  ThreadPool pool(4);
  pool.parallel_tasks(64, [&](std::int64_t idx) {
    for (int n = 0; n < 1000; ++n) c.add(1);
    g.record_max(idx);
  });
  EXPECT_EQ(c.value(), 64 * 1000);
  EXPECT_EQ(g.value(), 63);
}

TEST(Counters, GlobalShorthandsHitTheGlobalRegistry) {
  global_counters().reset();
  counter("test.global").add(5);
  gauge("test.global_gauge").record_max(9);
  EXPECT_EQ(global_counters().value("test.global"), 5);
  EXPECT_EQ(global_counters().value("test.global_gauge"), 9);
  global_counters().reset();
}

// ---- chrome://tracing from a flight drain --------------------------------

/// The thread_name metadata event of ring `tid`, or nullptr.
const Json* ring_meta(const Json& doc, long long tid) {
  for (const auto& e : doc.find("traceEvents")->elements())
    if (e.find("ph")->as_string() == "M" && e.find("name")->as_string() == "thread_name" &&
        e.find("tid")->as_integer() == tid)
      return &e;
  return nullptr;
}

TEST(ChromeTrace, DrainIsWellFormedJson) {
  FlightRecorder rec;
  rec.record(FlightKind::AotCompile, 1'000, 3'000, 4096);
  rec.record(FlightKind::RankPhase, 2'000, 2'500, 1, static_cast<std::int64_t>(Phase::Wait));
  const std::vector<PhaseSpan> simulated = {{0, Phase::Dma, 0.0, 0.5}};

  // The dump must parse back: that is exactly what chrome://tracing does.
  const Json doc = Json::parse(chrome_trace_json(rec.drain(), simulated).dump());
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::vector<const Json*> complete;
  for (const auto& e : events->elements()) {
    ASSERT_NE(e.find("pid"), nullptr);
    if (e.find("ph")->as_string() == "X") complete.push_back(&e);
  }
  ASSERT_EQ(complete.size(), 3u);

  const Json& compile = *complete[0];
  EXPECT_EQ(compile.find("name")->as_string(), "aot_compile");
  EXPECT_DOUBLE_EQ(compile.find("ts")->as_number(), 0.0);  // earliest event is the origin
  EXPECT_DOUBLE_EQ(compile.find("dur")->as_number(), 2.0);  // microseconds
  EXPECT_EQ(compile.find("pid")->as_integer(), 0);
  EXPECT_EQ(compile.find("args")->find("a")->as_integer(), 4096);

  const Json& wait = *complete[1];
  EXPECT_EQ(wait.find("name")->as_string(), "wait");  // rank phases are named by phase
  EXPECT_EQ(wait.find("cat")->as_string(), "comm");
  EXPECT_DOUBLE_EQ(wait.find("ts")->as_number(), 1.0);
  EXPECT_EQ(wait.find("args")->find("rank")->as_integer(), 1);

  const Json& dma = *complete[2];  // simulated spans live on their own pid
  EXPECT_EQ(dma.find("name")->as_string(), "dma");
  EXPECT_EQ(dma.find("pid")->as_integer(), 1);
  EXPECT_DOUBLE_EQ(dma.find("dur")->as_number(), 0.5e6);

  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  EXPECT_EQ(doc.find("otherData")->find("dropped_events")->as_integer(), 0);
}

TEST(ChromeTrace, WrappedRingReportsItsDroppedEvents) {
  FlightRecorder rec;
  const std::uint64_t total = FlightRecorder::kRingCapacity + 5;
  for (std::uint64_t i = 0; i < total; ++i) rec.record(FlightKind::Step, i, i + 1);
  const auto dumps = rec.drain();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].dropped(), 5u);
  EXPECT_EQ(dropped_events(dumps), 5u);

  const Json doc = Json::parse(chrome_trace_json(dumps).dump());
  EXPECT_EQ(doc.find("otherData")->find("dropped_events")->as_integer(), 5);
  const Json* meta = ring_meta(doc, dumps[0].tid);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("args")->find("recorded")->as_integer(), static_cast<long long>(total));
  EXPECT_EQ(meta->find("args")->find("dropped")->as_integer(), 5);
}

TEST(ChromeTrace, ThreadIdsAreSmallAndStable) {
  FlightRecorder rec;
  const auto tids_of_a_fresh_pool = [&] {
    ThreadPool pool(3);
    pool.parallel_tasks(12, [&](std::int64_t) { rec.record(FlightKind::RowChunk, 0, 1); });
    std::set<long long> tids;
    const Json doc = Json::parse(chrome_trace_json(rec.drain()).dump());
    for (const auto& e : doc.find("traceEvents")->elements())
      if (e.find("ph")->as_string() == "X") tids.insert(e.find("tid")->as_integer());
    return tids;
  };
  const auto first = tids_of_a_fresh_pool();
  ASSERT_FALSE(first.empty());
  for (const long long tid : first) {
    EXPECT_GE(tid, 0);
    EXPECT_LT(tid, 3);  // first-seen small integers, one per worker
  }
  // A second pool's threads adopt the rings the first pool's threads
  // released: no new tids, no new rings.
  const auto second = tids_of_a_fresh_pool();
  for (const long long tid : second) EXPECT_LT(tid, 3);
  EXPECT_LE(rec.drain().size(), 3u);
  EXPECT_EQ(rec.total_recorded(), 24u);
}

// ---- bench report -------------------------------------------------------

TEST(BenchReportTest, JsonSchemaRoundTrips) {
  global_counters().reset();
  counter("test.report.bytes").add(4096);
  gauge("test.report.peak").record_max(1 << 20);

  BenchReport report("unit", "3d7pt_star");
  report.set_config("grid", "32x32x32");
  report.set_config("steps", 4LL);
  report.capture_global_counters();
  Json row = Json::object();
  row["seconds"] = Json::number(0.125);
  row["label"] = Json::string("first");
  report.add_result(std::move(row));
  report.set_wall_seconds(1.5);

  const Json doc = Json::parse(report.to_json().dump());
  EXPECT_EQ(doc.find("schema")->as_string(), "msc-bench-v1");
  EXPECT_EQ(doc.find("name")->as_string(), "unit");
  EXPECT_EQ(doc.find("workload")->as_string(), "3d7pt_star");
  EXPECT_EQ(doc.find("config")->find("grid")->as_string(), "32x32x32");
  EXPECT_EQ(doc.find("config")->find("steps")->as_string(), "4");
  EXPECT_EQ(doc.find("counters")->find("test.report.bytes")->as_integer(), 4096);
  EXPECT_EQ(doc.find("counters")->find("test.report.peak")->as_integer(), 1 << 20);
  const Json* results = doc.find("results");
  ASSERT_TRUE(results->is_array());
  ASSERT_EQ(results->elements().size(), 1u);
  EXPECT_DOUBLE_EQ(results->elements()[0].find("seconds")->as_number(), 0.125);
  EXPECT_DOUBLE_EQ(doc.find("wall_seconds")->as_number(), 1.5);
  global_counters().reset();
}

TEST(BenchReportTest, DirHonorsEnvironment) {
  // Unset, bench_report_dir falls back to the compiled-in repo root (so
  // reports and the bench-history ledger land somewhere stable).
  const char* old = std::getenv("MSC_BENCH_DIR");
  const std::string saved = old ? old : "";
  ::unsetenv("MSC_BENCH_DIR");
#ifdef MSC_BENCH_DEFAULT_DIR
  EXPECT_EQ(bench_report_dir(), MSC_BENCH_DEFAULT_DIR);
#else
  EXPECT_EQ(bench_report_dir(), ".");
#endif
  ::setenv("MSC_BENCH_DIR", "/tmp/msc_bench_test", 1);
  EXPECT_EQ(bench_report_dir(), "/tmp/msc_bench_test");
  if (old)
    ::setenv("MSC_BENCH_DIR", saved.c_str(), 1);
  else
    ::unsetenv("MSC_BENCH_DIR");
}

// ---- structured logger --------------------------------------------------

/// Captures finished log lines for the duration of a test.
class LogCapture {
 public:
  explicit LogCapture(LogLevel level) {
    global_log().set_capture([this](const std::string& line) { lines_.push_back(line); });
    global_log().set_level(level);
  }
  ~LogCapture() {
    global_log().set_level(LogLevel::Off);
    global_log().set_capture(nullptr);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

TEST(Log, LevelNamesRoundTrip) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("TRACE"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("3"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("garbage"), LogLevel::Off);
  EXPECT_STREQ(log_level_name(LogLevel::Warn), "warn");
  EXPECT_STREQ(log_level_name(LogLevel::Off), "off");
}

TEST(Log, EventsBelowTheLevelAreDropped) {
  LogCapture cap(LogLevel::Info);
  LogEvent(LogLevel::Error, "test", "kept-error");
  LogEvent(LogLevel::Info, "test", "kept-info");
  LogEvent(LogLevel::Debug, "test", "dropped");
  LogEvent(LogLevel::Trace, "test", "dropped too");
  ASSERT_EQ(cap.lines().size(), 2u);
  EXPECT_NE(cap.lines()[0].find("kept-error"), std::string::npos);
  EXPECT_NE(cap.lines()[1].find("kept-info"), std::string::npos);
}

TEST(Log, LinesAreSingleLineParseableJson) {
  LogCapture cap(LogLevel::Debug);
  LogEvent(LogLevel::Debug, "tune.sample", "candidate \"quoted\"")
      .num("predicted", 0.25)
      .integer("sample", 7)
      .str("action", "accept")
      .boolean("improved", true);
  ASSERT_EQ(cap.lines().size(), 1u);
  const std::string& line = cap.lines()[0];
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const Json doc = Json::parse(line);
  EXPECT_EQ(doc.find("lvl")->as_string(), "debug");
  EXPECT_EQ(doc.find("comp")->as_string(), "tune.sample");
  EXPECT_EQ(doc.find("msg")->as_string(), "candidate \"quoted\"");
  EXPECT_GE(doc.find("seq")->as_integer(), 0);
  EXPECT_DOUBLE_EQ(doc.find("predicted")->as_number(), 0.25);
  EXPECT_EQ(doc.find("sample")->as_integer(), 7);
  EXPECT_EQ(doc.find("action")->as_string(), "accept");
  EXPECT_TRUE(doc.find("improved")->as_bool());
}

TEST(Log, SequenceNumbersIncreaseAcrossEvents) {
  LogCapture cap(LogLevel::Info);
  LogEvent(LogLevel::Info, "test", "a");
  LogEvent(LogLevel::Info, "test", "b");
  ASSERT_EQ(cap.lines().size(), 2u);
  const auto s0 = Json::parse(cap.lines()[0]).find("seq")->as_integer();
  const auto s1 = Json::parse(cap.lines()[1]).find("seq")->as_integer();
  EXPECT_LT(s0, s1);
}

TEST(Log, ConcurrentWritersProduceWholeLines) {
  LogCapture cap(LogLevel::Info);
  ThreadPool pool(4);
  pool.parallel_tasks(64, [&](std::int64_t idx) {
    LogEvent(LogLevel::Info, "test.mt", "worker").integer("task", idx);
  });
  ASSERT_EQ(cap.lines().size(), 64u);
  for (const auto& line : cap.lines()) {
    const Json doc = Json::parse(line);  // each captured line is intact JSON
    EXPECT_EQ(doc.find("comp")->as_string(), "test.mt");
  }
}

// ---- Json parser --------------------------------------------------------

TEST(JsonParse, DumpCompactIsSingleLineAndRoundTrips) {
  Json j = Json::object();
  j["name"] = Json::string("x");
  Json arr = Json::array();
  arr.push_back(Json::integer(1));
  arr.push_back(Json::number(2.5));
  arr.push_back(Json::boolean(false));
  j["vals"] = std::move(arr);
  j["nested"] = Json::object();
  j["nested"]["deep"] = Json::string("line\nbreak");
  const std::string compact = j.dump_compact();
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  const Json back = Json::parse(compact);
  EXPECT_EQ(back.find("name")->as_string(), "x");
  EXPECT_EQ(back.find("vals")->elements().size(), 3u);
  EXPECT_DOUBLE_EQ(back.find("vals")->elements()[1].as_number(), 2.5);
  EXPECT_EQ(back.find("nested")->find("deep")->as_string(), "line\nbreak");
}


TEST(JsonParse, ScalarsAndStructure) {
  const Json doc = Json::parse(
      R"({"a": 1, "b": -2.5, "c": true, "d": false, "e": null,
          "f": "text", "g": [1, 2, 3], "h": {"nested": "yes"}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("a")->as_integer(), 1);
  EXPECT_DOUBLE_EQ(doc.find("b")->as_number(), -2.5);
  EXPECT_TRUE(doc.find("c")->as_bool());
  EXPECT_FALSE(doc.find("d")->as_bool());
  EXPECT_TRUE(doc.find("e")->is_null());
  EXPECT_EQ(doc.find("f")->as_string(), "text");
  ASSERT_EQ(doc.find("g")->elements().size(), 3u);
  EXPECT_EQ(doc.find("g")->elements()[2].as_integer(), 3);
  EXPECT_EQ(doc.find("h")->find("nested")->as_string(), "yes");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, EscapesRoundTripThroughDump) {
  Json j = Json::object();
  j["tricky"] = Json::string("line\none \"two\"\ttab\\slash \x1f");
  j["unicode"] = Json::string("\xE2\x82\xAC euro");  // UTF-8 passthrough
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.find("tricky")->as_string(), j.find("tricky")->as_string());
  EXPECT_EQ(back.find("unicode")->as_string(), j.find("unicode")->as_string());
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8) {
  // Escapes spelled with explicit backslashes so the parser, not the C++
  // compiler, decodes them.
  const std::string text =
      "{\"euro\": \"\\u20AC\", \"a\": \"\\u0041\", \"nul\": \"\\u001f\"}";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.find("euro")->as_string(), "\xE2\x82\xAC");
  EXPECT_EQ(doc.find("a")->as_string(), "A");
  EXPECT_EQ(doc.find("nul")->as_string(), "\x1f");
}

TEST(JsonParse, IntegersStayExact) {
  const Json doc = Json::parse(R"({"big": 9007199254740993, "neg": -42})");
  EXPECT_EQ(doc.find("big")->as_integer(), 9007199254740993LL);  // > 2^53
  EXPECT_EQ(doc.find("neg")->as_integer(), -42);
  EXPECT_TRUE(doc.find("big")->is_number());
}

TEST(JsonParse, MalformedInputThrows) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1, 2,]"), Error);
  EXPECT_THROW(Json::parse(R"({"a": 1} trailing)"), Error);
  EXPECT_THROW(Json::parse(R"({"unterminated)"), Error);
  EXPECT_THROW(Json::parse("{'single': 1}"), Error);
  EXPECT_THROW(Json::parse("nulL"), Error);
}

}  // namespace
}  // namespace msc::prof
