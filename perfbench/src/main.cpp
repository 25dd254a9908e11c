// msc_e2e — the end-to-end benchmark of the MSC pipeline.
//
//   msc_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --scratch <dir> --out <dir> [--commit <id>]
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics.
// --trace 1 prints the per-layer metrics: it runs the workload untraced
// with the flight recorder on, again with it off, then replays the same
// steps through each layer's public functions with a span around every
// call, and writes a chrome://tracing span dump and a per-layer self-time
// table into --out.  Every run checks every episode's final state bit for
// bit against exec::run_reference.  The last line of stdout is the result
// as one JSON object.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "machine/probe.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "runner.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "msc_e2e: %s\nusage: msc_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir> --out <dir> [--commit <id>]\nworkloads:",
               why.c_str());
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--scratch") {
        a.scratch = val;
      } else if (key == "--out") {
        a.out = val;
      } else if (key == "--commit") {
        a.commit = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + val + "' for " + key);
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(), a.workload) ==
      workload_names().end())
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0 && a.seconds <= 60.0)) usage("--seconds must be in (0, 60]");
  if (a.scratch.empty() || a.out.empty()) usage("--scratch and --out are required");
  return a;
}

std::string llc_size() {
  const long bytes = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) return "unknown";
  return std::to_string(bytes >> 20) + "MiB";
}

void print_stamp(const Args& a) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::printf(
      "# stamp workload=%s seed=%llu nproc=%u llc=%s compiler=\"%s\" build=%s%s commit=%s\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      std::thread::hardware_concurrency(), llc_size().c_str(), PERFBENCH_COMPILER,
      build.c_str(), build == "Release" ? "" : " (NOT a ledger number: build is not Release)",
      a.commit.c_str());
}

/// Jiffies of all CPUs: (steal, total), from /proc/stat.
std::pair<double, double> cpu_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Prints the share of CPU time the hypervisor stole since `from`: a
/// shared host that steals cycles slows every workload, the ranked and
/// pooled ones most.
void print_steal(const std::pair<double, double>& from) {
  const auto to = cpu_steal();
  const double total = to.second - from.second;
  std::printf("# host cpu steal during the run: %.1f%%\n",
              total > 0.0 ? 100.0 * (to.first - from.first) / total : 0.0);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += t.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void append(std::vector<Episode>& all, const std::vector<Episode>& more) {
  all.insert(all.end(), more.begin(), more.end());
}

std::int64_t total_steps(const std::vector<Episode>& eps) {
  std::int64_t n = 0;
  for (const auto& e : eps) n += e.steps;
  return n;
}

/// The fewest step_s.p90 windows a run takes.
constexpr std::size_t kMinTailWindows = 3;

/// End-to-end run: episodes until --seconds and kMinTailWindows p90 windows
/// are both reached, then the reference check.
int run_untraced(const Args& a) {
  auto w = make_workload(a.workload, a.seed);
  EpisodeScratch scratch(a.scratch);
  // The process's first episode pays one-time costs (pool start-up, first
  // touch of code and fresh heap) that later episodes do not; it is checked
  // and counted for failures but not timed.
  auto warmup = run_phase(*w, nullptr, PhaseLimits{0.0, 0, 0.0}, scratch);
  const std::size_t window = min_samples_for_tail(0.9);
  PhaseLimits lim;
  lim.seconds = a.seconds;
  lim.min_calls = kMinTailWindows * window;
  const auto steal0 = cpu_steal();
  auto episodes = run_phase(*w, nullptr, lim, scratch);
  print_steal(steal0);

  const auto ref = w->reference_digest(w->calls_per_episode() * w->steps_per_call());
  check_episodes(warmup, ref);
  check_episodes(episodes, ref);
  std::vector<Episode> all = warmup;
  append(all, episodes);
  const Tally t = tally(all);

  // Peak RSS over a fixed number of episodes: on halo_star3d7_r4 each
  // episode's peak creeps up by 0.1-0.3 MiB, so a count that grows with the
  // run's length would make the metric depend on it.
  constexpr std::size_t kRssEpisodes = 3;
  std::vector<double> setups, rss;
  for (const auto& e : episodes) {
    setups.push_back(e.setup_s);
    if (rss.size() < kRssEpisodes) rss.push_back(e.peak_rss_mb);
  }
  // step_s.p90: the p90 of each window of 100 consecutive step samples (ten
  // beyond it), and of those the first quartile.  Hypervisor steal on a
  // shared host comes in bursts that lift every sample while they last, and
  // lifts lock-step ranks most; the pooled p90 of a run then reads how much
  // steal the run met.  The quartile reads the tail of the run's quieter
  // windows, which moves with the program's own tail.
  const auto steps = step_seconds(*w, episodes);
  const auto windows = window_percentiles(steps, 0.9);
  double p90 = quantile(windows, 0.25);
  if (windows.empty()) {
    std::printf("# step_s.p90: only %zu samples, fewer than %zu; reporting the maximum\n",
                steps.size(), window);
    p90 = steps.empty() ? 0.0 : *std::max_element(steps.begin(), steps.end());
  }
  std::printf("# %zu timed episodes after 1 untimed warm-up; %zu step samples; step_s.p90 is "
              "the first quartile of %zu window p90s of %zu samples (pooled p90 %.6g s); "
              "error_rate=%.6g\n",
              episodes.size(), steps.size(), windows.size(), window,
              tail_percentile(steps, 0.9).value_or(0.0), t.error_rate());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& e = all[i];
    std::printf("# episode %zu%s: setup %.6f s, median %.3f Mpt/s over %zu calls, "
                "peak rss %.1f MiB%s%s\n",
                i, i == 0 ? " (warm-up)" : "", e.setup_s, median_mpts(*w, {e}), e.call_s.size(),
                e.peak_rss_mb, e.error.empty() ? "" : ", error: ", e.error.c_str());
  }
  print_result(t, {{"setup_s", median(setups), "s"},
                   {"mpts_per_s", median_mpts(*w, episodes), "Mpt/s"},
                   {"step_s.p90", p90, "s"},
                   {"peak_rss_mb", median(rss), "MiB"}});
  return 0;
}

/// Index of each span's root span.
std::vector<int> roots_of(const std::vector<Span>& spans) {
  std::vector<int> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    root[i] = p < 0 ? static_cast<int>(i) : root[static_cast<std::size_t>(p)];
  }
  return root;
}

/// Per-layer run: episodes untraced with the flight recorder on, untraced
/// with it off, and traced replays, taken in rotation so drift in the host
/// affects the three alike.  Every episode is checked.
int run_traced(const Args& a) {
  auto w = make_workload(a.workload, a.seed);
  EpisodeScratch scratch(a.scratch);
  const auto& probe = msc::machine::probe_host();
  std::printf("# probe triad=%.3f GB/s fp64=%.3f GF/s threads=%d\n", probe.mem_bw_gbs,
              probe.peak_gflops_fp64, probe.threads);

  auto& counters = msc::prof::global_counters();
  const auto count = [&](const char* name) {
    return static_cast<double>(counters.value(name));
  };
  const double fallbacks0 = count("aot.fallback");
  double msgs = 0.0, bytes = 0.0, retries = 0.0;
  const PhaseLimits one{0.0, 0, 0.0};
  auto warmup = run_phase(*w, nullptr, one, scratch);  // untimed, as in run_untraced
  std::vector<Episode> flight_on, flight_off, replay;
  SpanRecorder rec(a.workload);
  const auto steal0 = cpu_steal();
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  do {
    const double m0 = count("comm.halo.messages"), b0 = count("comm.halo.bytes_sent");
    const double r0 = count("resilience.retries");
    append(flight_on, run_phase(*w, nullptr, one, scratch));
    msgs += count("comm.halo.messages") - m0;
    bytes += count("comm.halo.bytes_sent") - b0;
    retries += count("resilience.retries") - r0;

    msc::prof::global_flight().set_enabled(false);
    append(flight_off, run_phase(*w, nullptr, one, scratch));
    msc::prof::global_flight().set_enabled(true);

    append(replay, run_phase(*w, &rec, one, scratch));
  } while (elapsed() < a.seconds);
  print_steal(steal0);
  const double steps_on = static_cast<double>(total_steps(flight_on));
  const double fallbacks = count("aot.fallback") - fallbacks0;

  const auto ref = w->reference_digest(w->calls_per_episode() * w->steps_per_call());
  check_episodes(warmup, ref);
  check_episodes(flight_on, ref);
  check_episodes(flight_off, ref);
  check_episodes(replay, ref);
  std::vector<Episode> all = warmup;
  append(all, flight_on);
  append(all, flight_off);
  append(all, replay);
  const Tally t = tally(all);
  std::printf("# replay: %zu episodes, %s the untraced final state and exec::run_reference\n",
              replay.size(), tally(replay).failed == 0 ? "bit-identical to" : "DIFFERS from");
  for (const auto& e : all)
    if (!e.error.empty()) std::printf("# episode error: %s\n", e.error.c_str());

  const auto spans = rec.spans();
  const auto self = self_times(spans);
  const auto root = roots_of(spans);
  const double steps = static_cast<double>(total_steps(replay));
  const auto layer_self = [&](const std::function<bool(const Span&)>& pick) {
    double s = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (pick(spans[i])) s += self[i];
    return s;
  };
  const auto named = [](const char* n) {
    return [n](const Span& s) { return std::string(s.name) == n; };
  };
  const auto in_layer = [](const char* layer) {
    return [layer](const Span& s) { return span_layer(s.name) == layer; };
  };
  const auto durations = [&](const char* name, const char* root_name) {
    std::vector<double> v;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (std::string(spans[i].name) == name &&
          (root_name == nullptr ||
           std::string(spans[static_cast<std::size_t>(root[i])].name) == root_name))
        v.push_back(spans[i].end - spans[i].start);
    return v;
  };

  // Distinct threads a set of spans ran on: kernels run on the caller
  // (sweep, AOT) or on every simulated rank at once.
  const auto lanes_of = [&](const std::function<bool(const Span&)>& pick) {
    std::set<int> lanes;
    for (const auto& s : spans)
      if (pick(s)) lanes.insert(s.lane);
    return static_cast<int>(lanes.size());
  };
  const int kernel_lanes = lanes_of(in_layer("exec.kernel"));
  const double kernel_thread_s = layer_self(in_layer("exec.kernel"));
  const double flops = static_cast<double>(w->flops_per_point()) *
                       static_cast<double>(w->points_per_step()) * steps;
  const double kernel_wall = kernel_lanes > 0 ? kernel_thread_s / kernel_lanes : 0.0;
  const double gflops = kernel_wall > 0.0 ? flops / kernel_wall / 1e9 : 0.0;
  const double share = static_cast<double>(w->kernel_threads()) / std::max(1, probe.threads);
  const double intensity = static_cast<double>(w->flops_per_point()) / w->bytes_per_point();
  const double roof =
      std::min(probe.peak_gflops_fp64 * share, probe.mem_bw_gbs * share * intensity);

  const double rank_steps = steps * lanes_of([](const Span& s) { return s.lane > 0; });
  const auto per_rank_step = [&](double s) { return rank_steps > 0 ? s / rank_steps : 0.0; };
  std::vector<double> skew;
  {
    std::map<int, std::pair<double, double>> ends;  // parent -> (min end, max end)
    for (const auto& s : spans) {
      if (std::string(s.name) != "sample:rank_call") continue;
      auto [it, fresh] = ends.try_emplace(s.parent, s.end, s.end);
      if (!fresh) {
        it->second.first = std::min(it->second.first, s.end);
        it->second.second = std::max(it->second.second, s.end);
      }
    }
    for (const auto& [parent, mm] : ends) skew.push_back(mm.second - mm.first);
  }

  const double mpts_on = median_mpts(*w, flight_on);
  const double mpts_off = median_mpts(*w, flight_off);
  const double mpts_traced = median_mpts(*w, replay);
  const Coverage cov = trace_coverage(spans, self);
  const auto counts = w->replay_counts();
  const auto counted = [&](const char* n) {
    const auto it = counts.find(n);
    return it == counts.end() ? 0.0 : it->second;
  };

  const std::vector<Metric> metrics = {
      {"frontend.build_s", median(durations("frontend:build", nullptr)), "s"},
      {"dsl.input_s", median(durations("dsl:input", nullptr)), "s"},
      {"dsl.run_self_s", layer_self(named("dsl:run")) / steps, "s"},
      {"exec.lower_s", layer_self(in_layer("exec.lower")) / steps, "s"},
      {"exec.plan_tiles", counted("exec.plan_tiles"), "count"},
      {"exec.kernel_s", kernel_thread_s / steps, "s"},
      {"exec.kernel_gflops", gflops, "GF/s"},
      {"exec.flops_per_point", static_cast<double>(w->flops_per_point()), "flop/pt"},
      {"exec.bytes_per_point", w->bytes_per_point(), "B/pt"},
      {"exec.kernel_pct_roof", roof > 0.0 ? 100.0 * gflops / roof : 0.0, "%"},
      {"exec.temporal_blocks", counted("exec.temporal_blocks"), "count"},
      {"exec.wedges", counted("exec.wedges"), "count"},
      {"exec.halo_fill_s", layer_self(in_layer("exec.boundary")) / steps, "s"},
      {"codegen.emit_s", median(durations("codegen:gen_aot_kernel", nullptr)), "s"},
      {"codegen.source_bytes", counted("codegen.source_bytes"), "B"},
      {"aot.load_cold_s", median(durations("aot:load_aot_module", "sample:setup")), "s"},
      {"aot.load_warm_s", median(durations("aot:load_aot_module", "sample:call")), "s"},
      {"aot.fallbacks", fallbacks, "count"},
      {"comm.begin_s", per_rank_step(layer_self(named("comm:begin_exchange_plan"))), "s"},
      {"comm.finish_s", per_rank_step(layer_self(named("comm:finish_exchange_plan"))), "s"},
      {"comm.compute_s",
       per_rank_step(layer_self([](const Span& s) {
         return s.lane > 0 && span_layer(s.name) == "exec.kernel";
       })),
       "s"},
      {"comm.rank_skew_s", median(skew), "s"},
      {"comm.messages_per_step", steps_on > 0 ? msgs / steps_on : 0.0, "count"},
      {"comm.bytes_per_step", steps_on > 0 ? bytes / steps_on : 0.0, "B"},
      {"comm.retries", retries, "count"},
      {"prof.flight_overhead_pct", mpts_off > 0 ? 100.0 * (mpts_off - mpts_on) / mpts_off : 0.0,
       "%"},
      {"trace.coverage", cov.ratio(), "ratio"},
      {"trace.overhead_pct", mpts_on > 0 ? 100.0 * (mpts_on - mpts_traced) / mpts_on : 0.0, "%"},
      {"error_rate", t.error_rate(), "ratio"},
  };

  // Span dump and per-layer self-time table.
  std::filesystem::create_directories(a.out);
  const std::string stem =
      (std::filesystem::path(a.out) / (a.workload + ".seed" + std::to_string(a.seed))).string();
  std::ofstream(stem + ".trace.json") << chrome_trace_json(spans, a.workload);
  std::string table = "# per-layer self time, " + a.workload + " (traced replay, " +
                      std::to_string(static_cast<long long>(steps)) + " timesteps)\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "# %-14s %12s %9s %8s\n", "layer", "self_s", "share", "spans");
  table += buf;
  const auto rows = layer_table(spans, self);
  double total = 0.0;
  for (const auto& r : rows) total += r.self_s;
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof buf, "# %-14s %12.6f %8.2f%% %8lld\n", r.layer.c_str(), r.self_s,
                  total > 0 ? 100.0 * r.self_s / total : 0.0, static_cast<long long>(r.spans));
    table += buf;
  }
  std::snprintf(buf, sizeof buf, "# coverage %.4f  (traced %.3f Mpt/s vs untraced %.3f Mpt/s)\n",
                cov.ratio(), mpts_traced, mpts_on);
  table += buf;
  std::ofstream(stem + ".layers.txt") << table;
  std::printf("%s# span dump: %s.trace.json\n", table.c_str(), stem.c_str());
  print_result(t, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold keeps glibc from raising it after the first large
  // free, so every episode's grids are mapped and unmapped alike and the
  // per-episode peak RSS does not depend on the allocation history.
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const auto args = perfbench::parse_args(argc, argv);
  perfbench::print_stamp(args);
  try {
    return args.trace ? perfbench::run_traced(args) : perfbench::run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msc_e2e: %s\n", e.what());
    return 1;
  }
}
