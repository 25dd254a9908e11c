// msc-bench-diff — the perf gate over the bench-history ledger.
//
// Compares one fresh BENCH_*.json (schema msc-bench-v1) against the
// noise-aware baseline built from bench/history/<name>.jsonl (median of the
// last K same-config runs, MAD-scaled thresholds), prints a markdown delta
// table, and exits nonzero when a gated metric regressed — CI runs this
// after a bench to catch perf trajectory slips.
//
//   $ msc-bench-diff BENCH_ablation_overlap.json
//   $ msc-bench-diff BENCH_x.json --history bench/history --append
//   $ msc-bench-diff --selftest           # synthetic-history sanity check
//
// Exit codes: 0 ok (or bootstrap/no baseline), 1 regression (or selftest
// failure), 2 usage/IO error, 3 no baseline with --require-baseline.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "prof/history.hpp"
#include "support/error.hpp"
#include "workload/report.hpp"

namespace {

void usage() {
  std::printf(
      "usage: msc-bench-diff <BENCH_file.json> [options]\n"
      "       msc-bench-diff --selftest [--workdir <dir>]\n"
      "  --history <dir>      ledger directory (default: $MSC_BENCH_HISTORY_DIR,\n"
      "                       else <repo>/bench/history)\n"
      "  --last <K>           baseline window: median of last K runs (default 5)\n"
      "  --min-rel <x>        relative threshold floor (default 0.05)\n"
      "  --mad-mult <x>       noise threshold = mad-mult * MAD/|baseline| (default 3)\n"
      "  --append             append this run to the ledger after comparing\n"
      "  --no-gate            always exit 0 (report-only mode)\n"
      "  --require-baseline   exit 3 instead of 0 when no baseline exists\n"
      "  --selftest           run against a synthetic history and verify the\n"
      "                       gate trips on a 2x slowdown and a 0.4x rate and\n"
      "                       passes in-noise\n");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MSC_CHECK(in.good()) << "cannot open '" << path << "'";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Synthetic-ledger sanity check: seeds a history, then verifies that a
/// within-noise rerun passes, a 2x slowdown regresses, and an absolute
/// rate (`*_rounds_per_s`) cut to 0.4x of its baseline regresses on its own.
int selftest(const std::string& workdir) {
  using msc::prof::HistoryEntry;
  const std::string dir = workdir + "/history";

  auto entry = [](double seconds, double rounds_per_s) {
    HistoryEntry e;
    e.name = "selftest";
    e.workload = "synthetic";
    e.config_hash = "cafef00d";
    e.wall_seconds = 0.01;
    e.metrics = {{"run.elapsed_seconds", seconds},
                 {"run.gflops", 1.0 / seconds},
                 {"run.plan_rounds_per_s", rounds_per_s}};
    return e;
  };
  // Fresh ledger each invocation (append_history appends by design).
  std::remove(msc::prof::history_path(dir, "selftest").c_str());
  // Five baseline runs with ~1% jitter around 100 ms and 10k rounds/s.
  const double base[] = {0.100, 0.101, 0.099, 0.1005, 0.0995};
  for (double s : base) msc::prof::append_history(dir, entry(s, 1000.0 / s));
  const auto history = msc::prof::load_history(msc::prof::history_path(dir, "selftest"));
  MSC_CHECK(history.size() == 5) << "selftest ledger round-trip lost entries";

  const auto in_noise = msc::prof::diff_against_history(history, entry(0.1008, 9920.0));
  const auto slowdown = msc::prof::diff_against_history(history, entry(0.200, 5000.0));
  const auto rate_cut = msc::prof::diff_against_history(history, entry(0.1008, 4000.0));
  bool rate_tripped = false;
  for (const auto& d : rate_cut.deltas)
    rate_tripped |= d.regressed && d.key == "run.plan_rounds_per_s";

  std::printf("selftest: within-noise rerun  -> %s\n",
              in_noise.regressed ? "REGRESSED (unexpected)" : "ok");
  std::printf("selftest: 2x slowdown         -> %s\n",
              slowdown.regressed ? "REGRESSED (expected)" : "ok (MISSED!)");
  std::printf("selftest: rounds/s at 0.4x    -> %s\n",
              rate_tripped ? "REGRESSED (expected)" : "ok (MISSED!)");
  const bool pass = !in_noise.regressed && slowdown.regressed && rate_tripped;
  std::printf("selftest: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path, history_override, workdir = "msc_bench_diff_selftest";
  msc::prof::DiffOptions opts;
  bool do_append = false, no_gate = false, require_baseline = false, run_selftest = false;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "msc-bench-diff: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--history") {
      history_override = next();
    } else if (arg == "--last") {
      opts.last_k = std::atoi(next());
    } else if (arg == "--min-rel") {
      opts.min_rel_threshold = std::atof(next());
    } else if (arg == "--mad-mult") {
      opts.mad_multiplier = std::atof(next());
    } else if (arg == "--append") {
      do_append = true;
    } else if (arg == "--no-gate") {
      no_gate = true;
    } else if (arg == "--require-baseline") {
      require_baseline = true;
    } else if (arg == "--selftest") {
      run_selftest = true;
    } else if (arg == "--workdir") {
      workdir = next();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "msc-bench-diff: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else if (report_path.empty()) {
      report_path = arg;
    } else {
      std::fprintf(stderr, "msc-bench-diff: more than one report named\n");
      return 2;
    }
  }

  try {
    if (run_selftest) return selftest(workdir);
    if (report_path.empty()) {
      usage();
      return 2;
    }

    const auto doc = msc::workload::Json::parse(read_file(report_path));
    const auto fresh = msc::prof::flatten_bench_report(doc);
    const std::string dir =
        history_override.empty() ? msc::prof::history_dir() : history_override;
    const std::string ledger = msc::prof::history_path(dir, fresh.name);
    const auto history = msc::prof::load_history(ledger);

    const auto report = msc::prof::diff_against_history(history, fresh, opts);
    std::fputs(msc::prof::diff_markdown(fresh, report, opts).c_str(), stdout);

    if (do_append) {
      msc::prof::append_history(dir, fresh);
      std::printf("\nappended to %s (%zu runs now)\n", ledger.c_str(), history.size() + 1);
    }

    if (report.baseline_runs == 0) {
      if (require_baseline) {
        std::fprintf(stderr, "msc-bench-diff: no baseline for config %s in %s\n",
                     fresh.config_hash.c_str(), ledger.c_str());
        return 3;
      }
      return 0;  // bootstrap: nothing to gate against
    }
    if (report.regressed && !no_gate) return 1;
    return 0;
  } catch (const msc::Error& e) {
    std::fprintf(stderr, "msc-bench-diff: %s\n", e.what());
    return 2;
  }
}
