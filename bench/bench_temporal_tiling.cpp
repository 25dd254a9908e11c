// Temporal-tiling ledger: the time-skewed wedge engine
// (exec/temporal_sweep.hpp) vs the per-step compiled row sweep on a deep
// time window, wall-clock on the build host.  The gated metric is the
// per-step→temporal `speedup` — a pure ratio of two runs on the same
// machine, so the bench-history gate stays meaningful across hosts — and
// each repetition times the two engines back to back (interleaved) with the
// reported speedup the *median of per-rep ratios*, which sheds slow-drift
// noise (thermal, scheduler) that best-of-N per engine would fold into the
// ratio.
//
// The wedge engine is bit-checked against run_reference's serial full-row
// sweep before any timing (bench/verify.hpp); the run aborts if it silently
// fell back to the per-step path, so this ledger can never gate the wrong
// kernel.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "verify.hpp"

#include "exec/executor.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr std::int64_t kSteps = 16;  // deep time window: 16 steps per measured run
constexpr int kReps = 7;             // interleaved repetitions, median-of-ratios

struct Row {
  const char* label;
  std::array<std::int64_t, 3> grid;
  std::array<std::int64_t, 3> tile;
  std::int64_t wedge_depth;  // timesteps fused per wedge block
  std::int64_t wedge_width;  // dim-0 rows per wedge (0 = engine default)
};

struct Measured {
  double speedup = 0.0;
  double per_step_pps = 0.0;
  double temporal_pps = 0.0;
  std::int64_t wedges = 0;
  std::int64_t dep_span = 0;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string fmt_rate(double pps) {
  char buf[32];
  if (pps >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f Gpt/s", pps / 1e9);
  } else if (pps >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f Mpt/s", pps / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f Kpt/s", pps / 1e3);
  }
  return buf;
}

Measured measure(const Row& r) {
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, r.grid);
  workload::apply_msc_schedule(*prog, info, "sunway", r.tile);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  // The same schedule with time_tile(): run_scheduled takes the wedges.
  schedule::Schedule wedged = sched;
  wedged.time_tile(r.wedge_depth, r.wedge_width);

  // Correctness first, once: the wedges vs the serial reference.
  exec::ExecInfo tinfo;
  bench::require_bit_identical<double>(
      st,
      [&](exec::GridStorage<double>& g) {
        exec::run_reference(st, g, 1, kSteps, exec::Boundary::ZeroHalo);
      },
      [&](exec::GridStorage<double>& g) {
        exec::run_scheduled(st, wedged, g, 1, kSteps, exec::Boundary::ZeroHalo, {}, nullptr,
                            {}, &tinfo);
      },
      r.label);
  MSC_CHECK(tinfo.route == exec::Route::Temporal) << r.label << ": temporal engine fell back ("
                            << tinfo.fallback_reason << "); nothing to measure";

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
  const double points =
      static_cast<double>(st.state()->interior_points()) * static_cast<double>(kSteps);

  // Warm-up one pass per engine (page faults, pool spin-up).
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo);
  exec::run_scheduled(st, wedged, g, 1, 1, exec::Boundary::ZeroHalo);

  std::vector<double> ratios, per_step_t, temporal_t;
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo);
    const double tb = now_seconds() - t0;
    t0 = now_seconds();
    exec::run_scheduled(st, wedged, g, 1, kSteps, exec::Boundary::ZeroHalo);
    const double tt = now_seconds() - t0;
    ratios.push_back(tb / tt);
    per_step_t.push_back(tb);
    temporal_t.push_back(tt);
  }

  Measured m;
  m.speedup = median(ratios);
  m.per_step_pps = points / median(per_step_t);
  m.temporal_pps = points / median(temporal_t);
  m.wedges = tinfo.wedges;
  m.dep_span = tinfo.dep_span;
  return m;
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "Temporal tiling — per-step row sweep vs time-skewed wedge engine",
      "same schedule, same numerics (bit-checked); speedup = median of interleaved ratios");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("temporal_tiling", "3d7pt_star");
  report.set_config("steps", kSteps);
  report.set_config("reps", kReps);
  report.set_config("dtype", "f64");
  report.set_config("metric", "median_of_interleaved_ratios");

  // Table-5 Sunway tile for 3d7pt_star ({2,8,64}: unit-stride dim spans a
  // full row); wedge shapes picked by a Release-host scan — deep fusion with
  // a wide dim-0 wedge keeps the skew overhead (re-clamped tile lists per
  // step) amortised over many fused steps.
  const Row rows[] = {
      {"3d7pt_star_d8", {64, 64, 64}, {2, 8, 64}, 8, 16},
      {"3d7pt_star_d16", {64, 64, 64}, {2, 8, 64}, 16, 16},
      {"3d7pt_star_d2", {64, 64, 64}, {2, 8, 64}, 2, 16},
  };

  TextTable t({"config", "per-step pt/s", "temporal pt/s", "wedges", "dep span", "speedup"});
  for (const auto& r : rows) {
    const Measured m = measure(r);
    t.add_row({r.label, fmt_rate(m.per_step_pps), fmt_rate(m.temporal_pps),
               std::to_string(m.wedges), std::to_string(m.dep_span),
               workload::fmt_ratio(m.speedup)});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(r.label);
    row["speedup"] = workload::Json::number(m.speedup);
    row["per_step_points_per_s"] = workload::Json::number(m.per_step_pps);
    row["temporal_points_per_s"] = workload::Json::number(m.temporal_pps);
    row["wedge_depth"] = workload::Json::number(static_cast<double>(r.wedge_depth));
    row["wedge_width"] = workload::Json::number(static_cast<double>(r.wedge_width));
    row["wedges"] = workload::Json::number(static_cast<double>(m.wedges));
    row["dep_span"] = workload::Json::number(static_cast<double>(m.dep_span));
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("the wedge engine revisits a block of rows across its whole time window while\n"
              "they are cache-hot; the per-step sweep streams the full grid once per step.\n");

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
