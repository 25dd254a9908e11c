// AOT dlopen backend ledger: the specialized compiled kernel
// (exec/aot_backend.hpp) vs the in-process row sweep, wall-clock on the
// build host.  The interesting band is >16 linear terms, where the sweep
// engine has no fused kernel left: 3d13pt_star (26 terms) runs its chunked
// row-buffer form and 2d121pt_box (242 terms) falls all the way back to
// the generic term interpreter, while the AOT module unrolls every term as
// a constant-offset load the host cc schedules globally.
//
// The gated metric is each row's `aot_points_per_s`, the module's own rate
// (median over interleaved repetitions): a slower sweep arm cannot lift
// it.  `aot_vs_sweep` (the median of per-rep sweep/AOT time ratios) and
// the sweep arm's rate stay informational.  The module is always compiled
// at -O2, so the rate does not depend on the build type of this binary; it
// does depend on the module's vector width, which each row records
// (`lanes`, informational).  Both paths are bit-checked against each
// other before any timing, and the run aborts if the AOT backend silently
// fell back to the sweep, so this ledger can never gate the wrong kernel.
// Hosts without a C compiler exit 0 with a note — there is nothing to
// measure, not a failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "verify.hpp"

#include "exec/executor.hpp"
#include "exec/sweep.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "support/shell.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr int kReps = 7;  // interleaved repetitions

struct Row {
  const char* label;
  const char* benchmark;
  std::array<std::int64_t, 3> grid;
  std::int64_t steps;
};

struct Measured {
  double aot_vs_sweep = 0.0;
  double sweep_pps = 0.0;
  double aot_pps = 0.0;
  std::size_t terms = 0;
  const char* route = "";
  bool cache_hit = false;
  int lanes = 0;
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
  const auto& info = workload::benchmark(r.benchmark);
  // No apply_msc_schedule: a plain serial schedule on both sides, so the
  // ratio isolates kernel quality (term dispatch) from threading.
  auto prog = workload::make_program(info, ir::DataType::f64, r.grid);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  const auto lin = exec::linearize_stencil(st, prog->bindings());
  MSC_CHECK(lin.has_value()) << r.label << ": workload must be affine";

  exec::ExecOptions aot;  // default shared cache dir
  aot.backend = exec::HostBackend::Aot;
  exec::ExecInfo ainfo;

  // Correctness first, once: AOT vs the sweep engine, bit for bit.
  bench::require_bit_identical<double>(
      st,
      [&](exec::GridStorage<double>& g) {
        exec::run_scheduled(st, sched, g, 1, r.steps, exec::Boundary::ZeroHalo,
                            prog->bindings());
      },
      [&](exec::GridStorage<double>& g) {
        exec::run_scheduled(st, sched, g, 1, r.steps, exec::Boundary::ZeroHalo,
                            prog->bindings(), nullptr, aot, &ainfo);
      },
      r.label);
  MSC_CHECK(ainfo.route == exec::Route::Aot) << r.label << ": AOT backend fell back ("
                       << ainfo.fallback_reason << "); nothing to measure";

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
  const double points =
      static_cast<double>(st.state()->interior_points()) * static_cast<double>(r.steps);

  // Warm-up one pass per engine (page faults; the AOT module is already
  // compiled and dlopen'd by the bit-check above).
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo, prog->bindings());
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo, prog->bindings(),
                      nullptr, aot);

  std::vector<double> ratios, sweep_t, aot_t;
  for (int rep = 0; rep < kReps; ++rep) {
    double t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, r.steps, exec::Boundary::ZeroHalo,
                        prog->bindings());
    const double ts = now_seconds() - t0;
    t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, r.steps, exec::Boundary::ZeroHalo,
                        prog->bindings(), nullptr, aot);
    const double ta = now_seconds() - t0;
    ratios.push_back(ts / ta);
    sweep_t.push_back(ts);
    aot_t.push_back(ta);
  }

  Measured m;
  m.aot_vs_sweep = median(ratios);
  m.sweep_pps = points / median(sweep_t);
  m.aot_pps = points / median(aot_t);
  m.terms = lin->terms.size();
  m.route = exec::sweep_route(lin->terms.size());
  m.cache_hit = ainfo.aot.cache_hit;
  m.lanes = ainfo.aot.lanes;
  return m;
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "AOT dlopen backend — in-process row sweep vs cc-specialized kernel",
      "same plan, same numerics (bit-checked); gated: the AOT arm's own rate");

  if (!host_cc_available()) {
    std::printf("no host C compiler ('cc') on PATH — nothing to measure, skipping\n");
    return 0;
  }

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("aot", "sweep_vs_aot");
  report.set_config("reps", kReps);
  report.set_config("dtype", "f64");
  report.set_config("schedule", "serial");
  report.set_config("metric", "aot_points_per_s");

  // One row per sweep routing band: the 14-term star the fused kernels
  // cover, the 26-term star that spills to the chunked row buffers, and the
  // 242-term box only the generic interpreter can run — the AOT backend's
  // headline case.
  const Row rows[] = {
      {"3d7pt_star", "3d7pt_star", {64, 64, 64}, 8},
      {"3d13pt_star", "3d13pt_star", {64, 64, 64}, 8},
      {"2d121pt_box", "2d121pt_box", {512, 512, 0}, 4},
  };

  TextTable t({"benchmark", "terms", "sweep route", "sweep pt/s", "aot pt/s", "aot lanes",
               "aot vs sweep"});
  for (const auto& r : rows) {
    const Measured m = measure(r);
    t.add_row({r.label, std::to_string(m.terms), m.route, fmt_rate(m.sweep_pps),
               fmt_rate(m.aot_pps), std::to_string(m.lanes),
               workload::fmt_ratio(m.aot_vs_sweep)});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(r.label);
    row["aot_vs_sweep"] = workload::Json::number(m.aot_vs_sweep);
    row["sweep_points_per_s"] = workload::Json::number(m.sweep_pps);
    row["aot_points_per_s"] = workload::Json::number(m.aot_pps);
    row["terms"] = workload::Json::number(static_cast<double>(m.terms));
    row["lanes"] = workload::Json::number(m.lanes);
    row["sweep_route"] = workload::Json::string(m.route);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("the sweep engine dispatches terms through fixed-width kernels (16-term fused,\n"
              "32-term chunked) and interprets anything wider; the AOT module bakes extents,\n"
              "strides and all coefficients into one cc-compiled translation unit.\n");

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
