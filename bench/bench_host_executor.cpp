// Host-executor throughput ledger: run_scheduled's own rate on the
// workloads' Sunway schedules, wall-clock on the build host.  The gated
// metric is `compiled_gflops`, the scheduled engine's absolute FLOP rate
// (best of kReps), so no slower baseline arm can lift it; run_reference's
// serial full-row rate rides along as informational context.
//
// The run first asserts that run_scheduled reproduces run_reference bit for
// bit (bench/verify.hpp); a perf number for a wrong kernel is worthless.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "verify.hpp"

#include "exec/executor.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr std::int64_t kSteps = 4;   // timesteps per measured repetition
constexpr int kReps = 15;            // best-of to shed scheduler noise

struct Measured {
  double compiled_pps = 0.0;
  double compiled_gflops = 0.0;
  double reference_pps = 0.0;
};

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

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double best_of(Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

Measured measure(const workload::BenchmarkInfo& info, std::array<std::int64_t, 3> grid,
                 std::array<std::int64_t, 3> tile) {
  auto prog = workload::make_program(info, ir::DataType::f64, grid);
  workload::apply_msc_schedule(*prog, info, "sunway", tile);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  // Equality check first, once, before any timing (bench/verify.hpp).  The
  // checked run's stats give the FLOPs of one timed repetition.
  exec::ExecStats stats;
  bench::require_bit_identical<double>(
      st,
      [&](exec::GridStorage<double>& g) {
        exec::run_reference(st, g, 1, kSteps, exec::Boundary::ZeroHalo);
      },
      [&](exec::GridStorage<double>& g) {
        exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo, {}, &stats);
      },
      info.name.c_str());

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
  const double points =
      static_cast<double>(st.state()->interior_points()) * static_cast<double>(kSteps);

  // Warm-up one step per path (page faults, pool spin-up).
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo);
  exec::run_reference(st, g, 1, 1, exec::Boundary::ZeroHalo);

  Measured m;
  const double tc = best_of(
      [&] { exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo); });
  const double tr =
      best_of([&] { exec::run_reference(st, g, 1, kSteps, exec::Boundary::ZeroHalo); });
  m.compiled_pps = points / tc;
  m.compiled_gflops = static_cast<double>(stats.flops) / tc / 1e9;
  m.reference_pps = points / tr;
  return m;
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "Host executor — run_scheduled's own rate",
      "bit-checked against run_reference; rows are stride-1 pointer loops");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("host_executor", "3d7pt_star,2d9pt_star");
  report.set_config("steps", kSteps);
  report.set_config("reps", kReps);
  report.set_config("dtype", "f64");
  report.set_config("grid_3d", "64x64x64");
  report.set_config("grid_2d", "512x512");
  report.set_config("metric", "compiled_gflops");

  struct Row {
    const char* name;
    std::array<std::int64_t, 3> grid;
    std::array<std::int64_t, 3> tile;
  };
  // Tiles are the workloads' own Table-5 Sunway settings (unit-stride dim
  // spans a full 64-element row).
  const Row rows[] = {
      {"3d7pt_star", {64, 64, 64}, {2, 8, 64}},
      {"2d9pt_star", {512, 512, 0}, {32, 64, 0}},
  };

  TextTable t({"benchmark", "compiled pt/s", "compiled GF/s", "reference pt/s"});
  for (const auto& r : rows) {
    const auto& info = workload::benchmark(r.name);
    const Measured m = measure(info, r.grid, r.tile);
    char gfbuf[32];
    std::snprintf(gfbuf, sizeof gfbuf, "%.2f", m.compiled_gflops);
    t.add_row({r.name, fmt_rate(m.compiled_pps), gfbuf, fmt_rate(m.reference_pps)});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(r.name);
    row["compiled_gflops"] = workload::Json::number(m.compiled_gflops);
    row["compiled_points_per_s"] = workload::Json::number(m.compiled_pps);
    row["reference_points_per_s"] = workload::Json::number(m.reference_pps);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("compiled_gflops is gated against the ledger as an absolute rate (higher is\n"
              "better); the reference rate is the serial full-row sweep, for context.\n");

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
