// Flight-recorder overhead ledger + measured-roofline attribution rows.
//
// The gated metric is `recorder_efficiency` — wall time of the sweep engine
// with the flight recorder OFF divided by wall time with it ON (best-of
// runs on the same machine, same grid).  1.0 means the recorder is free;
// the bench-history gate pins the ratio so instrumentation creep past the
// ~2% budget fails CI instead of silently taxing every run.
//
// Attribution rows for the host engines ride along as informational
// context: measured GF/s, analytic operational intensity, and
// %-of-attainable against the measured host roofline (machine/probe.hpp).
// Their metric names stay keyword-neutral on purpose — absolute GF/s is
// host-dependent and must not gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "machine/probe.hpp"
#include "prof/attribution.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr std::int64_t kSteps = 4;           // timesteps per attribution row
constexpr std::int64_t kOverheadSteps = 16;  // timesteps per overhead repetition
constexpr int kReps = 5;                     // best-of to shed scheduler noise
constexpr int kOverheadReps = 15;            // the gated ratio needs more shots

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

/// Recorder tax on the hottest instrumented path: the compiled row sweep.
double measure_recorder_efficiency(prof::BenchReport& report) {
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {64, 64, 64});
  workload::apply_msc_schedule(*prog, info, "cpu");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 7);

  // Warm-up (page faults, pool spin-up) before either timed arm.
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo);

  // Interleave the off/on arms rep by rep so slow ambient drift (turbo,
  // background load) hits both arms equally, and gate on the ratio of the
  // per-arm *minima*: scheduler interference only ever slows a rep down,
  // so with enough interleaved shots each minimum converges on the
  // noise-free runtime of its arm — exactly the pair the overhead budget
  // is defined over.
  auto& flight = prof::global_flight();
  double t_off = 1e300, t_on = 1e300;
  for (int r = 0; r < kOverheadReps; ++r) {
    flight.set_enabled(false);
    double t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, kOverheadSteps, exec::Boundary::ZeroHalo);
    t_off = std::min(t_off, now_seconds() - t0);
    flight.set_enabled(true);
    t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, kOverheadSteps, exec::Boundary::ZeroHalo);
    t_on = std::min(t_on, now_seconds() - t0);
  }
  const double efficiency = t_off / t_on;
  workload::Json row = workload::Json::object();
  row["benchmark"] = workload::Json::string("3d7pt_star");
  row["recorder_efficiency"] = workload::Json::number(efficiency);
  // Keyword-neutral names on purpose: absolute wall clocks are host noise
  // and must stay informational in the history gate; only the ratio gates.
  row["recorder_off_wall"] = workload::Json::number(t_off);
  row["recorder_on_wall"] = workload::Json::number(t_on);
  row["overhead_pct"] = workload::Json::number((t_on / t_off - 1.0) * 100.0);
  report.add_result(std::move(row));
  return efficiency;
}

/// One informational attribution row: run `route`, drain the recorder,
/// join against the measured host roofline.
void attribute_route(prof::BenchReport& report, const machine::MachineModel& host,
                     const char* name, exec::Route route, TextTable& table) {
  const auto& info = workload::benchmark(name);
  const std::array<std::int64_t, 3> grid =
      info.ndim == 3 ? std::array<std::int64_t, 3>{64, 64, 64}
                     : std::array<std::int64_t, 3>{512, 512, 0};
  auto prog = workload::make_program(info, ir::DataType::f64, grid);
  workload::apply_msc_schedule(*prog, info, "cpu");
  if (route == exec::Route::Temporal) prog->primary_kernel().time_tile(4);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 7);

  exec::ExecOptions opts;
  if (route == exec::Route::Aot) opts.backend = exec::HostBackend::Aot;
  exec::ExecInfo taken;
  auto run = [&](std::int64_t t0, std::int64_t t1) {
    exec::run_scheduled(st, sched, g, t0, t1, exec::Boundary::ZeroHalo, {}, nullptr, opts,
                        &taken);
  };

  run(1, 1);  // warm-up: pool spin-up, AOT compile+dlopen off the clock
  auto& flight = prof::global_flight();
  flight.clear();
  const double t0 = now_seconds();
  run(1, kSteps);
  const double wall = now_seconds() - t0;

  const auto phases = prof::bucket_phases(flight.drain(), wall);
  const auto cost = prof::attribute_plan(st, sched, route, sizeof(double), 1, kSteps);
  auto row = prof::attribute_run(name, route, cost, phases, host);
  const bool ran = taken.route == route;
  const std::string& note = taken.fallback_reason;

  table.add_row({name, exec::route_name(route),
                 ran ? strprintf("%.2f", row.measured_gflops) : std::string("-"),
                 strprintf("%.3f", row.cost.oi),
                 ran ? strprintf("%.1f%%", row.pct_of_attainable) : std::string("-"),
                 row.memory_bound ? "memory" : "compute",
                 ran ? std::string("") : note});

  workload::Json j = workload::Json::object();
  j["benchmark"] = workload::Json::string(name);
  j["backend"] = workload::Json::string(exec::route_name(route));
  j["ran"] = workload::Json::boolean(ran);
  if (!ran) j["note"] = workload::Json::string(note);
  j["gf_per_s"] = workload::Json::number(row.measured_gflops);
  j["oi_flop_per_byte"] = workload::Json::number(row.cost.oi);
  j["pct_attainable"] = workload::Json::number(row.pct_of_attainable);
  j["wall_s"] = workload::Json::number(phases.wall_s);
  j["compute_s"] = workload::Json::number(phases.compute_s);
  j["wedge_wait_s"] = workload::Json::number(phases.wedge_wait_s);
  j["aot_pipeline_s"] = workload::Json::number(phases.aot_pipeline_s);
  j["dispatch_s"] = workload::Json::number(phases.dispatch_s);
  j["flight_events"] = workload::Json::integer(phases.events);
  report.add_result(std::move(j));
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "Flight-recorder overhead + measured-roofline attribution",
      "gated: recorder on/off wall-time ratio; attribution rows informational");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("attribution", "3d7pt_star,2d9pt_star,3d13pt_star");
  report.set_config("steps", kSteps);
  report.set_config("dtype", "f64");
  report.set_config("grid_3d", "64x64x64");
  report.set_config("grid_2d", "512x512");

  const double efficiency = measure_recorder_efficiency(report);
  std::printf("recorder efficiency (off/on wall ratio): %.4f  (overhead %.2f%%)\n\n",
              efficiency, (1.0 / efficiency - 1.0) * 100.0);

  const machine::MachineModel host = machine::host_measured_model();
  std::printf("host roofline: peak %.1f GF/s, bw %.1f GB/s, ridge %.2f F/B\n\n",
              host.peak_gflops(), host.mem_bw_gbs, host.ridge_flop_per_byte());

  TextTable t({"benchmark", "backend", "GF/s", "OI (F/B)", "% attainable", "bound", "note"});
  for (const char* name : {"3d7pt_star", "2d9pt_star", "3d13pt_star"}) {
    attribute_route(report, host, name, exec::Route::Sweep, t);
    attribute_route(report, host, name, exec::Route::Temporal, t);
  }
  attribute_route(report, host, "3d7pt_star", exec::Route::Aot, t);
  std::printf("%s\n", t.render().c_str());

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
