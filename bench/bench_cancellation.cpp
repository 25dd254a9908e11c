// Cancellation-check overhead ledger.
//
// The robustness spine threads a CancelToken through every engine: one
// check per step on the caller thread (one per time block on the wedges),
// and nothing is copied or restored.  Those checks must be effectively
// free when nothing fires.  The gated metric is
// `cancel_efficiency` — wall time of the sweep engine with no token divided
// by wall time with an armed-but-never-firing deadline token, taken as the
// median of per-rep adjacent off/on ratios so ambient machine-load epochs
// cancel out.  1.0 means cancellation support is free; the target budget is
// ~2% and the bench-history gate trips on a 5% relative drop — the floor is
// set by launch-to-launch code-layout jitter (each process run lands a few
// percent apart even with identical code), not by the rep count — so real
// checkpoint creep fails CI instead of silently taxing every run.
// `checkpoint_polls` (informational) counts the armed arm's checks: one
// per step, kSteps * kReps.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "support/cancel.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr std::int64_t kSteps = 64;  // timesteps per repetition
constexpr int kReps = 41;            // the gated ratio needs many shots

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  workload::print_banner(
      "Cancellation-check overhead",
      "gated: no-token vs armed-token wall-time ratio on the sweep engine");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("cancellation", "3d7pt_star");
  report.set_config("steps", kSteps);
  report.set_config("reps", kReps);
  report.set_config("dtype", "f64");
  report.set_config("grid", "64x64x64");

  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {64, 64, 64});
  workload::apply_msc_schedule(*prog, info, "cpu");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 7);

  // Warm-up (page faults, pool spin-up) before either timed arm.
  exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo);

  // Interleave the off/on arms rep by rep so ambient drift (turbo,
  // background load) hits both equally, and gate on the *median of the
  // per-rep off/on ratios*: within one rep the two arms run back to back,
  // so a slow-machine epoch inflates both wall times and divides out of
  // that rep's ratio, and the median discards the reps where interference
  // landed between the arms.  This is far more stable on a shared host
  // than the ratio of per-arm minima.  The token is armed with a deadline
  // far beyond the run so every checkpoint takes the full poll-and-compare
  // path without ever firing.
  CancelToken token(Deadline::after_ms(3600.0 * 1000.0));
  exec::ExecOptions armed;
  armed.cancel = &token;
  double t_off = 1e300, t_on = 1e300;
  std::vector<double> ratios;
  ratios.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    double t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo);
    const double off = now_seconds() - t0;
    t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo, {}, nullptr, armed);
    const double on = now_seconds() - t0;
    t_off = std::min(t_off, off);
    t_on = std::min(t_on, on);
    ratios.push_back(off / on);
  }
  std::sort(ratios.begin(), ratios.end());
  const double efficiency = ratios[ratios.size() / 2];

  workload::Json row = workload::Json::object();
  row["benchmark"] = workload::Json::string("3d7pt_star");
  row["cancel_efficiency"] = workload::Json::number(efficiency);
  // Keyword-neutral names on purpose: absolute wall clocks are host noise
  // and must stay informational in the history gate; only the ratio gates.
  row["token_off_wall"] = workload::Json::number(t_off);
  row["token_on_wall"] = workload::Json::number(t_on);
  row["overhead_pct"] = workload::Json::number((1.0 / efficiency - 1.0) * 100.0);
  row["checkpoint_polls"] = workload::Json::integer(
      static_cast<std::int64_t>(token.polls()));
  report.add_result(std::move(row));

  std::printf("cancel efficiency (median off/on ratio): %.4f  (overhead %.2f%%, %llu polls)\n",
              efficiency, (1.0 / efficiency - 1.0) * 100.0,
              static_cast<unsigned long long>(token.polls()));

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
