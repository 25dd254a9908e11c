// Figure 9 — roofline analysis of all benchmarks on a Sunway CG and a
// Matrix processor (fp64).  The paper classifies every benchmark as
// memory-bound except 2d169pt_box on Sunway, and groups achieved
// performance into three categories by data-locality behavior.
//
// Two intensities are reported: the classic Table-4 flop/byte (all dots
// left of both ridges) and the *effective* intensity against actual DMA /
// cache traffic, which is what moves 2d169pt past the Sunway ridge.
//
// A third performance column comes from the measured-attribution path
// (prof/attribution.hpp): each benchmark is actually executed through the
// host sweep engine and placed on the *measured* host roofline
// (machine/probe.hpp), so model-vs-measured divergence is visible in the
// same figure.  Host grids are scaled down from the paper's (the point is
// the roofline placement, not absolute scale).

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "exec/executor.hpp"
#include "machine/cost_model.hpp"
#include "machine/probe.hpp"
#include "machine/roofline.hpp"
#include "prof/attribution.hpp"
#include "prof/flight.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr std::int64_t kSteps = 2;  // timesteps per measured host run

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs every benchmark through the host sweep engine once and attributes
/// it against the measured host roofline.  Keyed by benchmark name.
std::map<std::string, prof::AttributionRow> measured_host_rows(
    const machine::MachineModel& host) {
  std::map<std::string, prof::AttributionRow> rows;
  for (const auto& info : workload::all_benchmarks()) {
    const std::array<std::int64_t, 3> grid =
        info.ndim == 3 ? std::array<std::int64_t, 3>{64, 64, 64}
                       : std::array<std::int64_t, 3>{512, 512, 0};
    auto prog = workload::make_program(info, ir::DataType::f64, grid);
    workload::apply_msc_schedule(*prog, info, "cpu");
    const auto& st = prog->stencil();
    const auto& sched = prog->primary_schedule();

    exec::GridStorage<double> g(st.state());
    for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 7);
    exec::run_scheduled(st, sched, g, 1, 1, exec::Boundary::ZeroHalo);  // warm-up

    auto& flight = prof::global_flight();
    flight.clear();
    const double t0 = now_seconds();
    exec::run_scheduled(st, sched, g, 1, kSteps, exec::Boundary::ZeroHalo);
    const double wall = now_seconds() - t0;

    const auto phases = prof::bucket_phases(flight.drain(), wall);
    const auto cost =
        prof::attribute_plan(st, sched, exec::Route::Sweep, sizeof(double), 1, kSteps);
    rows.emplace(info.name, prof::attribute_run(info.name, exec::Route::Sweep, cost,
                                                phases, host));
  }
  return rows;
}

void roofline_for(const msc::machine::MachineModel& m, const msc::machine::ImplProfile& impl,
                  const char* target,
                  const std::map<std::string, prof::AttributionRow>& measured) {
  std::printf("-- %s: peak %.0f GF/s, bw %.1f GB/s, ridge %.2f flop/B --\n", m.name.c_str(),
              m.peak_gflops(true), m.mem_bw_gbs, m.ridge_flop_per_byte(true));
  TextTable t({"Benchmark", "OI classic", "OI effective", "achieved GF/s", "attainable",
               "bound", "host measured GF/s"});
  for (const auto& info : workload::all_benchmarks()) {
    auto prog = workload::make_program(info, ir::DataType::f64);
    workload::apply_msc_schedule(*prog, info, target);
    const auto kc = machine::estimate(m, prog->stencil(), prog->primary_schedule(), impl, 1,
                                      true);
    const double oi_classic = machine::operational_intensity(prog->stencil());
    const double oi_eff = static_cast<double>(kc.flops_per_step) /
                          static_cast<double>(kc.traffic_bytes);
    const auto it = measured.find(info.name);
    const std::string host_col =
        it == measured.end() ? "-"
                             : strprintf("%.2f (%.0f%% attain)", it->second.measured_gflops,
                                         it->second.pct_of_attainable);
    t.add_row({info.name, strprintf("%.3f", oi_classic), strprintf("%.2f", oi_eff),
               workload::fmt_gflops(kc.gflops),
               workload::fmt_gflops(machine::attainable_gflops(m, oi_eff)),
               kc.memory_bound ? "memory" : "compute", host_col});
  }
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner("Figure 9 — roofline analysis on Sunway CG (a) and Matrix (b)",
                         "all memory-bound except 2d169pt on Sunway; "
                         "high-order boxes achieve the best GF/s");
  const machine::MachineModel host = machine::host_measured_model();
  std::printf("host roofline (measured): peak %.1f GF/s, bw %.1f GB/s, ridge %.2f flop/B\n\n",
              host.peak_gflops(), host.mem_bw_gbs, host.ridge_flop_per_byte());
  const auto measured = measured_host_rows(host);
  roofline_for(machine::sunway_cg(), machine::profile_msc_sunway(), "sunway", measured);
  roofline_for(machine::matrix_sn(), machine::profile_msc_matrix(), "matrix", measured);
  std::printf("the 'host measured GF/s' column is a real sweep-engine run attributed on the\n"
              "measured host roofline (scaled-down grids); the model columns are the paper's\n"
              "simulated platforms — the gap between them is the cost model's honesty check.\n");
  return 0;
}
