#pragma once

// Measured-roofline attribution for the host engines (the paper's Fig. 9
// discipline, applied to real runs instead of the simulated models).
//
// Two halves, joined per run:
//
//  * the ANALYTIC walk (attribute_plan) lowers the stencil + schedule the
//    same way the engines do (linearize_stencil, build_loop_plan,
//    lower_temporal) and computes exact per-run FLOPs, bytes moved, and
//    arithmetic intensity from the plan shape.  The traffic model is the
//    per-slot streaming model: each timestep writes the interior once and
//    streams each distinct input time slot once (halo included); a
//    temporal wedge block of depth D streams each ring slot once per
//    *block* instead of once per step, which is exactly the reuse the
//    wedge engine exists to buy.  No hidden constants: the numbers are
//    derived quantities a test can hand-compute.
//
//  * the MEASURED side (attribute_run) takes a wall-clock run with the
//    flight recorder armed, drains it, and buckets event durations into a
//    phase breakdown — compute (row chunks / wedges / AOT kernel), wedge
//    wait (wavefront spins), AOT pipeline (cache probe + compile +
//    dlopen), and dispatch (wall minus everything attributed).  Joining
//    both halves against the measured host roofline (machine/probe.hpp)
//    yields measured GF/s, %-of-attainable, and a memory- vs compute-bound
//    verdict per run.
//
// attribution_json renders rows as an "msc-attr-v1" document; markdown for
// humans via attribution_markdown.  tools/msc-prof --attribute and
// bench/bench_attribution.cpp are the drivers.

#include <cstdint>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "ir/stencil.hpp"
#include "machine/machine.hpp"
#include "prof/flight.hpp"
#include "schedule/schedule.hpp"
#include "workload/report.hpp"

namespace msc::prof {

/// The analytic half: exact counts from the lowered plan.
struct PlanCost {
  std::int64_t steps = 0;
  std::int64_t terms = 0;           ///< linear terms per output point
  std::int64_t interior_points = 0; ///< per step
  std::int64_t flops = 0;           ///< whole run: 2 * terms * interior * steps
  std::int64_t bytes_read = 0;      ///< whole run, streaming model
  std::int64_t bytes_written = 0;   ///< whole run
  std::int64_t input_slots = 0;     ///< distinct time offsets read
  std::int64_t wedge_depth = 1;     ///< temporal: steps fused per block
  std::int64_t blocks = 0;          ///< temporal: time blocks
  double oi = 0.0;                  ///< flops / (bytes_read + bytes_written)
};

/// Walks the lowered plan and computes the exact counts.  `dtype_bytes` is
/// sizeof the state element.  For Route::Temporal the wedge depth
/// and block count come from the same lower_temporal() the engine runs
/// (depth <= 1 degrades to per-step).  Throws msc::Error for stencils
/// outside the affine fragment — exactly the ones the engines reject too.
PlanCost attribute_plan(const ir::StencilDef& st, const schedule::Schedule& sched,
                        exec::Route route, int dtype_bytes, std::int64_t t_begin,
                        std::int64_t t_end, const exec::Bindings& bindings = {});

/// Wall-clock phase breakdown bucketed from drained flight events.
struct PhaseBreakdown {
  double compute_s = 0.0;     ///< row chunks + wedges + AOT kernel spans
  double wedge_wait_s = 0.0;  ///< wavefront spin waits
  double aot_pipeline_s = 0.0;///< cache probe + compile + dlopen
  double dispatch_s = 0.0;    ///< wall minus the busiest thread's spans (>= 0)
  double wall_s = 0.0;
  std::int64_t events = 0;    ///< flight events that fed the buckets
};

/// Buckets `dumps` (from FlightRecorder::drain) into the phase breakdown.
/// Durations on worker threads overlap in wall time, so compute_s is
/// *aggregate busy time*; `wall_s` stays the caller's measured wall clock.
PhaseBreakdown bucket_phases(const std::vector<FlightThreadDump>& dumps, double wall_s);

/// One attributed run: analytic counts x measured time x machine roofline.
struct AttributionRow {
  std::string benchmark;
  exec::Route route = exec::Route::Sweep;  ///< the engine the row asked for
  bool ran = true;               ///< false: engine fell back (reason below)
  std::string note;              ///< fallback reason etc.
  PlanCost cost;
  PhaseBreakdown phases;
  double measured_gflops = 0.0;  ///< cost.flops / wall
  double attainable_gflops = 0.0;///< min(peak, oi * bw) on the host model
  double pct_of_attainable = 0.0;
  bool memory_bound = true;      ///< oi left of the host ridge point
};

/// Joins the three halves into a row.  `wall_s` is the run's wall clock.
AttributionRow attribute_run(const std::string& benchmark, exec::Route route,
                             const PlanCost& cost, const PhaseBreakdown& phases,
                             const machine::MachineModel& host);

/// {"schema":"msc-attr-v1","machine":{...},"rows":[...]}
workload::Json attribution_json(const std::vector<AttributionRow>& rows,
                                const machine::MachineModel& host);

/// Markdown table (msc-prof --attribute output, also the CI artifact).
std::string attribution_markdown(const std::vector<AttributionRow>& rows,
                                 const machine::MachineModel& host);

}  // namespace msc::prof
