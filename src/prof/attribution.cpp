#include "prof/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "exec/sweep.hpp"
#include "exec/temporal_sweep.hpp"
#include "support/error.hpp"

namespace msc::prof {

namespace {

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

PlanCost attribute_plan(const ir::StencilDef& st, const schedule::Schedule& sched,
                        exec::Route route, int dtype_bytes, std::int64_t t_begin,
                        std::int64_t t_end, const exec::Bindings& bindings) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  MSC_CHECK(dtype_bytes > 0) << "bad element size";
  const auto lin = exec::linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value())
      << "attribution requires an affine stencil (stencil '" << st.name()
      << "' leaves the linear fragment)";

  PlanCost c;
  c.steps = t_end - t_begin + 1;
  c.terms = static_cast<std::int64_t>(lin->terms.size());
  const ir::TensorDecl& grid = *st.state();
  c.interior_points = grid.interior_points();
  c.flops = 2 * c.terms * c.interior_points * c.steps;

  std::set<int> slots;
  for (const auto& term : lin->terms) slots.insert(term.time_offset);
  c.input_slots = static_cast<std::int64_t>(slots.size());

  // Per-step engines stream every distinct input slot once per step; the
  // wedge engine streams them once per time *block* — that reuse is the
  // entire point of the temporal lowering, and the block count here comes
  // from the same lower_temporal() the engine executes.
  c.wedge_depth = 1;
  c.blocks = c.steps;
  if (route == exec::Route::Temporal) {
    const exec::LoopPlan plan = exec::build_loop_plan(sched);
    const exec::TemporalPlan tplan =
        lower_temporal(plan, st.time_window(), st.max_radius(), t_begin, t_end);
    c.wedge_depth = tplan.wedge_depth;
    c.blocks = tplan.blocks();
  }

  c.bytes_written = c.steps * c.interior_points * dtype_bytes;
  c.bytes_read = c.blocks * c.input_slots * grid.padded_points() * dtype_bytes;
  const double total_bytes = static_cast<double>(c.bytes_read + c.bytes_written);
  c.oi = total_bytes > 0 ? static_cast<double>(c.flops) / total_bytes : 0.0;
  return c;
}

PhaseBreakdown bucket_phases(const std::vector<FlightThreadDump>& dumps, double wall_s) {
  PhaseBreakdown p;
  p.wall_s = wall_s;
  double busiest = 0.0;
  for (const auto& d : dumps) {
    double thread_total = 0.0;
    for (const auto& ev : d.events) {
      const double s = static_cast<double>(ev.dur_ns) * 1e-9;
      switch (ev.kind) {
        // Leaf compute spans only: Step, WedgeBlock and AotRun are
        // structural parents of RowChunk / Wedge and would double-count.
        case FlightKind::RowChunk:
        case FlightKind::Wedge:
          p.compute_s += s;
          thread_total += s;
          ++p.events;
          break;
        case FlightKind::WedgeWait:
          p.wedge_wait_s += s;
          thread_total += s;
          ++p.events;
          break;
        case FlightKind::AotCacheProbe:
        case FlightKind::AotCompile:
        case FlightKind::AotDlopen:
          p.aot_pipeline_s += s;
          thread_total += s;
          ++p.events;
          break;
        default:
          break;
      }
    }
    busiest = std::max(busiest, thread_total);
  }
  p.dispatch_s = std::max(0.0, wall_s - busiest);
  return p;
}

AttributionRow attribute_run(const std::string& benchmark, exec::Route route,
                             const PlanCost& cost, const PhaseBreakdown& phases,
                             const machine::MachineModel& host) {
  AttributionRow row;
  row.benchmark = benchmark;
  row.route = route;
  row.cost = cost;
  row.phases = phases;
  if (phases.wall_s > 0)
    row.measured_gflops = static_cast<double>(cost.flops) / phases.wall_s / 1e9;
  const double peak = host.peak_gflops();
  const double bw_bound = cost.oi * host.mem_bw_gbs;
  row.attainable_gflops = std::min(peak, bw_bound);
  row.memory_bound = cost.oi < host.ridge_flop_per_byte();
  if (row.attainable_gflops > 0)
    row.pct_of_attainable = 100.0 * row.measured_gflops / row.attainable_gflops;
  return row;
}

workload::Json attribution_json(const std::vector<AttributionRow>& rows,
                                const machine::MachineModel& host) {
  using workload::Json;
  Json doc = Json::object();
  doc["schema"] = Json::string("msc-attr-v1");
  Json machine = Json::object();
  machine["name"] = Json::string(host.name);
  machine["threads"] = Json::integer(host.cores);
  machine["peak_gflops_fp64"] = Json::number(host.peak_gflops());
  machine["mem_bw_gbs"] = Json::number(host.mem_bw_gbs);
  machine["ridge_flop_per_byte"] = Json::number(host.ridge_flop_per_byte());
  doc["machine"] = std::move(machine);

  Json arr = Json::array();
  for (const AttributionRow& r : rows) {
    Json j = Json::object();
    j["benchmark"] = Json::string(r.benchmark);
    j["backend"] = Json::string(exec::route_name(r.route));
    j["ran"] = Json::boolean(r.ran);
    if (!r.note.empty()) j["note"] = Json::string(r.note);
    j["steps"] = Json::integer(r.cost.steps);
    j["terms"] = Json::integer(r.cost.terms);
    j["interior_points"] = Json::integer(r.cost.interior_points);
    j["flops"] = Json::integer(r.cost.flops);
    j["bytes_read"] = Json::integer(r.cost.bytes_read);
    j["bytes_written"] = Json::integer(r.cost.bytes_written);
    j["input_slots"] = Json::integer(r.cost.input_slots);
    j["wedge_depth"] = Json::integer(r.cost.wedge_depth);
    j["blocks"] = Json::integer(r.cost.blocks);
    j["oi_flop_per_byte"] = Json::number(r.cost.oi);
    j["wall_s"] = Json::number(r.phases.wall_s);
    j["compute_s"] = Json::number(r.phases.compute_s);
    j["wedge_wait_s"] = Json::number(r.phases.wedge_wait_s);
    j["aot_pipeline_s"] = Json::number(r.phases.aot_pipeline_s);
    j["dispatch_s"] = Json::number(r.phases.dispatch_s);
    j["flight_events"] = Json::integer(r.phases.events);
    j["gf_per_s"] = Json::number(r.measured_gflops);
    j["attainable_gf_per_s"] = Json::number(r.attainable_gflops);
    j["pct_attainable"] = Json::number(r.pct_of_attainable);
    j["bound"] = Json::string(r.memory_bound ? "memory" : "compute");
    arr.push_back(std::move(j));
  }
  doc["rows"] = std::move(arr);
  return doc;
}

std::string attribution_markdown(const std::vector<AttributionRow>& rows,
                                 const machine::MachineModel& host) {
  std::string out;
  out += "## Measured host roofline (msc-attr-v1)\n\n";
  out += "machine: " + host.name + " — peak " + fmt("%.1f", host.peak_gflops()) +
         " GF/s, bw " + fmt("%.1f", host.mem_bw_gbs) + " GB/s, ridge " +
         fmt("%.2f", host.ridge_flop_per_byte()) + " F/B\n\n";
  out +=
      "| benchmark | backend | GF/s | OI (F/B) | attainable | % attain | bound "
      "| compute s | wait s | aot s | dispatch s | note |\n";
  out +=
      "|---|---|---:|---:|---:|---:|---|---:|---:|---:|---:|---|\n";
  for (const AttributionRow& r : rows) {
    out += "| " + r.benchmark + " | " + exec::route_name(r.route);
    if (!r.ran) {
      out += " | - | - | - | - | - | - | - | - | - | " +
             (r.note.empty() ? std::string("fallback") : r.note) + " |\n";
      continue;
    }
    out += " | " + fmt("%.2f", r.measured_gflops);
    out += " | " + fmt("%.3f", r.cost.oi);
    out += " | " + fmt("%.2f", r.attainable_gflops);
    out += " | " + fmt("%.1f", r.pct_of_attainable);
    out += std::string(" | ") + (r.memory_bound ? "memory" : "compute");
    out += " | " + fmt("%.4f", r.phases.compute_s);
    out += " | " + fmt("%.4f", r.phases.wedge_wait_s);
    out += " | " + fmt("%.4f", r.phases.aot_pipeline_s);
    out += " | " + fmt("%.4f", r.phases.dispatch_s);
    out += " | " + r.note + " |\n";
  }
  return out;
}

}  // namespace msc::prof
