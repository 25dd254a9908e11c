#include "exec/executor.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "exec/aot_backend.hpp"
#include "exec/temporal_sweep.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/log.hpp"
#include "support/shell.hpp"

namespace msc::exec {

std::optional<LinearKernel> linearize_stencil(const ir::StencilDef& st,
                                              const Bindings& bindings) {
  LinearKernel combined;
  combined.input = st.state()->name();
  for (const auto& term : st.terms()) {
    const auto lin = linearize(*term.kernel, bindings);
    if (!lin.has_value()) return std::nullopt;
    if (lin->input != combined.input) return std::nullopt;
    for (auto lt : lin->terms) {
      lt.coeff *= term.weight;
      lt.time_offset += term.time_offset;
      combined.terms.push_back(lt);
    }
  }
  return combined;
}

namespace detail {

void count_run(std::int64_t points, std::int64_t flops, std::int64_t steps) {
  static prof::Counter& points_counter = prof::counter("exec.points_updated");
  static prof::Counter& flops_counter = prof::counter("exec.flops");
  static prof::Counter& steps_counter = prof::counter("exec.timesteps");
  points_counter.add(points);
  flops_counter.add(flops);
  steps_counter.add(steps);
}

}  // namespace detail

const char* route_name(Route r) {
  switch (r) {
    case Route::Sweep: return "sweep";
    case Route::Temporal: return "temporal";
    case Route::Aot: return "aot";
  }
  return "?";
}

namespace {

/// build_loop_plan plus the check that the schedule was built for `state`.
template <typename T>
LoopPlan checked_loop_plan(const schedule::Schedule& sched, const GridStorage<T>& state) {
  LoopPlan plan = build_loop_plan(sched);
  MSC_CHECK(plan.ndim == state.ndim()) << "plan rank mismatch";
  for (int d = 0; d < plan.ndim; ++d)
    MSC_CHECK(plan.extent[static_cast<std::size_t>(d)] == state.extent(d))
        << "schedule extent mismatch in dim " << d;
  return plan;
}

std::string per_step_halo_reason(Boundary bc) {
  return "boundary '" + boundary_name(bc) + "' needs a per-step halo exchange";
}

/// Emits/compiles/loads the AOT module for this run, or returns nullptr
/// after recording and counting why it cannot run.
template <typename T>
std::shared_ptr<detail::AotModule> acquire_aot(const ir::StencilDef& st,
                                               const schedule::Schedule& sched,
                                               const GridStorage<T>& state, Boundary bc,
                                               const Bindings& bindings,
                                               const ExecOptions& opts, ExecInfo& info) {
  std::string why;
  std::shared_ptr<detail::AotModule> mod;
  if (bc != Boundary::ZeroHalo) {
    why = per_step_halo_reason(bc);
  } else if (!host_cc_available(opts.aot.cc)) {
    why = "no host C compiler ('" + opts.aot.cc + "') on PATH";
  } else {
    mod = detail::load_aot_module(st, sched, bindings, opts.aot, &info.aot, &why, opts.cancel);
  }
  if (mod != nullptr) {
    MSC_CHECK(mod->padded_points == state.padded_points())
        << "AOT module geometry mismatch: " << mod->padded_points
        << " padded points vs grid " << state.padded_points();
    MSC_CHECK(mod->window == state.slots())
        << "AOT module window " << mod->window << " vs grid " << state.slots();
    return mod;
  }
  const char* slug = aot_fallback_slug(why);
  prof::counter("aot.fallback").add(1);
  prof::counter(std::string("aot.fallback.") + slug).add(1);
  prof::LogEvent(prof::LogLevel::Warn, "exec.aot", "fallback to the in-process engines")
      .str("slug", slug)
      .str("reason", why)
      .str("stencil", st.name());
  info.fallback_reason = std::move(why);
  return nullptr;
}

/// The flight plan key of a run: its extents, term count and the tile
/// count its route works in (sweep tiles, or wedges on the wedge route).
std::uint64_t fingerprint(const LoopPlan& plan, std::size_t nterms, std::size_t ntiles,
                          std::uint64_t extra) {
  return prof::plan_fingerprint(
      static_cast<std::uint64_t>(plan.extent[0]), static_cast<std::uint64_t>(plan.extent[1]),
      static_cast<std::uint64_t>(plan.extent[2]), nterms, ntiles, extra);
}

/// Route::Sweep: one row sweep and one halo fill per timestep, the token
/// checked before each.  Sets `done` to each step as it finishes and
/// returns the points updated.
template <typename T>
std::int64_t sweep_steps(const ir::StencilDef& st, const LoopPlan& plan,
                         const LinearKernel& lin, GridStorage<T>& state, std::int64_t t_begin,
                         std::int64_t t_end, Boundary bc, ThreadPool* pool,
                         const CancelToken* cancel, std::int64_t& done) {
  const SweepPlan sweep = lower_sweep(plan);
  const prof::FlightPlanScope flight_plan(
      fingerprint(plan, lin.terms.size(), sweep.tiles.size(), 0));
  for (int back = 1; back < st.time_window(); ++back)
    state.fill_halo(state.slot_for_time(t_begin - back), bc);

  std::int64_t points = 0;
  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    if (cancel != nullptr) cancel->checkpoint("sweep.step");
    prof::FlightScope flight_step(prof::FlightKind::Step, 0,
                                  static_cast<std::int64_t>(lin.terms.size()));
    const int out_slot = state.slot_for_time(t);
    const std::int64_t swept =
        run_sweep(sweep, state, state.slot_data(out_slot), resolve_terms(lin, state, t), pool);
    flight_step.set_a(swept);
    state.fill_halo(out_slot, bc);
    points += swept;
    done = t;
  }
  return points;
}

/// Route::Temporal: the wedge engine over the whole range.  The halos are
/// zero and sweeps never write them, so one fill per ring slot up front
/// leaves every read — and the final grid — exactly as the per-step fill
/// would.  The token and `done` work per time block (run_temporal_sweep).
template <typename T>
std::int64_t wedge_steps(const ir::StencilDef& st, const LoopPlan& plan,
                         const LinearKernel& lin, GridStorage<T>& state, std::int64_t t_begin,
                         std::int64_t t_end, const ExecOptions& opts, ExecInfo& info,
                         std::int64_t& done) {
  const TemporalPlan tplan =
      lower_temporal(plan, st.time_window(), st.max_radius(), t_begin, t_end);
  info.blocks = tplan.blocks();
  info.wedges = static_cast<std::int64_t>(tplan.full.wedges.size());
  info.wedge_depth = tplan.wedge_depth;
  info.wedge_width = tplan.wedge_width;
  info.dep_span = tplan.dep_span;

  for (int s = 0; s < state.slots(); ++s) state.fill_halo(s, Boundary::ZeroHalo);
  const prof::FlightPlanScope flight_plan(
      fingerprint(plan, lin.terms.size(), tplan.full.wedges.size(),
                  static_cast<std::uint64_t>(tplan.wedge_depth)));
  return run_temporal_sweep(tplan, lin, state, opts.pool, opts.cancel, done);
}

/// Route::Aot: the compiled kernel, zero halos filled once up front as for
/// the wedges.  Each step runs the schedule's dim-0 bands (the distinct
/// dim-0 ranges of its sweep tiles) through msc_aot_rows, spread over the
/// pool under the same rule as run_sweep's tiles, else one call over every
/// row.  Member m of the team always runs the same bands, so they stay in
/// its core's cache from step to step.  Bands are disjoint and the ring
/// slots a step reads are not written during it, so concurrent calls are
/// safe and every point is computed exactly as by a serial call.  Compiled
/// code cannot poll a token, so it is checked on the caller before each
/// step.
template <typename T>
std::int64_t aot_steps(const LoopPlan& plan, const LinearKernel& lin,
                       const detail::AotModule& mod, GridStorage<T>& state,
                       std::int64_t t_begin, std::int64_t t_end, ThreadPool* pool,
                       const CancelToken* cancel, std::int64_t& done) {
  for (int s = 0; s < state.slots(); ++s) state.fill_halo(s, Boundary::ZeroHalo);
  std::vector<void*> slots;
  slots.reserve(static_cast<std::size_t>(state.slots()));
  for (int s = 0; s < state.slots(); ++s) slots.push_back(state.slot_data(s));

  const SweepPlan sweep = lower_sweep(plan);
  std::vector<std::pair<std::int64_t, std::int64_t>> bands;
  for (const auto& tile : sweep.tiles) bands.emplace_back(tile.lo[0], tile.hi[0]);
  // Tiles are enumerated dim 0 outermost, so equal bands are adjacent.
  bands.erase(std::unique(bands.begin(), bands.end()), bands.end());
  const auto nbands = static_cast<std::int64_t>(bands.size());
  const std::int64_t members = team_members(sweep.parallel, sweep.threads, nbands, pool);
  if (members <= 1) bands.assign(1, {0, plan.extent[0]});
  const std::int64_t points_per_row = state.tensor()->interior_points() / plan.extent[0];

  const prof::FlightPlanScope flight_plan(
      fingerprint(plan, lin.terms.size(), sweep.tiles.size(), 0xA07));
  prof::FlightScope flight_run(prof::FlightKind::AotRun, t_end - t_begin + 1);
  std::int64_t t = t_begin;
  const auto run_bands = [&](std::int64_t lo, std::int64_t hi) {
    prof::FlightScope flight(prof::FlightKind::RowChunk, 0, hi - lo);
    std::int64_t rows = 0;
    for (std::int64_t n = lo; n < hi; ++n) {
      const auto& [r0, r1] = bands[static_cast<std::size_t>(n)];
      mod.rows(slots.data(), static_cast<long>(t), static_cast<long>(r0),
               static_cast<long>(r1));
      rows += r1 - r0;
    }
    flight.set_a(rows * points_per_row);
  };
  for (; t <= t_end; ++t) {
    if (cancel != nullptr) cancel->checkpoint("aot.step");
    if (members > 1)
      (pool != nullptr ? *pool : global_pool()).parallel_for(0, nbands, run_bands, members);
    else
      run_bands(0, 1);
    done = t;
  }
  return state.tensor()->interior_points() * (t_end - t_begin + 1);
}

}  // namespace

template <typename T>
void run_scheduled(const ir::StencilDef& st, const schedule::Schedule& sched,
                   GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end, Boundary bc,
                   const Bindings& bindings, ExecStats* stats, const ExecOptions& opts,
                   ExecInfo* info) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  const auto lin = linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value())
      << "run_scheduled requires an affine stencil (use run_reference for the generic fragment)";
  const LoopPlan plan = checked_loop_plan(sched, state);

  // Adds `nsteps` finished steps to `stats` and the exec.* counters.
  const auto account = [&](std::int64_t nsteps, std::int64_t points) {
    const std::int64_t flops = 2 * static_cast<std::int64_t>(lin->terms.size()) * points;
    detail::count_run(points, flops, nsteps);
    if (stats != nullptr) {
      stats->timesteps += nsteps;
      stats->points_updated += points;
      stats->flops += flops;
    }
  };

  // Route selection: a requested engine that cannot run falls through to
  // the next rule with its reason recorded and counted.  Every Cancelled
  // leaves with the last finished step, counted, so the caller can resume
  // from it.
  ExecInfo local;
  ExecInfo& out = info != nullptr ? *info : local;
  out = ExecInfo{};
  std::int64_t done = t_begin - 1;
  std::int64_t points = 0;
  try {
    std::shared_ptr<detail::AotModule> mod;
    if (opts.backend == HostBackend::Aot)
      mod = acquire_aot(st, sched, state, bc, bindings, opts, out);
    if (mod != nullptr) {
      out.route = Route::Aot;
      out.aot.aot = true;
    } else if (plan.time_depth > 1) {
      if (bc == Boundary::ZeroHalo) {
        out.route = Route::Temporal;
      } else {
        prof::counter("sweep.temporal.fallback").add(1);
        if (out.fallback_reason.empty()) out.fallback_reason = per_step_halo_reason(bc);
      }
    }

    switch (out.route) {
      case Route::Sweep:
        points = sweep_steps(st, plan, *lin, state, t_begin, t_end, bc, opts.pool, opts.cancel,
                             done);
        break;
      case Route::Temporal:
        points = wedge_steps(st, plan, *lin, state, t_begin, t_end, opts, out, done);
        break;
      case Route::Aot:
        points = aot_steps(plan, *lin, *mod, state, t_begin, t_end, opts.pool, opts.cancel, done);
        break;
    }
  } catch (Cancelled& c) {
    // Every route updates each interior point once per finished step.
    const std::int64_t finished = done - t_begin + 1;
    account(finished, state.tensor()->interior_points() * finished);
    c.set_completed_through(done);
    throw;
  }
  account(t_end - t_begin + 1, points);
}

template void run_scheduled<float>(const ir::StencilDef&, const schedule::Schedule&,
                                   GridStorage<float>&, std::int64_t, std::int64_t, Boundary,
                                   const Bindings&, ExecStats*, const ExecOptions&, ExecInfo*);
template void run_scheduled<double>(const ir::StencilDef&, const schedule::Schedule&,
                                    GridStorage<double>&, std::int64_t, std::int64_t, Boundary,
                                    const Bindings&, ExecStats*, const ExecOptions&, ExecInfo*);

}  // namespace msc::exec
