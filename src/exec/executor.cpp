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

std::string per_step_halo_reason(Boundary bc) {
  return "boundary '" + boundary_name(bc) + "' needs a per-step halo exchange";
}

/// The flight plan key of a run: its extents, term count and the tile
/// count its route works in (sweep tiles, or wedges on the wedge route).
std::uint64_t fingerprint(const LoopPlan& plan, std::size_t nterms, std::size_t ntiles,
                          std::uint64_t extra) {
  return prof::plan_fingerprint(
      static_cast<std::uint64_t>(plan.extent[0]), static_cast<std::uint64_t>(plan.extent[1]),
      static_cast<std::uint64_t>(plan.extent[2]), nterms, ntiles, extra);
}

/// A Lower span, stamped with the flight key of the plan it produced: the
/// key is known only once lowering is done, so the span is recorded then.
class LowerSpan {
 public:
  LowerSpan() : start_ns_(prof::flight_now_ns()) {}
  void finish(const ExecPlan& plan, std::int64_t tiles) const {
    const prof::FlightPlanScope stamp(plan.fingerprint);
    prof::global_flight().record(prof::FlightKind::Lower, start_ns_, prof::flight_now_ns(),
                                 tiles, static_cast<std::int64_t>(plan.route));
  }

 private:
  std::uint64_t start_ns_;
};

/// Emits/compiles/loads the AOT module into `plan`, or leaves it null after
/// recording and counting why it cannot run.
void acquire_aot(const ir::StencilDef& st, const schedule::Schedule& sched,
                 const ExecOptions& opts, ExecPlan& plan) {
  std::string why;
  if (plan.bc != Boundary::ZeroHalo) {
    why = per_step_halo_reason(plan.bc);
  } else if (!host_cc_available(opts.aot.cc)) {
    why = "no host C compiler ('" + opts.aot.cc + "') on PATH";
  } else {
    plan.aot = detail::load_aot_module(st, sched, plan.lin, opts.aot, &plan.aot_info, &why,
                                       opts.cancel);
  }
  if (plan.aot != nullptr) return;
  const char* slug = aot_fallback_slug(why);
  prof::counter("aot.fallback").add(1);
  prof::counter(std::string("aot.fallback.") + slug).add(1);
  prof::LogEvent(prof::LogLevel::Warn, "exec.aot", "fallback to the in-process engines")
      .str("slug", slug)
      .str("reason", why)
      .str("stencil", st.name());
  plan.fallback_reason = std::move(why);
}

/// The AOT route's work split: the schedule's dim-0 bands (the distinct
/// dim-0 ranges of its sweep tiles) over team_members() members, else one
/// band of every row run by the caller.
void lower_aot_bands(ExecPlan& plan) {
  auto& bands = plan.bands;
  for (const auto& tile : plan.sweep.tiles) bands.emplace_back(tile.lo[0], tile.hi[0]);
  // Tiles are enumerated dim 0 outermost, so equal bands are adjacent.
  bands.erase(std::unique(bands.begin(), bands.end()), bands.end());
  plan.members = team_members(plan.sweep.parallel, plan.sweep.threads,
                              static_cast<std::int64_t>(bands.size()), plan.pool);
  if (plan.members <= 1) bands.assign(1, {0, plan.loop.extent[0]});
}

/// The grid must have the geometry the plan was lowered for.
template <typename T>
void check_geometry(const ExecPlan& plan, const GridStorage<T>& state) {
  MSC_CHECK(plan.loop.ndim == state.ndim()) << "plan rank mismatch";
  for (int d = 0; d < plan.loop.ndim; ++d)
    MSC_CHECK(plan.loop.extent[static_cast<std::size_t>(d)] == state.extent(d))
        << "schedule extent mismatch in dim " << d;
  if (plan.aot == nullptr) return;
  MSC_CHECK(plan.aot->padded_points == state.padded_points())
      << "AOT module geometry mismatch: " << plan.aot->padded_points
      << " padded points vs grid " << state.padded_points();
  MSC_CHECK(plan.aot->window == state.slots())
      << "AOT module window " << plan.aot->window << " vs grid " << state.slots();
}

/// Route::Sweep: one row sweep and one halo fill per timestep, the token
/// checked before each.  Sets `done` to each step as it finishes and
/// returns the points updated.
template <typename T>
std::int64_t sweep_steps(const ExecPlan& plan, GridStorage<T>& state, std::int64_t t_begin,
                         std::int64_t t_end, const CancelToken* cancel, std::int64_t& done) {
  const prof::FlightPlanScope flight_plan(plan.fingerprint);
  for (int back = 1; back < plan.time_window; ++back)
    state.fill_halo(state.slot_for_time(t_begin - back), plan.bc);

  const auto nterms = static_cast<std::int64_t>(plan.lin.terms.size());
  std::int64_t points = 0;
  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    if (cancel != nullptr) cancel->checkpoint("sweep.step");
    prof::FlightScope flight_step(prof::FlightKind::Step, 0, nterms);
    const int out_slot = state.slot_for_time(t);
    const std::int64_t swept = run_sweep(plan.sweep, state, state.slot_data(out_slot),
                                         resolve_terms(plan.lin, state, t), plan.pool);
    flight_step.set_a(swept);
    state.fill_halo(out_slot, plan.bc);
    points += swept;
    done = t;
  }
  return points;
}

/// The wedge plan of [t_begin, t_end]: lowered (one Lower span) the first
/// time a range of this length runs, else the kept plan rebased onto the
/// range — lower_temporal reads the range only through its length.
const TemporalPlan& wedge_plan(ExecPlan& plan, std::int64_t t_begin, std::int64_t t_end) {
  auto& w = plan.wedges;
  if (w.has_value() && w->t_end - w->t_begin == t_end - t_begin) {
    w->t_begin = t_begin;
    w->t_end = t_end;
    return *w;
  }
  const LowerSpan span;
  w = lower_temporal(plan.loop, plan.time_window, plan.skew, t_begin, t_end);
  plan.fingerprint = fingerprint(plan.loop, plan.lin.terms.size(), w->full.wedges.size(),
                                 static_cast<std::uint64_t>(w->wedge_depth));
  span.finish(plan, static_cast<std::int64_t>(w->full.wedges.size()));
  return *w;
}

/// Route::Temporal: the wedge engine over the whole range.  The halos are
/// zero and sweeps never write them, so one fill per ring slot up front
/// leaves every read — and the final grid — exactly as the per-step fill
/// would.  The token and `done` work per time block (run_temporal_sweep).
template <typename T>
std::int64_t wedge_steps(ExecPlan& plan, GridStorage<T>& state, std::int64_t t_begin,
                         std::int64_t t_end, const CancelToken* cancel, ExecInfo& info,
                         std::int64_t& done) {
  const TemporalPlan& tplan = wedge_plan(plan, t_begin, t_end);
  info.blocks = tplan.blocks();
  info.wedges = static_cast<std::int64_t>(tplan.full.wedges.size());
  info.wedge_depth = tplan.wedge_depth;
  info.wedge_width = tplan.wedge_width;
  info.dep_span = tplan.dep_span;

  for (int s = 0; s < state.slots(); ++s) state.fill_halo(s, Boundary::ZeroHalo);
  const prof::FlightPlanScope flight_plan(plan.fingerprint);
  return run_temporal_sweep(tplan, plan.lin, state, plan.pool, cancel, done);
}

/// Route::Aot: the compiled kernel, zero halos filled once up front as for
/// the wedges.  Each step runs the plan's dim-0 bands through
/// msc_aot_rows, spread over the pool under the same rule as run_sweep's
/// tiles.  Member m of the team always runs the same bands, so they stay
/// in its core's cache from step to step.  Bands are disjoint and the ring
/// slots a step reads are not written during it, so concurrent calls are
/// safe and every point is computed exactly as by a serial call.  Compiled
/// code cannot poll a token, so it is checked on the caller before each
/// step.
template <typename T>
std::int64_t aot_steps(const ExecPlan& plan, GridStorage<T>& state, std::int64_t t_begin,
                       std::int64_t t_end, const CancelToken* cancel, std::int64_t& done) {
  for (int s = 0; s < state.slots(); ++s) state.fill_halo(s, Boundary::ZeroHalo);
  std::vector<void*> slots;
  slots.reserve(static_cast<std::size_t>(state.slots()));
  for (int s = 0; s < state.slots(); ++s) slots.push_back(state.slot_data(s));

  const auto& mod = *plan.aot;
  const auto& bands = plan.bands;
  const std::int64_t points_per_row = state.tensor()->interior_points() / plan.loop.extent[0];
  const prof::FlightPlanScope flight_plan(plan.fingerprint);
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
    if (plan.members > 1)
      (plan.pool != nullptr ? *plan.pool : global_pool())
          .parallel_for(0, static_cast<std::int64_t>(bands.size()), run_bands, plan.members);
    else
      run_bands(0, 1);
    done = t;
  }
  return state.tensor()->interior_points() * (t_end - t_begin + 1);
}

}  // namespace

ExecPlan lower(const ir::StencilDef& st, const schedule::Schedule& sched,
               const Bindings& bindings, Boundary bc, const ExecOptions& opts) {
  const LowerSpan span;
  auto lin = linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value())
      << "run_scheduled requires an affine stencil (use run_reference for the generic fragment)";
  ExecPlan plan;
  plan.lin = std::move(*lin);
  plan.loop = build_loop_plan(sched);
  plan.sweep = lower_sweep(plan.loop);
  plan.bc = bc;
  plan.time_window = st.time_window();
  plan.skew = st.max_radius();
  plan.pool = opts.pool;

  // Route selection: a requested engine that cannot run falls through to
  // the next rule with its reason recorded and counted.
  if (opts.backend == HostBackend::Aot) acquire_aot(st, sched, opts, plan);
  if (plan.aot != nullptr) {
    plan.route = Route::Aot;
    plan.aot_info.aot = true;
    lower_aot_bands(plan);
  } else if (plan.loop.time_depth > 1) {
    if (bc == Boundary::ZeroHalo) {
      plan.route = Route::Temporal;
    } else {
      prof::counter("sweep.temporal.fallback").add(1);
      if (plan.fallback_reason.empty()) plan.fallback_reason = per_step_halo_reason(bc);
    }
  }
  // The wedge route re-keys the plan with each wedge plan it lowers.
  plan.fingerprint = fingerprint(plan.loop, plan.lin.terms.size(), plan.sweep.tiles.size(),
                                 plan.route == Route::Aot ? 0xA07 : 0);
  span.finish(plan, static_cast<std::int64_t>(plan.sweep.tiles.size()));
  return plan;
}

template <typename T>
void execute(ExecPlan& plan, GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end,
             ExecStats* stats, const CancelToken* cancel, ExecInfo* info) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  check_geometry(plan, state);

  // Adds `nsteps` finished steps to `stats` and the exec.* counters.
  const auto account = [&](std::int64_t nsteps, std::int64_t points) {
    const std::int64_t flops = 2 * static_cast<std::int64_t>(plan.lin.terms.size()) * points;
    detail::count_run(points, flops, nsteps);
    if (stats != nullptr) {
      stats->timesteps += nsteps;
      stats->points_updated += points;
      stats->flops += flops;
    }
  };

  ExecInfo local;
  ExecInfo& out = info != nullptr ? *info : local;
  out = ExecInfo{};
  out.route = plan.route;
  out.fallback_reason = plan.fallback_reason;
  out.aot = plan.aot_info;
  out.plan_reused = plan.runs > 0;
  // A kept plan keeps its module: no emit, no compile, no dlopen.
  if (out.plan_reused && plan.route == Route::Aot) out.aot.cache_hit = true;
  ++plan.runs;

  // Every Cancelled leaves with the last finished step, counted, so the
  // caller can resume from it.
  std::int64_t done = t_begin - 1;
  std::int64_t points = 0;
  try {
    switch (plan.route) {
      case Route::Sweep:
        points = sweep_steps(plan, state, t_begin, t_end, cancel, done);
        break;
      case Route::Temporal:
        points = wedge_steps(plan, state, t_begin, t_end, cancel, out, done);
        break;
      case Route::Aot:
        points = aot_steps(plan, state, t_begin, t_end, cancel, done);
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

template void execute<float>(ExecPlan&, GridStorage<float>&, std::int64_t, std::int64_t,
                             ExecStats*, const CancelToken*, ExecInfo*);
template void execute<double>(ExecPlan&, GridStorage<double>&, std::int64_t, std::int64_t,
                              ExecStats*, const CancelToken*, ExecInfo*);

template <typename T>
void run_scheduled(const ir::StencilDef& st, const schedule::Schedule& sched,
                   GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end, Boundary bc,
                   const Bindings& bindings, ExecStats* stats, const ExecOptions& opts,
                   ExecInfo* info) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  ExecPlan plan = [&] {
    try {
      return lower(st, sched, bindings, bc, opts);
    } catch (Cancelled& c) {
      c.set_completed_through(t_begin - 1);  // no step ran, the grid is untouched
      throw;
    }
  }();
  execute(plan, state, t_begin, t_end, stats, opts.cancel, info);
}

template void run_scheduled<float>(const ir::StencilDef&, const schedule::Schedule&,
                                   GridStorage<float>&, std::int64_t, std::int64_t, Boundary,
                                   const Bindings&, ExecStats*, const ExecOptions&, ExecInfo*);
template void run_scheduled<double>(const ir::StencilDef&, const schedule::Schedule&,
                                    GridStorage<double>&, std::int64_t, std::int64_t, Boundary,
                                    const Bindings&, ExecStats*, const ExecOptions&, ExecInfo*);

}  // namespace msc::exec
