#pragma once

// Host executors for stencil programs.
//
//  * run_reference — serial, definition-order sweep straight off the IR;
//    the ground truth for correctness checks (paper §5.1 measures relative
//    error of generated code against exactly such a serial version).
//  * run_scheduled — the one scheduled entry point.  It lowers the
//    kernel's Schedule once and picks the host engine itself:
//      1. the dlopen'd AOT kernel (aot_backend.hpp) when ExecOptions asks
//         for HostBackend::Aot;
//      2. otherwise the time-skewed wedges (temporal_sweep.hpp) when the
//         schedule's time_tile() depth is > 1 and the boundary is ZeroHalo;
//      3. otherwise the per-step row sweep (sweep.hpp).
//    An engine that was asked for but cannot run falls through to the next
//    rule, and ExecInfo says which engine ran and why another did not.
//  * run_scheduled_interpreted — the retired per-point recursive nest
//    interpreter, retained as the differential baseline the sweep engine
//    is tested (and benchmarked) against.
//
// All compute timesteps t_begin..t_end (inclusive) of a StencilDef,
// writing the output of step t into the state grid's ring slot for t and
// reading the slots of t-1, t-2, ... per the stencil's time terms.  The
// caller seeds the initial slots (t_begin-1 .. t_begin-window+1).

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/aot_info.hpp"
#include "exec/eval.hpp"
#include "exec/grid.hpp"
#include "exec/linearize.hpp"
#include "exec/sweep.hpp"
#include "ir/stencil.hpp"
#include "schedule/schedule.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace msc::exec {

/// Observable work counters filled by the executors (used by tests and by
/// the simulators' traffic accounting).
struct ExecStats {
  std::int64_t timesteps = 0;
  std::int64_t points_updated = 0;
  std::int64_t flops = 0;          ///< 2 per linear term (mul + add)
  std::int64_t tiles_executed = 0; ///< entries into the read buffer's compute_at level
  std::int64_t staged_bytes_in = 0;
  std::int64_t staged_bytes_out = 0;
};

/// The stencil's combined affine form: every (kernel, time term) pair
/// flattened to weighted linear terms against the single state grid.
/// nullopt when any member kernel leaves the affine fragment.
std::optional<LinearKernel> linearize_stencil(const ir::StencilDef& st,
                                              const Bindings& bindings);

/// Read-only auxiliary grids (coefficient fields etc.) keyed by tensor
/// name; the caller owns them and has filled their halos.
template <typename T>
using AuxGrids = std::map<std::string, const GridStorage<T>*>;

namespace detail {

/// Ticks the exec.points_updated, exec.flops and exec.timesteps counters
/// once per completed run, through cached Counter references.  Shared by
/// run_reference and run_scheduled so both account the same way.
void count_run(std::int64_t points, std::int64_t flops, std::int64_t steps);

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

}  // namespace detail

/// Serial reference executor (ground truth).  Affine stencils run through
/// the row-sweep engine on a single full-interior tile; stencils outside
/// the affine fragment fall back to the per-point expression evaluator.
/// Stencils whose kernels read auxiliary grids supply them via `aux`.
/// A run adds the steps it finished to `stats` and ticks the exec.*
/// counters once, as run_scheduled does, also when it is cancelled.
/// `cancel`, when non-null, is checked before each step ("reference.step");
/// the Cancelled it throws carries the last finished step, so calling again
/// from the step after it resumes the run bit-exactly, and the two calls
/// together count what one uninterrupted run would.
template <typename T>
void run_reference(const ir::StencilDef& st, GridStorage<T>& state, std::int64_t t_begin,
                   std::int64_t t_end, Boundary bc, const Bindings& bindings = {},
                   ExecStats* stats = nullptr, const AuxGrids<T>& aux = {},
                   const CancelToken* cancel = nullptr) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  MSC_CHECK(state.tensor()->name() == st.state()->name())
      << "grid '" << state.tensor()->name() << "' is not the stencil state '"
      << st.state()->name() << "'";

  // Seed halos of the initial window slots.
  for (int back = 1; back < st.time_window(); ++back)
    state.fill_halo(state.slot_for_time(t_begin - back), bc);

  const auto lin = linearize_stencil(st, bindings);
  SweepPlan plan;
  if (lin.has_value()) {
    std::array<std::int64_t, 3> extent{1, 1, 1};
    for (int d = 0; d < state.ndim(); ++d) extent[static_cast<std::size_t>(d)] = state.extent(d);
    plan = full_sweep(state.ndim(), extent);
  }

  std::int64_t flops = 0;  // the generic evaluator counts none
  // Adds `nsteps` finished steps (and the flops so far) to `stats` and the
  // exec.* counters.
  const auto account = [&](std::int64_t nsteps) {
    const std::int64_t points = state.tensor()->interior_points() * nsteps;
    detail::count_run(points, flops, nsteps);
    if (stats != nullptr) {
      stats->timesteps += nsteps;
      stats->points_updated += points;
      stats->flops += flops;
    }
  };
  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    if (cancel != nullptr) {
      try {
        cancel->checkpoint("reference.step");
      } catch (Cancelled& c) {
        account(t - t_begin);
        c.set_completed_through(t - 1);
        throw;
      }
    }
    const int out_slot = state.slot_for_time(t);
    T* out = state.slot_data(out_slot);

    if (lin.has_value()) {
      const auto terms = resolve_terms(*lin, state, t);
      flops += 2 * static_cast<std::int64_t>(terms.size()) * run_sweep(plan, state, out, terms);
    } else {
      // Generic path: evaluate each time term's kernel RHS per point.
      state.for_each_interior([&](std::array<std::int64_t, 3> c) {
        double acc = 0.0;
        for (const auto& term : st.terms()) {
          EvalEnv env;
          env.bindings = &bindings;
          const auto& axes = term.kernel->axes();
          for (std::size_t d = 0; d < axes.size(); ++d)
            env.axis_values[axes[d].id_var] = c[d];
          const std::int64_t term_time = t + term.time_offset;
          env.read = [&](const std::string& name, int toff,
                         std::array<std::int64_t, 3> coord) -> double {
            if (name == state.tensor()->name())
              return static_cast<double>(state.at(state.slot_for_time(term_time + toff), coord));
            const auto it = aux.find(name);
            MSC_CHECK(it != aux.end())
                << "stencil reads tensor '" << name << "' but no grid was supplied for it";
            return static_cast<double>(it->second->at(0, coord));
          };
          acc += term.weight * eval_expr(term.kernel->rhs(), env);
        }
        out[state.index(c)] = static_cast<T>(acc);
      });
    }

    state.fill_halo(out_slot, bc);
  }
  account(t_end - t_begin + 1);
}

/// The host engine a scheduled run took.
enum class Route {
  Sweep,     ///< per-step compiled row sweep
  Temporal,  ///< time-skewed wedges of time_tile() steps
  Aot,       ///< dlopen'd AOT-specialized kernel
};

/// "sweep", "temporal" or "aot".
const char* route_name(Route r);

/// Engine family a caller asks run_scheduled for.  Within Sweep, the
/// schedule's time_tile() and the boundary pick the per-step or the wedge
/// engine.
enum class HostBackend {
  Sweep,  ///< in-process compiled engines (default)
  Aot,    ///< AOT-specialized C compiled with the host cc and dlopen'd
};

/// Caller knobs of run_scheduled; none of them changes a result bit.
struct ExecOptions {
  HostBackend backend = HostBackend::Sweep;
  AotOptions aot;                       ///< compile settings under HostBackend::Aot
  const CancelToken* cancel = nullptr;  ///< checked between steps; see run_scheduled
  ThreadPool* pool = nullptr;           ///< worker team of every route; nullptr = global_pool()
};

/// What run_scheduled actually executed.  A fallback is never silent:
/// `fallback_reason` names the first requested engine that could not run,
/// and the aot.fallback.<slug> or sweep.temporal.fallback counter ticks.
struct ExecInfo {
  Route route = Route::Sweep;
  std::string fallback_reason;  ///< empty unless a requested engine fell back
  // Wedge decomposition, set when route == Temporal.
  std::int64_t blocks = 0;       ///< time blocks executed (incl. remainder)
  std::int64_t wedges = 0;       ///< wedge count of a full-depth block
  std::int64_t wedge_depth = 0;  ///< timesteps fused per full block
  std::int64_t wedge_width = 0;  ///< dim-0 rows per wedge
  std::int64_t dep_span = 0;     ///< wedges a step may read behind itself
  AotExecInfo aot;               ///< cache provenance; aot.aot == (route == Aot)
};

/// Scheduled executor: same numerics as run_reference — bit-identical on
/// every route — with loop structure, parallelism and engine taken from
/// `sched`, `bc` and `opts` (see the route rules at the top of this file).
/// The stencil must be affine.  `stats` and the
/// exec.points_updated/flops/timesteps counters are filled the same way on
/// every route.
///
/// With `opts.cancel` attached, the token is checked on the calling thread
/// where the ring is consistent: before each step on the sweep and AOT
/// routes ("sweep.step", "aot.step"), before each time block on the wedges
/// ("temporal.block"), and between the AOT pipeline stages.  A fired token
/// throws Cancelled with completed_through() set to the last finished step
/// (t_begin - 1 if none); its slots and halos are intact, so calling again
/// with t_begin = completed_through() + 1 finishes the run bit-exactly.  A
/// cancelled run adds the steps it finished to `stats` and the counters,
/// so the two calls together count what one uninterrupted run would.
template <typename T>
void run_scheduled(const ir::StencilDef& st, const schedule::Schedule& sched,
                   GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end, Boundary bc,
                   const Bindings& bindings = {}, ExecStats* stats = nullptr,
                   const ExecOptions& opts = {}, ExecInfo* info = nullptr);

extern template void run_scheduled<float>(const ir::StencilDef&, const schedule::Schedule&,
                                          GridStorage<float>&, std::int64_t, std::int64_t,
                                          Boundary, const Bindings&, ExecStats*,
                                          const ExecOptions&, ExecInfo*);
extern template void run_scheduled<double>(const ir::StencilDef&, const schedule::Schedule&,
                                           GridStorage<double>&, std::int64_t, std::int64_t,
                                           Boundary, const Bindings&, ExecStats*,
                                           const ExecOptions&, ExecInfo*);
/// The retired per-point interpreter: recurses through the schedule's loop
/// nest once per output element.  Numerically identical to run_scheduled;
/// kept as the baseline the sweep engine is differentially tested against
/// and the "before" side of bench_host_executor's speedup measurement.
template <typename T>
void run_scheduled_interpreted(const ir::StencilDef& st, const schedule::Schedule& sched,
                               GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end,
                               Boundary bc, const Bindings& bindings = {},
                               ExecStats* stats = nullptr) {
  MSC_CHECK(t_begin <= t_end) << "empty time range";
  const auto lin = linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value())
      << "run_scheduled_interpreted requires an affine stencil";

  const LoopPlan plan = detail::checked_loop_plan(sched, state);

  for (int back = 1; back < st.time_window(); ++back)
    state.fill_halo(state.slot_for_time(t_begin - back), bc);

  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    const int out_slot = state.slot_for_time(t);
    T* out = state.slot_data(out_slot);
    const auto terms = resolve_terms(*lin, state, t);

    // Recursive nest interpreter.  `base` accumulates tile origins from
    // Outer levels; Inner/Original levels produce final coordinates.
    auto run_nest = [&](auto&& self, std::size_t depth, std::array<std::int64_t, 3> base,
                        std::array<std::int64_t, 3> coord) -> void {
      if (depth == plan.levels.size()) {
        detail::sweep_point_linear(out, state.index(coord), terms);
        return;
      }
      const LoopLevel& lv = plan.levels[depth];
      const auto d = static_cast<std::size_t>(lv.dim);

      auto iterate = [&](std::int64_t lo, std::int64_t hi) {
        auto b = base;
        auto c = coord;
        for (std::int64_t v = lo; v < hi; ++v) {
          switch (lv.kind) {
            case LoopLevel::Kind::Original:
              c[d] = v;
              break;
            case LoopLevel::Kind::Outer:
              b[d] = v * lv.tile;
              break;
            case LoopLevel::Kind::Inner:
              c[d] = b[d] + v;
              if (c[d] >= plan.extent[d]) continue;  // remainder tile clamp
              break;
          }
          self(self, depth + 1, b, c);
        }
      };

      if (lv.parallel && lv.threads > 1) {
        global_pool().parallel_for(0, lv.trip,
                                   [&](std::int64_t lo, std::int64_t hi) { iterate(lo, hi); });
      } else {
        iterate(0, lv.trip);
      }
    };
    run_nest(run_nest, 0, {0, 0, 0}, {0, 0, 0});

    state.fill_halo(out_slot, bc);
    if (stats != nullptr) {
      const std::int64_t step_points = state.tensor()->interior_points();
      ++stats->timesteps;
      stats->points_updated += step_points;
      stats->flops += 2 * static_cast<std::int64_t>(terms.size()) * step_points;
      stats->tiles_executed += plan.tiles_per_step;
      stats->staged_bytes_in += plan.tiles_per_step * plan.tile_bytes_read;
      stats->staged_bytes_out += plan.tiles_per_step * plan.tile_bytes_write;
    }
  }
}

}  // namespace msc::exec
