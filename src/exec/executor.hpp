#pragma once

// Host executors for stencil programs.
//
//  * run_reference — serial, definition-order sweep straight off the IR;
//    the ground truth for correctness checks (paper §5.1 measures relative
//    error of generated code against exactly such a serial version).
//  * run_scheduled — the one scheduled entry point: execute(lower(...)).
//    Lower once, execute many:
//      - lower() turns a stencil + Schedule + bindings + boundary +
//        ExecOptions into an ExecPlan: the linear form, the loop and sweep
//        plans, the engine it picked and why, and on the AOT route the
//        dlopen'd module with its row bands.  Nothing in it depends on the
//        time range, so a caller that runs the same program again
//        (dsl::Program caches its plan) keeps it and skips all of that.
//      - execute() runs timesteps t_begin..t_end of a plan on a grid.
//    lower() picks the host engine itself:
//      1. the dlopen'd AOT kernel (aot_backend.hpp) when ExecOptions asks
//         for HostBackend::Aot;
//      2. otherwise the time-skewed wedges (temporal_sweep.hpp) when the
//         schedule's time_tile() depth is > 1 and the boundary is ZeroHalo;
//      3. otherwise the per-step row sweep (sweep.hpp).
//    An engine that was asked for but cannot run falls through to the next
//    rule, and ExecInfo says which engine ran and why another did not.
//
// run_reference is the one oracle: every scheduled route (tiled,
// pool-parallel or column-swept boxes, wedges, the AOT kernel) is checked
// bit for bit against its serial full-row sweep.
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
#include <utility>
#include <vector>

#include "exec/aot_info.hpp"
#include "exec/eval.hpp"
#include "exec/grid.hpp"
#include "exec/linearize.hpp"
#include "exec/sweep.hpp"
#include "exec/temporal_sweep.hpp"
#include "ir/stencil.hpp"
#include "schedule/schedule.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace msc::exec {

/// Work counters a host run adds to: the same three totals the exec.*
/// counters tick, for the one run a caller passes them to.  Host runs stage
/// nothing, so there is no DMA traffic here; the Sunway simulator and the
/// cost model account theirs from the Schedule's tiles.
struct ExecStats {
  std::int64_t timesteps = 0;
  std::int64_t points_updated = 0;
  std::int64_t flops = 0;  ///< 2 per linear term (mul + add)
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
/// and the aot.fallback.<slug> or sweep.temporal.fallback counter ticked
/// when the plan was lowered.
struct ExecInfo {
  Route route = Route::Sweep;
  std::string fallback_reason;  ///< empty unless a requested engine fell back
  bool plan_reused = false;      ///< ran a plan an earlier execute() already ran
  // Wedge decomposition, set when route == Temporal.
  std::int64_t blocks = 0;       ///< time blocks executed (incl. remainder)
  std::int64_t wedges = 0;       ///< wedge count of a full-depth block
  std::int64_t wedge_depth = 0;  ///< timesteps fused per full block
  std::int64_t wedge_width = 0;  ///< dim-0 rows per wedge
  std::int64_t dep_span = 0;     ///< wedges a step may read behind itself
  AotExecInfo aot;               ///< cache provenance; aot.aot == (route == Aot)
};

namespace detail {
class AotModule;  // exec/aot_backend.hpp
}  // namespace detail

/// A scheduled run lowered once: everything execute() needs that does not
/// depend on the time range.  Valid for grids of the stencil's state
/// geometry; execute() checks the grid against it.
struct ExecPlan {
  LinearKernel lin;            ///< the stencil's combined affine form
  LoopPlan loop;               ///< build_loop_plan(schedule)
  SweepPlan sweep;             ///< lower_sweep(loop)
  Route route = Route::Sweep;  ///< the engine lower() picked
  std::string fallback_reason; ///< why a requested engine could not run
  std::uint64_t fingerprint = 0;  ///< flight plan key (wedge route: of `wedges`)
  Boundary bc = Boundary::ZeroHalo;
  int time_window = 2;         ///< the stencil's ring slots
  std::int64_t skew = 0;       ///< the stencil's max radius
  ThreadPool* pool = nullptr;  ///< worker team (nullptr = global_pool())

  // Route::Aot: the module, its provenance, and the dim-0 row bands each
  // step runs, spread over `members` team members.
  std::shared_ptr<detail::AotModule> aot;
  AotExecInfo aot_info;
  std::vector<std::pair<std::int64_t, std::int64_t>> bands;
  std::int64_t members = 1;

  // Route::Temporal: the wedge plan depends on the step count, so
  // execute() lowers it for the first range of each length and rebases it
  // onto the time range of later runs of that length.
  std::optional<TemporalPlan> wedges;

  std::int64_t runs = 0;       ///< execute() calls so far
};

/// Lowers one scheduled run: linearizes the stencil (which must be affine),
/// builds the loop and sweep plans, and picks the engine by the route rules
/// at the top of this file; under HostBackend::Aot it also emits, compiles
/// and dlopens the module.  A fallback sets `fallback_reason`, ticks its
/// counter and logs once here, not per execute().  `opts.cancel` is polled
/// between the AOT pipeline stages; a fired token throws Cancelled.
/// Records one FlightKind::Lower span.
ExecPlan lower(const ir::StencilDef& st, const schedule::Schedule& sched,
               const Bindings& bindings, Boundary bc, const ExecOptions& opts);

/// Runs timesteps t_begin..t_end of `plan` on `state`: bit-identical to
/// run_reference on every route.  `stats` and the
/// exec.points_updated/flops/timesteps counters are filled the same way on
/// every route, and `info` reports the plan's route, fallback reason and
/// AOT provenance (a plan's later runs report plan_reused and, on the AOT
/// route, cache_hit).  Non-const because the wedge route keeps its wedge
/// plan in `plan`; one plan runs on one caller at a time.
///
/// With `cancel` attached, the token is checked on the calling thread
/// where the ring is consistent: before each step on the sweep and AOT
/// routes ("sweep.step", "aot.step") and before each time block on the
/// wedges ("temporal.block").  A fired token throws Cancelled with
/// completed_through() set to the last finished step (t_begin - 1 if none);
/// its slots and halos are intact, so calling again with t_begin =
/// completed_through() + 1 finishes the run bit-exactly.  A cancelled run
/// adds the steps it finished to `stats` and the counters, so the two calls
/// together count what one uninterrupted run would.
template <typename T>
void execute(ExecPlan& plan, GridStorage<T>& state, std::int64_t t_begin, std::int64_t t_end,
             ExecStats* stats = nullptr, const CancelToken* cancel = nullptr,
             ExecInfo* info = nullptr);

extern template void execute<float>(ExecPlan&, GridStorage<float>&, std::int64_t,
                                    std::int64_t, ExecStats*, const CancelToken*, ExecInfo*);
extern template void execute<double>(ExecPlan&, GridStorage<double>&, std::int64_t,
                                     std::int64_t, ExecStats*, const CancelToken*, ExecInfo*);

/// Scheduled executor: execute(lower(...)) with `opts.cancel`, the plan
/// dropped on return.  Same numerics as run_reference — bit-identical on
/// every route — with loop structure, parallelism and engine taken from
/// `sched`, `bc` and `opts` (see the route rules at the top of this file).
/// A token that fires while lower() runs the AOT pipeline throws Cancelled
/// with completed_through() = t_begin - 1 and the grid untouched.
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

}  // namespace msc::exec
