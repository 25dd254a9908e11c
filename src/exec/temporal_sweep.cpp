#include "exec/temporal_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "prof/counters.hpp"
#include "prof/flight.hpp"

namespace msc::exec {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Enumerates the wedge grid for blocks of `depth` steps: per wedge, per
/// local step, the skewed dim-0 range clamped to [0, E0) and intersected
/// with the schedule's spatial tiles.  Wedges whose every step clamps away
/// stay in the vector (index == position) so chunk arithmetic downstream
/// works in wedge-index space.
WedgeSet build_wedge_set(const SweepPlan& sweep, std::int64_t e0, std::int64_t depth,
                         std::int64_t width, std::int64_t skew) {
  WedgeSet set;
  set.depth = depth;
  const std::int64_t nw = ceil_div(e0 + (depth - 1) * skew, width);
  set.wedges.reserve(static_cast<std::size_t>(nw));
  for (std::int64_t w = 0; w < nw; ++w) {
    Wedge wedge;
    wedge.index = w;
    for (std::int64_t s = 0; s < depth; ++s) {
      WedgeStep ws;
      ws.step = s;
      ws.lo0 = std::max<std::int64_t>(0, w * width - s * skew);
      ws.hi0 = std::min<std::int64_t>(e0, (w + 1) * width - s * skew);
      if (ws.lo0 >= ws.hi0) continue;  // clamped away at the grid boundary
      for (const auto& tile : sweep.tiles) {
        SweepTile cut = tile;
        cut.lo[0] = std::max(tile.lo[0], ws.lo0);
        cut.hi[0] = std::min(tile.hi[0], ws.hi0);
        if (cut.lo[0] < cut.hi[0]) ws.tiles.push_back(cut);
      }
      wedge.steps.push_back(std::move(ws));
    }
    set.wedges.push_back(std::move(wedge));
  }
  return set;
}

/// Output pointer and resolved terms of one absolute timestep, fixed for a
/// whole block so wedges pay no per-step resolution cost.
template <typename T>
struct StepCtx {
  T* out = nullptr;
  std::vector<detail::ResolvedTerm<T>> terms;
};

/// Sweeps one wedge step's tiles; returns the points swept.
template <typename T>
std::int64_t run_wedge_step(const WedgeStep& ws, const StepCtx<T>& ctx,
                            const GridStorage<T>& state) {
  std::int64_t points = 0;
  for (const auto& tile : ws.tiles) points += detail::sweep_box(state, ctx.out, ctx.terms, tile);
  return points;
}

template <typename T>
void run_block(const TemporalPlan& plan, const WedgeSet& set, const LinearKernel& lin,
               GridStorage<T>& state, std::int64_t t0, ThreadPool& pool, std::int64_t& points) {
  prof::FlightScope block_flight(prof::FlightKind::WedgeBlock, t0, set.depth);
  prof::counter("sweep.temporal.blocks").add(1);

  std::vector<StepCtx<T>> ctx(static_cast<std::size_t>(set.depth));
  for (std::int64_t s = 0; s < set.depth; ++s) {
    auto& c = ctx[static_cast<std::size_t>(s)];
    c.out = state.slot_data(state.slot_for_time(t0 + s));
    c.terms = resolve_terms(lin, state, t0 + s);
  }

  const auto nwedges = static_cast<std::int64_t>(set.wedges.size());
  const std::int64_t nchunks = team_members(plan.parallel, plan.threads, nwedges, &pool);

  if (nchunks <= 1) {
    // Serial fast path: wedge-major, so a wedge's rows are swept through
    // the whole time window while they are cache-hot.  Safe in place for
    // any depth: a wedge's slot overwrites destroy only rows strictly
    // below everything later wedges still read (header proof).
    std::int64_t wedges_run = 0, steps_run = 0;
    for (const auto& wedge : set.wedges) {
      if (wedge.steps.empty()) continue;
      prof::FlightScope wedge_flight(prof::FlightKind::Wedge, wedge.index,
                                     static_cast<std::int64_t>(wedge.steps.size()));
      for (const auto& ws : wedge.steps)
        points += run_wedge_step(ws, ctx[static_cast<std::size_t>(ws.step)], state);
      ++wedges_run;
      steps_run += static_cast<std::int64_t>(wedge.steps.size());
    }
    prof::counter("sweep.temporal.wedges").add(wedges_run);
    prof::counter("sweep.temporal.wedge_steps").add(steps_run);
    return;
  }

  // Parallel chunk wavefront, one chunk per team member, so a member keeps
  // the same wedges from block to block.  Contiguous wedge chunks each
  // sweep their wedges level by level; chunk c may run level s once every
  // chunk owning wedges [lo[c] - dep_span, lo[c]) has completed level s-1
  // (the deepest time term reads at most dep_span wedges behind).  With a
  // contiguous partition that predecessor set is the chunk interval
  // [first_pred[c], c).
  std::vector<std::int64_t> lo(static_cast<std::size_t>(nchunks) + 1, 0);
  const std::int64_t per = nwedges / nchunks, extra = nwedges % nchunks;
  for (std::int64_t c = 0; c < nchunks; ++c)
    lo[static_cast<std::size_t>(c) + 1] =
        lo[static_cast<std::size_t>(c)] + per + (c < extra ? 1 : 0);

  std::vector<std::int64_t> first_pred(static_cast<std::size_t>(nchunks), 0);
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::int64_t need = std::max<std::int64_t>(0, lo[static_cast<std::size_t>(c)] - plan.dep_span);
    std::int64_t p = 0;
    while (lo[static_cast<std::size_t>(p) + 1] <= need) ++p;
    first_pred[static_cast<std::size_t>(c)] = p;
  }

  // done[c] = levels chunk c has completed (release on store, acquire on
  // the waiters' loads).  A failing chunk poisons its counter to full
  // depth and raises `failed` so waiters drain instead of spinning; the
  // pool rethrows the first exception on the caller.
  std::unique_ptr<std::atomic<std::int64_t>[]> done(
      new std::atomic<std::int64_t>[static_cast<std::size_t>(nchunks)]);
  for (std::int64_t c = 0; c < nchunks; ++c)
    done[static_cast<std::size_t>(c)].store(0, std::memory_order_relaxed);
  std::atomic<bool> failed{false};
  std::mutex merge;
  std::int64_t wedges_run = 0, steps_run = 0;

  // nchunks <= pool.size(), so member c runs exactly chunk c.
  const auto run_chunk = [&](std::int64_t c, std::int64_t) {
    const auto cs = static_cast<std::size_t>(c);
    std::int64_t local_points = 0, local_wedges = 0, local_steps = 0;
    try {
      for (std::int64_t s = 0; s < set.depth; ++s) {
        // Flight span only when a predecessor actually makes us spin, so
        // uncontended levels cost zero wait events.
        bool waited = false;
        std::uint64_t wait_start = 0;
        for (std::int64_t p = first_pred[cs]; p < c; ++p) {
          while (done[static_cast<std::size_t>(p)].load(std::memory_order_acquire) < s) {
            if (!waited) {
              waited = true;
              wait_start = prof::flight_now_ns();
            }
            if (failed.load(std::memory_order_relaxed)) break;
            std::this_thread::yield();
          }
        }
        if (waited && prof::global_flight().enabled())
          prof::global_flight().record(prof::FlightKind::WedgeWait, wait_start,
                                       prof::flight_now_ns(), c, s);
        if (failed.load(std::memory_order_relaxed)) break;
        prof::FlightScope level_flight(prof::FlightKind::Wedge, c, 0);
        std::int64_t level_steps = 0;
        for (std::int64_t w = lo[cs]; w < lo[cs + 1]; ++w) {
          for (const auto& ws : set.wedges[static_cast<std::size_t>(w)].steps) {
            if (ws.step != s) continue;
            local_points += run_wedge_step(ws, ctx[static_cast<std::size_t>(s)], state);
            ++local_steps;
            ++level_steps;
          }
        }
        level_flight.set_b(level_steps);
        done[cs].store(s + 1, std::memory_order_release);
      }
      for (std::int64_t w = lo[cs]; w < lo[cs + 1]; ++w)
        if (!set.wedges[static_cast<std::size_t>(w)].steps.empty()) ++local_wedges;
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      done[cs].store(set.depth, std::memory_order_release);
      throw;
    }
    std::lock_guard<std::mutex> lock(merge);
    points += local_points;
    wedges_run += local_wedges;
    steps_run += local_steps;
  };
  pool.parallel_for(0, nchunks, run_chunk, nchunks);

  prof::counter("sweep.temporal.wedges").add(wedges_run);
  prof::counter("sweep.temporal.wedge_steps").add(steps_run);
}

}  // namespace

TemporalPlan lower_temporal(const LoopPlan& plan, std::int64_t time_window, std::int64_t skew,
                            std::int64_t t_begin, std::int64_t t_end) {
  MSC_CHECK(plan.ndim >= 1 && plan.ndim <= 3) << "temporal lowering supports 1-3 D";
  MSC_CHECK(time_window >= 2) << "stencil time window must be >= 2, got " << time_window;
  MSC_CHECK(skew >= 0) << "stencil radius must be >= 0, got " << skew;
  MSC_CHECK(t_begin <= t_end) << "empty time range";

  TemporalPlan tp;
  tp.extent = plan.extent;
  tp.ndim = plan.ndim;
  tp.t_begin = t_begin;
  tp.t_end = t_end;
  tp.time_window = time_window;
  tp.skew = skew;

  // A wedge deeper than the step count would fuse steps that do not exist:
  // clamp here so callers can ask for any depth.
  const std::int64_t nsteps = t_end - t_begin + 1;
  tp.wedge_depth = std::clamp<std::int64_t>(plan.time_depth, 1, nsteps);

  // Width: the schedule's time_tile() width, else the dim-0 tile of the
  // spatial schedule (full extent when untiled).  A halo deeper than the
  // width is legal — the skew just hands more wedges to the dependency
  // span below.
  const SweepPlan sweep = lower_sweep(plan);
  std::int64_t width = plan.time_width;
  if (width <= 0) {
    width = plan.extent[0];
    for (const auto& lv : plan.levels)
      if (lv.kind == LoopLevel::Kind::Outer && lv.dim == 0)
        width = std::max<std::int64_t>(1, std::min(lv.tile, plan.extent[0]));
  }
  tp.wedge_width = std::max<std::int64_t>(1, width);

  tp.dep_span = ceil_div(time_window * skew, tp.wedge_width);
  tp.parallel = sweep.parallel;
  tp.threads = sweep.threads;

  tp.full_blocks = nsteps / tp.wedge_depth;
  tp.full = build_wedge_set(sweep, plan.extent[0], tp.wedge_depth, tp.wedge_width, skew);
  const std::int64_t rem = nsteps % tp.wedge_depth;
  if (rem > 0)
    tp.remainder = build_wedge_set(sweep, plan.extent[0], rem, tp.wedge_width, skew);
  return tp;
}

template <typename T>
std::int64_t run_temporal_sweep(const TemporalPlan& plan, const LinearKernel& lin,
                                GridStorage<T>& state, ThreadPool* pool,
                                const CancelToken* cancel, std::int64_t& done) {
  MSC_CHECK(plan.ndim == state.ndim()) << "temporal plan rank mismatch";
  ThreadPool& tp = pool != nullptr ? *pool : global_pool();
  std::int64_t total = 0;
  const auto block = [&](const WedgeSet& set) {
    if (cancel != nullptr) cancel->checkpoint("temporal.block");
    run_block(plan, set, lin, state, done + 1, tp, total);
    done += set.depth;
  };
  done = plan.t_begin - 1;
  for (std::int64_t b = 0; b < plan.full_blocks; ++b) block(plan.full);
  if (plan.remainder.depth > 0) block(plan.remainder);
  return total;
}

template std::int64_t run_temporal_sweep<float>(const TemporalPlan&, const LinearKernel&,
                                                GridStorage<float>&, ThreadPool*,
                                                const CancelToken*, std::int64_t&);
template std::int64_t run_temporal_sweep<double>(const TemporalPlan&, const LinearKernel&,
                                                 GridStorage<double>&, ThreadPool*,
                                                 const CancelToken*, std::int64_t&);

}  // namespace msc::exec
