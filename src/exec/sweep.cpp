#include "exec/sweep.hpp"

#include <algorithm>

#include "ir/type.hpp"
#include "prof/flight.hpp"

namespace msc::exec {

LoopPlan build_loop_plan(const schedule::Schedule& sched) {
  const auto& kernel = sched.kernel();
  LoopPlan plan;
  plan.ndim = kernel.output()->ndim();
  for (int d = 0; d < plan.ndim; ++d)
    plan.extent[static_cast<std::size_t>(d)] = kernel.output()->extent(d);
  plan.time_depth = sched.time_tile_depth();
  plan.time_width = sched.time_tile_width();

  for (const auto& ax : sched.axes()) {
    LoopLevel lv;
    lv.dim = ax.dim;
    lv.trip = ax.trip_count();
    lv.tile = ax.tile_size;
    lv.parallel = ax.parallel;
    lv.threads = ax.num_threads;
    switch (ax.role) {
      case ir::AxisRole::Original: lv.kind = LoopLevel::Kind::Original; break;
      case ir::AxisRole::Outer: lv.kind = LoopLevel::Kind::Outer; break;
      case ir::AxisRole::Inner: lv.kind = LoopLevel::Kind::Inner; break;
    }
    if (lv.parallel) plan.parallel_depth = static_cast<int>(plan.levels.size());
    plan.levels.push_back(lv);
  }

  // Coverage check: each dimension must appear either as an Original axis
  // or as an Outer+Inner pair.
  for (int d = 0; d < plan.ndim; ++d) {
    bool orig = false, outer = false, inner = false;
    for (const auto& lv : plan.levels) {
      if (lv.dim != d) continue;
      orig |= lv.kind == LoopLevel::Kind::Original;
      outer |= lv.kind == LoopLevel::Kind::Outer;
      inner |= lv.kind == LoopLevel::Kind::Inner;
    }
    MSC_CHECK(orig || (outer && inner))
        << "schedule of kernel '" << kernel.name() << "' does not cover dimension " << d;
  }

  // An Inner axis must appear below its Outer partner, or coordinates would
  // be assembled from a stale tile base.
  for (int d = 0; d < plan.ndim; ++d) {
    int outer_at = -1, inner_at = -1;
    for (std::size_t n = 0; n < plan.levels.size(); ++n) {
      if (plan.levels[n].dim != d) continue;
      if (plan.levels[n].kind == LoopLevel::Kind::Outer) outer_at = static_cast<int>(n);
      if (plan.levels[n].kind == LoopLevel::Kind::Inner) inner_at = static_cast<int>(n);
    }
    MSC_CHECK(outer_at < 0 || inner_at > outer_at)
        << "schedule of kernel '" << kernel.name() << "': inner axis of dimension " << d
        << " was reordered above its outer axis";
  }

  // Staging positions + per-tile traffic for the cache pipeline.
  const auto esz = static_cast<std::int64_t>(ir::dtype_size(kernel.output()->dtype()));
  for (const auto& buf : sched.caches()) {
    const int depth = sched.compute_at_depth(buf);
    if (depth < 0) continue;
    if (buf.is_read) {
      plan.read_stage_depth = depth;
      plan.tile_bytes_read = sched.spm_tile_elements() * esz;
    } else {
      plan.write_stage_depth = depth;
      std::int64_t elems = 1;
      for (int d = 0; d < plan.ndim; ++d) elems *= sched.tile_extent(d);
      plan.tile_bytes_write = elems * esz;
    }
  }
  if (plan.read_stage_depth >= 0) {
    plan.tiles_per_step = 1;
    for (int n = 0; n <= plan.read_stage_depth; ++n)
      plan.tiles_per_step *= plan.levels[static_cast<std::size_t>(n)].trip;
  }
  return plan;
}

SweepPlan lower_sweep(const LoopPlan& plan) {
  MSC_CHECK(plan.ndim >= 1 && plan.ndim <= 3) << "sweep lowering supports 1-3 D";
  SweepPlan sweep;
  sweep.ndim = plan.ndim;
  sweep.extent = plan.extent;

  // Per-dim tile extents: an Outer level fixes its dimension's tile; an
  // untiled dimension spans the full extent.
  std::array<std::int64_t, 3> tile{1, 1, 1};
  std::array<bool, 3> tiled{false, false, false};
  for (int d = 0; d < plan.ndim; ++d) tile[static_cast<std::size_t>(d)] = plan.extent[static_cast<std::size_t>(d)];
  for (const auto& lv : plan.levels) {
    if (lv.kind != LoopLevel::Kind::Outer) continue;
    const auto d = static_cast<std::size_t>(lv.dim);
    tile[d] = std::max<std::int64_t>(1, std::min(lv.tile, plan.extent[d]));
    tiled[d] = true;
  }

  if (plan.parallel_depth >= 0) {
    const LoopLevel& par = plan.levels[static_cast<std::size_t>(plan.parallel_depth)];
    sweep.parallel = par.threads > 1;
    sweep.threads = std::max(1, par.threads);
    // A parallel Original axis carries no tiling of its own: split it into
    // ~thread-count blocks so the flat tile list exposes the parallelism
    // the schedule asked for (the interpreter parallelized this loop level
    // directly).
    const auto d = static_cast<std::size_t>(par.dim);
    if (!tiled[d] && sweep.parallel && plan.extent[d] > 1) {
      const std::int64_t blocks =
          std::min<std::int64_t>(sweep.threads, plan.extent[d]);
      tile[d] = (plan.extent[d] + blocks - 1) / blocks;
    }
  }

  // Enumerate tiles row-major over the tile grid, clamping remainders now
  // so the row loops never test bounds.  (Spatial order is irrelevant to
  // the numerics: every output point is written exactly once.)
  std::array<std::int64_t, 3> ntiles{1, 1, 1};
  for (int d = 0; d < plan.ndim; ++d) {
    const auto s = static_cast<std::size_t>(d);
    ntiles[s] = (plan.extent[s] + tile[s] - 1) / tile[s];
  }
  std::array<std::int64_t, 3> it{0, 0, 0};
  for (it[0] = 0; it[0] < ntiles[0]; ++it[0])
    for (it[1] = 0; it[1] < ntiles[1]; ++it[1])
      for (it[2] = 0; it[2] < ntiles[2]; ++it[2]) {
        SweepTile t;
        for (int d = 0; d < plan.ndim; ++d) {
          const auto s = static_cast<std::size_t>(d);
          t.lo[s] = it[s] * tile[s];
          t.hi[s] = std::min(t.lo[s] + tile[s], plan.extent[s]);
        }
        sweep.tiles.push_back(t);
      }
  return sweep;
}

bool fans_out(const SweepPlan& plan, std::int64_t units) {
  return plan.parallel && plan.threads > 1 && units > 1 && global_pool().size() > 1;
}

SweepPlan full_sweep(int ndim, std::array<std::int64_t, 3> extent) {
  MSC_CHECK(ndim >= 1 && ndim <= 3) << "sweep lowering supports 1-3 D";
  SweepPlan sweep;
  sweep.ndim = ndim;
  sweep.extent = extent;
  SweepTile t;
  for (int d = 0; d < ndim; ++d) {
    const auto s = static_cast<std::size_t>(d);
    t.lo[s] = 0;
    t.hi[s] = extent[s];
  }
  sweep.tiles.push_back(t);
  return sweep;
}

// ---------------------------------------------------------------------------
// Hot kernels.  These live here — and only here — so the unrolled row/tile
// bodies are optimized in a TU with nothing else competing for GCC's
// per-TU unrolling and SLP budgets; header-inlined copies regressed ~25%
// in consumer TUs that also instantiate the interpreter.

namespace detail {

template <typename T>
void sweep_row(T* out, std::int64_t base, std::int64_t n,
               const std::vector<ResolvedTerm<T>>& terms) {
  static constexpr auto kTable =
      make_row_table<T>(std::make_index_sequence<kMaxFixedTerms>{});
  const std::size_t nt = terms.size();
  if (nt - 1 < kMaxFixedTerms) {
    kTable[nt - 1](out, base, n, terms.data());
  } else {
    sweep_row_generic(out, base, n, terms);
  }
}

template void sweep_row<float>(float*, std::int64_t, std::int64_t,
                               const std::vector<ResolvedTerm<float>>&);
template void sweep_row<double>(double*, std::int64_t, std::int64_t,
                                const std::vector<ResolvedTerm<double>>&);

}  // namespace detail

template <typename T>
SweepStats run_sweep(const SweepPlan& plan, const GridStorage<T>& state, T* out,
                     const std::vector<detail::ResolvedTerm<T>>& terms,
                     const CancelToken* cancel) {
  MSC_CHECK(plan.ndim == state.ndim()) << "sweep plan rank mismatch";
  SweepStats total;
  const auto ntiles = static_cast<std::int64_t>(plan.tiles.size());
  if (fans_out(plan, ntiles)) {
    std::mutex merge;
    global_pool().parallel_for(0, ntiles, [&](std::int64_t lo, std::int64_t hi) {
      // One flight span per chunk, not per tile: bounded event rate at any
      // tile size, so the recorder stays inside its overhead budget.
      prof::FlightScope flight(prof::FlightKind::RowChunk, 0, hi - lo);
      SweepStats local;
      for (std::int64_t n = lo; n < hi; ++n) {
        // Row-chunk-granularity cancellation: one relaxed load per tile on
        // the armed path, a single null test otherwise.  The throw unwinds
        // through parallel_for, which rethrows Cancelled on the caller.
        if (cancel != nullptr) cancel->checkpoint("sweep.row_chunk");
        detail::sweep_tile(plan.tiles[static_cast<std::size_t>(n)], state, out, terms, local);
      }
      local.tiles = hi - lo;
      flight.set_a(local.points);
      std::lock_guard<std::mutex> lock(merge);
      total.points += local.points;
      total.rows += local.rows;
      total.tiles += local.tiles;
    });
  } else {
    prof::FlightScope flight(prof::FlightKind::RowChunk, 0, ntiles);
    for (const auto& tile : plan.tiles) {
      if (cancel != nullptr) cancel->checkpoint("sweep.row_chunk");
      detail::sweep_tile(tile, state, out, terms, total);
    }
    total.tiles = ntiles;
    flight.set_a(total.points);
  }
  return total;
}

template SweepStats run_sweep<float>(const SweepPlan&, const GridStorage<float>&, float*,
                                     const std::vector<detail::ResolvedTerm<float>>&,
                                     const CancelToken*);
template SweepStats run_sweep<double>(const SweepPlan&, const GridStorage<double>&,
                                      double*,
                                      const std::vector<detail::ResolvedTerm<double>>&,
                                      const CancelToken*);

}  // namespace msc::exec
