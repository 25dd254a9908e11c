#pragma once

// Time-skewed temporal tiling for the compiled row-sweep engine.
//
// The per-step engine (sweep.hpp) re-streams the whole grid from memory
// once per timestep.  This module extends the lowering so a tile
// descriptor spans a *wedge* of timesteps: `wedge_depth` consecutive steps
// are fused into one pass over wedges of `wedge_width` rows of dimension
// 0, and each wedge's spatial footprint shifts down by the stencil's halo
// depth (`skew`) per step so every read lands on rows an earlier wedge has
// already advanced:
//
//          rows of dim 0 ->
//   s=0    [  wedge 0  ][  wedge 1  ][  wedge 2  ] ...
//   s=1   [  wedge 0  ][  wedge 1  ][  wedge 2  ] ...
//   s=2  [  wedge 0  ][  wedge 1  ][  wedge 2  ] ...
//         <-- footprint slides `skew` rows per step
//
// Wedge w at local step s covers rows [w*B - s*r, (w+1)*B - s*r) clamped
// to [0, E0): boundary clamps and remainder wedges are resolved at
// lowering time (the same clamp-at-lowering approach lower_sweep uses for
// spatial remainder tiles), never per iteration.  Execution keeps a
// wedge's working set cache-resident across its time window, rotating
// through the existing stagger-offset GridStorage ring slots in place —
// no snapshots and no redundant recompute:
//
//  * flow deps:  wedge w at step s reads rows of steps s-1..s-W+1 that end
//    strictly below the start of wedge w+1 at those steps, so the
//    wedge-major serial order (w ascending, s ascending inside) is valid;
//  * anti deps:  writing step s destroys ring-slot content of step s-W.
//    The destroyed rows of any wedge <= w lie strictly below every row a
//    later wedge still reads (time_window >= 2 makes the bounds meet
//    exactly), so in-place slot rotation is safe.
//
// For parallel plans the inter-wedge dependencies form a lowering-time
// DAG: contiguous wedge chunks each sweep their wedges level by level
// (step-major inside the chunk), and chunk c may run level s once every
// chunk owning wedges [lo_c - dep_span, lo_c) has finished level s-1.
// dep_span = ceil(time_window * skew / width) — the deepest time term
// reads at most that many wedges behind.  There is one chunk per member of
// the worker team (team_members(), so `parallel N` runs on N threads, the
// caller included); waits are yield-spins on per-chunk atomic level
// counters (release/acquire).  A busy team runs its members inline in
// member order, which every chunk's lower-indexed predecessors satisfy.
// The serial fast path is taken whenever only one chunk exists.
//
// exec::run_scheduled takes this route when the schedule's time_tile()
// depth is > 1 and the boundary is ZeroHalo.
//
// Numerics are bit-identical to the per-step sweep and run_reference:
// every output element is written exactly once per step by the same
// detail::sweep_box sweeper with the same term order, so the wedge visit
// order cannot change any value.  tests/test_temporal_tiling.cpp pins this
// differentially across dtypes, depths and remainder shapes.

#include <array>
#include <cstdint>
#include <vector>

#include "exec/grid.hpp"
#include "exec/linearize.hpp"
#include "exec/sweep.hpp"
#include "support/cancel.hpp"
#include "support/thread_pool.hpp"

namespace msc::exec {

/// One timestep of one wedge: the clamped dim-0 row range at local step
/// `step` plus the spatial tiles of the schedule intersected with it.
struct WedgeStep {
  std::int64_t step = 0;  ///< local step within the block, 0-based
  std::int64_t lo0 = 0;   ///< inclusive dim-0 row bound after clamping
  std::int64_t hi0 = 0;   ///< exclusive dim-0 row bound after clamping
  std::vector<SweepTile> tiles;
};

/// A wedge: its per-step clamped footprints.  Steps whose range clamps to
/// empty at the grid boundary are omitted (resolved at lowering time).
struct Wedge {
  std::int64_t index = 0;  ///< position in the wedge grid (dep-span space)
  std::vector<WedgeStep> steps;
};

/// Wedge decomposition for blocks of `depth` steps.  The full set serves
/// every complete block; a shallower remainder set serves the trailing
/// partial block, with its own (smaller) wedge count and clamps.
struct WedgeSet {
  std::int64_t depth = 0;
  std::vector<Wedge> wedges;
};

/// A lowered temporal sweep over [t_begin, t_end].
struct TemporalPlan {
  std::array<std::int64_t, 3> extent{1, 1, 1};
  int ndim = 0;
  std::int64_t t_begin = 0;
  std::int64_t t_end = 0;
  std::int64_t time_window = 2;   ///< ring slots the stencil needs
  std::int64_t skew = 0;          ///< rows the footprint shifts per step
  std::int64_t wedge_depth = 1;   ///< steps per full block (clamped to the range)
  std::int64_t wedge_width = 1;   ///< dim-0 rows per wedge
  std::int64_t dep_span = 0;      ///< wedges a step may read behind itself
  std::int64_t full_blocks = 0;   ///< blocks executed with `full`
  bool parallel = false;
  int threads = 1;
  WedgeSet full;
  WedgeSet remainder;             ///< depth 0 when the range divides evenly

  std::int64_t blocks() const { return full_blocks + (remainder.depth > 0 ? 1 : 0); }
};

/// Lowers a LoopPlan plus the stencil's temporal shape into the wedge
/// decomposition.  `time_window` / `skew` come from the StencilDef
/// (time_window(), max_radius()); the wedge depth and width from the
/// plan's time_tile() fields.  Clamps the wedge depth to the step count,
/// derives the width from the dim-0 tile when unset, and resolves every
/// boundary clamp and remainder wedge here, at lowering time.
TemporalPlan lower_temporal(const LoopPlan& plan, std::int64_t time_window,
                            std::int64_t skew, std::int64_t t_begin, std::int64_t t_end);

/// Executes the lowered temporal sweep in place over the grid's ring
/// slots.  Serial fast path sweeps wedge-major; parallel plans run the
/// chunk-level wavefront DAG over `pool` (nullptr = global_pool()).
/// Emits wedge-level trace spans and the sweep.temporal.* counters, and
/// returns the points updated.
///
/// Mid-block wedges leave tiles at different times, and later steps
/// overwrite the last consistent slots, so a block is the unit of
/// cancellation: `cancel`, when non-null, is checked on the calling thread
/// before each block ("temporal.block"), and `done` is advanced to the
/// last step of every finished block.
template <typename T>
std::int64_t run_temporal_sweep(const TemporalPlan& plan, const LinearKernel& lin,
                                GridStorage<T>& state, ThreadPool* pool,
                                const CancelToken* cancel, std::int64_t& done);

extern template std::int64_t run_temporal_sweep<float>(const TemporalPlan&,
                                                       const LinearKernel&,
                                                       GridStorage<float>&, ThreadPool*,
                                                       const CancelToken*, std::int64_t&);
extern template std::int64_t run_temporal_sweep<double>(const TemporalPlan&,
                                                        const LinearKernel&,
                                                        GridStorage<double>&, ThreadPool*,
                                                        const CancelToken*, std::int64_t&);

}  // namespace msc::exec
