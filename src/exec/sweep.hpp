#pragma once

// Compiled row-sweep engine: the shared hot path of every host executor.
//
// Instead of interpreting a schedule's loop nest once per point (a closure
// call, a coordinate array, and an index multiply per output element), the
// plan is lowered ONCE into a flat list of tile descriptors whose innermost
// dimension is a stride-1 row loop over raw typed pointers:
//
//   build_loop_plan  — Schedule -> LoopPlan (validated loop-nest digest)
//   lower_sweep      — LoopPlan -> SweepPlan (flat clamped tile list;
//                      remainder tiles are clamped here, not per iteration)
//   resolve_terms    — LinearKernel x GridStorage -> per-term base pointer
//                      + linear delta for one output timestep
//   sweep_row        — one contiguous row, dispatched on the term count
//                      (1..kMaxFixedTerms = 32 terms unrolled, generic
//                      fallback above)
//   sweep_column     — the same accumulation down a strided column
//   sweep_box        — the one box sweeper: a box of interior points as
//                      rows, or as strided columns when it is narrower
//                      than kColumnSweepWidth in the contiguous dimension.
//                      run_sweep's tiles, the wedge engine's tiles and the
//                      distributed driver's interior and shell all sweep
//                      through it.
//   run_sweep        — sweeps every tile of a plan, each team member
//                      taking a fixed range of tiles when the plan is
//                      parallel.
//
// Numerics are bit-identical to the retired per-point interpreter: each
// output element accumulates its terms in the same order with the same
// `acc += coeff * (double)src[idx + delta]` expression shape, and every
// element is written exactly once (input slots are distinct ring slots), so
// the spatial visit order cannot change any value.  The conformance harness
// (src/check) pins this against golden snapshots.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "exec/grid.hpp"
#include "exec/linearize.hpp"
#include "schedule/schedule.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

// The row kernels' stride-1 loops carry no loop dependence: every output
// element is written exactly once and the input slots are distinct ring
// slots, so an output row never aliases an input row.  The compiler cannot
// prove that (all it sees is T* vs const T*), so we assert it per loop —
// SIMD lanes are independent points and the per-point term accumulation
// order is untouched, which keeps results bit-identical.
#if defined(__clang__)
#define MSC_SWEEP_IVDEP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define MSC_SWEEP_IVDEP _Pragma("GCC ivdep")
#else
#define MSC_SWEEP_IVDEP
#endif

namespace msc::exec {

/// One level of the loop nest, distilled from the Schedule.
struct LoopLevel {
  enum class Kind { Original, Outer, Inner };
  Kind kind = Kind::Original;
  int dim = 0;
  std::int64_t trip = 0;   ///< iteration count of this level
  std::int64_t tile = 0;   ///< Outer levels: iterations covered per block
  bool parallel = false;
  int threads = 1;
};

/// Validated digest of a Schedule (also carries the staging model the
/// cache_read/cache_write pipeline accounts DMA traffic with).
struct LoopPlan {
  std::vector<LoopLevel> levels;
  std::array<std::int64_t, 3> extent{1, 1, 1};
  int ndim = 0;
  int parallel_depth = -1;     ///< nest index of the parallel level, or -1
  int read_stage_depth = -1;   ///< compute_at depth of the read buffer, or -1
  int write_stage_depth = -1;  ///< compute_at depth of the write buffer, or -1
  std::int64_t tile_bytes_read = 0;   ///< staged bytes per tile (incl. halo)
  std::int64_t tile_bytes_write = 0;  ///< staged bytes per tile (interior)
  std::int64_t tiles_per_step = 0;    ///< DMA tile count per sweep (0 if no staging)
  std::int64_t time_depth = 1;        ///< time_tile(): timesteps fused per wedge block
  std::int64_t time_width = 0;        ///< time_tile(): wedge rows of dim 0 (0 = auto)
};

/// Builds the digest; validates that the schedule covers the whole kernel
/// iteration space.
LoopPlan build_loop_plan(const schedule::Schedule& sched);

/// One contiguous block of interior points: the unit of parallel work.
/// Bounds are interior coordinates, already clamped to the grid extents at
/// lowering time — the inner loops carry no per-iteration bounds checks.
struct SweepTile {
  std::array<std::int64_t, 3> lo{0, 0, 0};  ///< inclusive
  std::array<std::int64_t, 3> hi{1, 1, 1};  ///< exclusive
};

/// A lowered sweep: the flat tile decomposition of one timestep's
/// iteration space plus its parallel execution policy.
struct SweepPlan {
  std::vector<SweepTile> tiles;
  std::array<std::int64_t, 3> extent{1, 1, 1};
  int ndim = 0;
  bool parallel = false;  ///< spread tiles over a worker team
  int threads = 1;        ///< the schedule's `parallel N`: team members asked for
};

/// Lowers a LoopPlan to the flat tile list.  Tiled dimensions keep their
/// schedule tile extents; untiled dimensions span the full extent, except
/// that an untiled parallel axis is split into ~thread-count blocks so the
/// tile list exposes at least as much parallelism as the schedule asked
/// for.  Remainder tiles are clamped here.
SweepPlan lower_sweep(const LoopPlan& plan);

/// The one rule for how many members of `pool` (nullptr = global_pool())
/// run a step's `units` of work (sweep tiles, AOT row bands, wedge
/// chunks): min(threads, units, pool size) when the schedule is parallel,
/// else 1, the caller alone.  A serial answer never touches the pool.
std::int64_t team_members(bool parallel, std::int64_t threads, std::int64_t units,
                          ThreadPool* pool);

/// Trivial serial plan: the whole interior as one tile of full rows (used
/// by run_reference, the grid utilities, and region sweeps).
SweepPlan full_sweep(int ndim, std::array<std::int64_t, 3> extent);

namespace detail {

/// Per-term precomputation for one output timestep: coefficient, linear
/// memory delta, and the *typed* base pointer of the resolved input slot.
template <typename T>
struct ResolvedTerm {
  double coeff = 0.0;
  std::int64_t delta = 0;   ///< linear index offset within a slot
  const T* src = nullptr;   ///< slot base pointer for the current timestep
};

/// Single-point accumulation (kept for the per-point interpreter and as
/// the executable definition of the term accumulation order).
template <typename T>
inline void sweep_point_linear(T* out_base, std::int64_t out_idx,
                               const std::vector<ResolvedTerm<T>>& terms) {
  double acc = 0.0;
  for (const auto& term : terms)
    acc += term.coeff * static_cast<double>(term.src[out_idx + term.delta]);
  out_base[out_idx] = static_cast<T>(acc);
}

/// Fused per-point accumulation keeps one register per term stream; past
/// ~16 streams the vectorizer runs out and falls back to near-scalar code
/// (measured cliff: 566 → 118 Mpt/s between N=16 and N=17 on the build
/// host).  Wider kernels instead accumulate through an in-L1 row buffer,
/// one clean two-stream axpy loop per term.
inline constexpr std::size_t kFusedTermLimit = 16;

/// Term counts with a dedicated fully-unrolled kernel.  32 covers every
/// (time term x offset) combination of the standard workloads up to
/// 3d13pt_star with a two-deep time window (a compile-time trip count is
/// worth ~3x over the runtime loop: the compiler unrolls and pipelines the
/// term accumulation instead of looping over it per point).
inline constexpr std::size_t kMaxFixedTerms = 32;

/// Boxes narrower than this in the contiguous dimension sweep as strided
/// columns along dimension nd-2 instead of as rows: a row that short pays
/// sweep_row's dispatch and full term set-up for one to three outputs.
inline constexpr std::int64_t kColumnSweepWidth = 4;

/// Sweeps one contiguous row of `n` outputs starting at linear index
/// `base`, dispatching on the term count.  Defined out of line (sweep.cpp)
/// so the unrolled kernels are compiled exactly once, in a translation
/// unit that holds nothing else hot — GCC's unrolling and SLP budgets are
/// per-TU, and header-inlined copies came out measurably worse in TUs
/// that also instantiate the interpreter.
template <typename T>
void sweep_row(T* out, std::int64_t base, std::int64_t n,
               const std::vector<ResolvedTerm<T>>& terms);

extern template void sweep_row<float>(float*, std::int64_t, std::int64_t,
                                      const std::vector<ResolvedTerm<float>>&);
extern template void sweep_row<double>(double*, std::int64_t, std::int64_t,
                                       const std::vector<ResolvedTerm<double>>&);

/// Sweeps one column of `m` outputs at linear indices base, base + stride,
/// ..., base + (m-1)*stride: the shape of a region that is thin in the
/// contiguous dimension, where sweep_row would pay a dispatch and a full
/// term set-up per one-point row.  Each point accumulates its terms in
/// sweep_row's order, so results are bit-identical to sweep_row(out, base +
/// j*stride, 1, terms).  Defined in sweep_column.cpp, compiled scalar: a
/// gather-vectorized column measured slower than the plain loop.
template <typename T>
void sweep_column(T* out, std::int64_t base, std::int64_t stride, std::int64_t m,
                  const std::vector<ResolvedTerm<T>>& terms);

extern template void sweep_column<float>(float*, std::int64_t, std::int64_t, std::int64_t,
                                         const std::vector<ResolvedTerm<float>>&);
extern template void sweep_column<double>(double*, std::int64_t, std::int64_t, std::int64_t,
                                          const std::vector<ResolvedTerm<double>>&);

/// acc[i] += coeff * src[i] over one contiguous row — the staged-buffer
/// accumulation primitive shared by the CG simulators (expression shape
/// matches the per-point form bit for bit).
template <typename T>
inline void axpy_row(double* acc, const T* src, double coeff, std::int64_t n) {
  MSC_SWEEP_IVDEP
  for (std::int64_t i = 0; i < n; ++i)
    acc[i] += coeff * static_cast<double>(src[i]);
}

/// Sweeps the box [lo, hi) of interior coordinates and returns the points
/// swept (0 for an empty box, which writes nothing).  Rows go through
/// sweep_row; a box narrower than kColumnSweepWidth in the contiguous
/// dimension goes through sweep_column along dimension nd-2 instead.  Every
/// point keeps sweep_point_linear's term order, so neither the tiling nor
/// the row or column shape can change any value.  Records no flight event
/// and polls no token: callers own both.  Defined in sweep.cpp.
template <typename T>
std::int64_t sweep_box(const GridStorage<T>& state, T* out,
                       const std::vector<ResolvedTerm<T>>& terms, const SweepTile& box);

extern template std::int64_t sweep_box<float>(const GridStorage<float>&, float*,
                                              const std::vector<ResolvedTerm<float>>&,
                                              const SweepTile&);
extern template std::int64_t sweep_box<double>(const GridStorage<double>&, double*,
                                               const std::vector<ResolvedTerm<double>>&,
                                               const SweepTile&);

}  // namespace detail

/// Which inner-kernel family a term count routes to in the sweep engine:
/// "fused" (one register stream per term, <= kFusedTermLimit), "chunked"
/// (in-L1 row-buffer axpy passes, <= kMaxFixedTerms), or "generic" (the
/// runtime-trip fallback above that).  Exists so tests can pin the >16-term
/// cliff — programs like 2d121pt_box (242 terms) must route "generic" here
/// and take the AOT dlopen backend for specialized code.
inline const char* sweep_route(std::size_t nterms) {
  if (nterms <= detail::kFusedTermLimit) return "fused";
  if (nterms <= detail::kMaxFixedTerms) return "chunked";
  return "generic";
}

/// Resolves every LinearKernel term against the grid's ring slots for
/// output timestep `t`: linear delta from the per-dim offsets and strides,
/// typed base pointer from the term's time offset.
template <typename T>
std::vector<detail::ResolvedTerm<T>> resolve_terms(const LinearKernel& lin,
                                                   const GridStorage<T>& state,
                                                   std::int64_t t) {
  std::vector<detail::ResolvedTerm<T>> terms;
  terms.reserve(lin.terms.size());
  for (const auto& lt : lin.terms) {
    std::int64_t delta = 0;
    for (int d = 0; d < state.ndim(); ++d)
      delta += lt.offset[static_cast<std::size_t>(d)] * state.stride(d);
    terms.push_back({lt.coeff, delta, state.slot_data(state.slot_for_time(t + lt.time_offset))});
  }
  return terms;
}

/// Executes one timestep: every tile of `plan` through detail::sweep_box,
/// spread over team_members() members of `pool` (nullptr = global_pool()),
/// and returns the points swept.  Out-of-line for the same reason as
/// detail::sweep_row — one canonical, well-optimized copy of the kernels,
/// independent of what else the caller's TU contains.  A step is the unit of cancellation: the
/// callers (exec::run_scheduled, exec::run_reference) check their token
/// between calls, never inside one.
template <typename T>
std::int64_t run_sweep(const SweepPlan& plan, const GridStorage<T>& state, T* out,
                       const std::vector<detail::ResolvedTerm<T>>& terms,
                       ThreadPool* pool = nullptr);

extern template std::int64_t run_sweep<float>(
    const SweepPlan&, const GridStorage<float>&, float*,
    const std::vector<detail::ResolvedTerm<float>>&, ThreadPool*);
extern template std::int64_t run_sweep<double>(
    const SweepPlan&, const GridStorage<double>&, double*,
    const std::vector<detail::ResolvedTerm<double>>&, ThreadPool*);

}  // namespace msc::exec
