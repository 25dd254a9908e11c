#include "exec/sweep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <utility>

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
    // the schedule asked for on that loop level.
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

std::int64_t team_members(bool parallel, std::int64_t threads, std::int64_t units,
                          ThreadPool* pool) {
  if (!parallel || threads <= 1 || units <= 1) return 1;
  const ThreadPool& team = pool != nullptr ? *pool : global_pool();
  return std::min<std::int64_t>({threads, units, static_cast<std::int64_t>(team.size())});
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
// Hot kernels.  These live here — and only here — so the unrolled row
// bodies are optimized in a TU with nothing else competing for GCC's
// per-TU unrolling and SLP budgets; header-inlined copies regressed ~25%
// in consumer TUs with other hot code.

namespace detail {
namespace {

inline constexpr std::int64_t kSweepChunk = 256;

/// Computes `n` contiguous outputs at `o` from per-term row pointers.
/// Both formulations accumulate each point's terms in k order through an
/// exact double, so results are bit-identical to sweep_point_linear.
template <typename T, std::size_t N>
void sweep_span_fixed(T* o, const std::array<const T*, N>& src,
                      const std::array<double, N>& coeff, std::int64_t n) {
  if constexpr (N <= kFusedTermLimit) {
    MSC_SWEEP_IVDEP
    for (std::int64_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = 0; k < N; ++k)
        acc += coeff[k] * static_cast<double>(src[k][i]);
      o[i] = static_cast<T>(acc);
    }
  } else {
    double buf[kSweepChunk];
    for (std::int64_t at = 0; at < n; at += kSweepChunk) {
      const std::int64_t m = std::min<std::int64_t>(kSweepChunk, n - at);
      MSC_SWEEP_IVDEP
      for (std::int64_t i = 0; i < m; ++i)
        buf[i] = coeff[0] * static_cast<double>(src[0][at + i]);
      for (std::size_t k = 1; k < N; ++k) {
        MSC_SWEEP_IVDEP
        for (std::int64_t i = 0; i < m; ++i)
          buf[i] += coeff[k] * static_cast<double>(src[k][at + i]);
      }
      MSC_SWEEP_IVDEP
      for (std::int64_t i = 0; i < m; ++i) o[at + i] = static_cast<T>(buf[i]);
    }
  }
}

/// Row kernel, term count fixed at compile time: term base pointers and
/// coefficients are hoisted out of the loop, the N-term accumulation fully
/// unrolls, and the i-loop is a pure stride-1 sweep the compiler can
/// vectorize.
template <typename T, std::size_t N>
void sweep_row_fixed(T* out, std::int64_t base, std::int64_t n, const ResolvedTerm<T>* terms) {
  std::array<const T*, N> src;
  std::array<double, N> coeff;
  for (std::size_t k = 0; k < N; ++k) {
    src[k] = terms[k].src + base + terms[k].delta;
    coeff[k] = terms[k].coeff;
  }
  sweep_span_fixed<T, N>(out + base, src, coeff, n);
}

/// Generic fallback for stencils with more than kMaxFixedTerms terms.  The
/// term base pointers and coefficients are still hoisted out of the i-loop
/// — into thread-local flat arrays reused across rows — so the per-point
/// cost is the same loads-and-fmas as the fixed kernels, just with a
/// runtime trip count.
template <typename T>
void sweep_row_generic(T* out, std::int64_t base, std::int64_t n,
                       const std::vector<ResolvedTerm<T>>& terms) {
  static thread_local std::vector<const T*> src_buf;
  static thread_local std::vector<double> coeff_buf;
  const std::size_t nt = terms.size();
  if (src_buf.size() < nt) {
    src_buf.resize(nt);
    coeff_buf.resize(nt);
  }
  const T** src = src_buf.data();
  double* coeff = coeff_buf.data();
  for (std::size_t k = 0; k < nt; ++k) {
    src[k] = terms[k].src + base + terms[k].delta;
    coeff[k] = terms[k].coeff;
  }
  T* o = out + base;
  MSC_SWEEP_IVDEP
  for (std::int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < nt; ++k)
      acc += coeff[k] * static_cast<double>(src[k][i]);
    o[i] = static_cast<T>(acc);
  }
}

template <typename T>
using RowFn = void (*)(T*, std::int64_t, std::int64_t, const ResolvedTerm<T>*);

template <typename T, std::size_t... I>
constexpr std::array<RowFn<T>, sizeof...(I)> make_row_table(std::index_sequence<I...>) {
  return {{&sweep_row_fixed<T, I + 1>...}};
}

}  // namespace

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

template <typename T>
std::int64_t sweep_box(const GridStorage<T>& state, T* out,
                       const std::vector<ResolvedTerm<T>>& terms, const SweepTile& box) {
  const int nd = state.ndim();
  const auto last = static_cast<std::size_t>(nd - 1);
  std::int64_t points = 1;
  for (std::size_t d = 0; d <= last; ++d) {
    if (box.hi[d] <= box.lo[d]) return 0;
    points *= box.hi[d] - box.lo[d];
  }
  const std::int64_t n = box.hi[last] - box.lo[last];
  std::array<std::int64_t, 3> c = box.lo;
  if (nd >= 2 && n < kColumnSweepWidth) {
    const std::size_t col = last - 1;
    const std::int64_t m = box.hi[col] - box.lo[col];
    const std::int64_t stride = state.stride(nd - 2);
    const auto columns = [&] {
      for (c[last] = box.lo[last]; c[last] < box.hi[last]; ++c[last])
        sweep_column(out, state.index(c), stride, m, terms);
    };
    if (nd == 2) {
      columns();
    } else {
      for (c[0] = box.lo[0]; c[0] < box.hi[0]; ++c[0]) columns();
    }
  } else if (nd == 1) {
    sweep_row(out, state.index(c), n, terms);
  } else if (nd == 2) {
    for (c[0] = box.lo[0]; c[0] < box.hi[0]; ++c[0]) sweep_row(out, state.index(c), n, terms);
  } else {
    for (c[0] = box.lo[0]; c[0] < box.hi[0]; ++c[0])
      for (c[1] = box.lo[1]; c[1] < box.hi[1]; ++c[1])
        sweep_row(out, state.index(c), n, terms);
  }
  return points;
}

template void sweep_row<float>(float*, std::int64_t, std::int64_t,
                               const std::vector<ResolvedTerm<float>>&);
template void sweep_row<double>(double*, std::int64_t, std::int64_t,
                                const std::vector<ResolvedTerm<double>>&);
template std::int64_t sweep_box<float>(const GridStorage<float>&, float*,
                                       const std::vector<ResolvedTerm<float>>&,
                                       const SweepTile&);
template std::int64_t sweep_box<double>(const GridStorage<double>&, double*,
                                        const std::vector<ResolvedTerm<double>>&,
                                        const SweepTile&);

}  // namespace detail

template <typename T>
std::int64_t run_sweep(const SweepPlan& plan, const GridStorage<T>& state, T* out,
                       const std::vector<detail::ResolvedTerm<T>>& terms, ThreadPool* pool) {
  MSC_CHECK(plan.ndim == state.ndim()) << "sweep plan rank mismatch";
  // Tiles [lo, hi) under one flight span: one span per member, not per
  // tile, keeps the event rate bounded at any tile size, so the recorder
  // stays inside its overhead budget.
  const auto sweep_range = [&](std::int64_t lo, std::int64_t hi) {
    prof::FlightScope flight(prof::FlightKind::RowChunk, 0, hi - lo);
    std::int64_t points = 0;
    for (std::int64_t n = lo; n < hi; ++n)
      points += detail::sweep_box(state, out, terms, plan.tiles[static_cast<std::size_t>(n)]);
    flight.set_a(points);
    return points;
  };
  const auto ntiles = static_cast<std::int64_t>(plan.tiles.size());
  const std::int64_t members = team_members(plan.parallel, plan.threads, ntiles, pool);
  if (members <= 1) return sweep_range(0, ntiles);
  std::atomic<std::int64_t> total{0};
  (pool != nullptr ? *pool : global_pool())
      .parallel_for(
          0, ntiles,
          [&](std::int64_t lo, std::int64_t hi) {
            total.fetch_add(sweep_range(lo, hi), std::memory_order_relaxed);
          },
          members);
  return total.load(std::memory_order_relaxed);
}

template std::int64_t run_sweep<float>(const SweepPlan&, const GridStorage<float>&, float*,
                                       const std::vector<detail::ResolvedTerm<float>>&,
                                       ThreadPool*);
template std::int64_t run_sweep<double>(const SweepPlan&, const GridStorage<double>&,
                                        double*,
                                        const std::vector<detail::ResolvedTerm<double>>&,
                                        ThreadPool*);

}  // namespace msc::exec
