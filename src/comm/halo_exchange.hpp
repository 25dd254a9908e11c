#pragma once

// The distributed driver over the simulated MPI runtime (paper §4.4,
// Fig. 6b/c).  Halos move through the plan exchanger of exchange_plan.hpp,
// the only halo exchange: one phase covers faces, edges and corners.
//
// run_distributed_overlapped is the one distributed time-stepping driver:
// every rank owns a sub-grid with halo, posts the exchange of the freshest
// slot, sweeps the interior while the messages fly, then finishes the
// boundary shell.  Global-boundary halos stay zero (Dirichlet), matching
// the single-node ZeroHalo runs so tests can compare distributed against
// single-grid execution point for point.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/exchange_plan.hpp"
#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "prof/counters.hpp"
#include "prof/timeline.hpp"
#include "support/error.hpp"

namespace msc::comm {

/// Result of a distributed run on one rank.
struct DistRunStats {
  ExchangeStats exchange;
  std::int64_t timesteps = 0;
  std::int64_t interior_points_overlapped = 0;  ///< computed while comm in flight
};

/// The distributed driver: runs timesteps t_begin..t_end of the affine
/// stencil `st` on this rank's `local` sub-grid.  The caller seeds the
/// initial slots' interiors; on entry every halo is zero-filled (covering
/// global edges) and the older window slots t_begin-2 .. t_begin-W+1 are
/// exchanged, so the driver can be re-entered on any consistent state (a
/// restored checkpoint, the next chunk of a longer run).  Per step: the
/// fault hook runs, the freshest slot's exchange is posted (the plan's
/// single phase covers faces, edges, and corners, so box stencils overlap
/// too), the sub-domain *interior* (cells at distance >= radius from the
/// local boundary, which read no halo) computes while the messages fly,
/// then the exchange completes and the boundary shell finishes the step.
/// Both sweep through exec::detail::sweep_box, so shell slabs thinner than
/// exec::detail::kColumnSweepWidth in the contiguous dimension (the faces
/// of a decomposition that splits it) sweep as strided columns.  The
/// driver calls sweep_box directly, not run_sweep: routing the ranks
/// through run_sweep raised peak RSS.  The last step's slot is left
/// unexchanged; the next entry's first step exchanges it.
template <typename T>
DistRunStats run_distributed_overlapped(RankCtx& ctx, const CartDecomp& dec,
                                        const ir::StencilDef& st, exec::GridStorage<T>& local,
                                        std::int64_t t_begin, std::int64_t t_end,
                                        const exec::Bindings& bindings = {}) {
  const auto lin = exec::linearize_stencil(st, bindings);
  MSC_CHECK(lin.has_value()) << "overlapped distributed run requires an affine stencil";
  const std::int64_t r = st.max_radius();
  const int nd = local.ndim();

  ExchangePlan plan(dec, ctx.rank(), local.halo());
  PlanWorkspace<T> pws;

  DistRunStats stats;
  for (int slot = 0; slot < local.slots(); ++slot)
    local.fill_halo(slot, exec::Boundary::ZeroHalo);
  // Slot t_begin-1 is the first step's in-flight exchange.
  for (int back = 2; back < st.time_window(); ++back)
    exchange_halo_plan(ctx, plan, pws, local, local.slot_for_time(t_begin - back));

  // The interior box, and the boundary shell as one slab pair per
  // dimension, each shrinking the earlier dimensions' ranges so no cell is
  // swept twice (the high slab starts no lower than the low one ends, for
  // extents where the slabs collide).  Empty boxes are dropped.
  exec::SweepTile interior;
  bool has_interior = true;
  std::vector<exec::SweepTile> shell;
  {
    exec::SweepTile rest;  // the part the shell has not yet covered
    const auto keep = [&](const exec::SweepTile& box) {
      for (int d = 0; d < nd; ++d)
        if (box.hi[static_cast<std::size_t>(d)] <= box.lo[static_cast<std::size_t>(d)]) return;
      shell.push_back(box);
    };
    for (int d = 0; d < nd; ++d) {
      const auto s = static_cast<std::size_t>(d);
      const std::int64_t e = local.extent(d);
      interior.lo[s] = r;
      interior.hi[s] = e - r;
      has_interior &= interior.hi[s] > interior.lo[s];
      rest.lo[s] = 0;
      rest.hi[s] = e;
    }
    for (int d = 0; d < nd; ++d) {
      const auto s = static_cast<std::size_t>(d);
      const std::int64_t e = local.extent(d);
      const std::int64_t cut = std::min(r, e);
      auto slab = rest;
      slab.lo[s] = 0;
      slab.hi[s] = cut;
      keep(slab);
      slab.lo[s] = std::max(cut, e - r);
      slab.hi[s] = e;
      keep(slab);
      rest.lo[s] = cut;
      rest.hi[s] = std::max(cut, e - r);
    }
  }

  for (std::int64_t t = t_begin; t <= t_end; ++t) {
    ctx.fault_hook(t);
    T* out = local.slot_data(local.slot_for_time(t));
    const auto terms = exec::resolve_terms(*lin, local, t);
    const int newest = local.slot_for_time(t - 1);
    const auto pending_stats = begin_exchange_plan(ctx, plan, pws, local, newest);
    {
      // Messages are in flight from here until the finish wait; the "send"
      // span is the window the async exchange offers for hiding comm, and
      // its intersection with compute spans is the overlap-efficiency
      // numerator (critical_path()).
      prof::RankPhaseScope send_window(ctx.rank(), prof::Phase::Send);
      // Interior: needs no halo of the in-flight slot.
      if (has_interior) {
        prof::RankPhaseScope compute_span(ctx.rank(), prof::Phase::Compute);
        const std::int64_t pts = exec::detail::sweep_box(local, out, terms, interior);
        stats.interior_points_overlapped += pts;
        prof::counter("comm.overlap.interior_points").add(pts);
      }
    }
    finish_exchange_plan(ctx, plan, pws, local, newest);
    stats.exchange.messages_sent += pending_stats.messages_sent;
    stats.exchange.bytes_sent += pending_stats.bytes_sent;

    {
      // The shell reads the halos just received; it runs after the wait,
      // so its compute is exposed (never overlapped) time.
      prof::RankPhaseScope compute_span(ctx.rank(), prof::Phase::Compute);
      for (const auto& box : shell) exec::detail::sweep_box(local, out, terms, box);
    }
    ++stats.timesteps;
  }
  const std::int64_t points = local.tensor()->interior_points() * stats.timesteps;
  exec::detail::count_run(points, 2 * static_cast<std::int64_t>(lin->terms.size()) * points,
                          stats.timesteps);
  return stats;
}

}  // namespace msc::comm
