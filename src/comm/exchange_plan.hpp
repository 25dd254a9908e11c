#pragma once

// Plan-based halo exchanger (paper §4.4; cf. the 26/27-direction exchangers
// of large production stencil codes).
//
// One *plan* is built per (decomposition, rank, halo): a compacted list of
// the active directions among all 3^ndim-1 neighbor offsets — faces,
// edges, and corners — each with its neighbor rank, tag pair, and the
// exact slab of interior cells to send / halo cells to receive.  One
// exchange then is a single phase: every receive is preposted, every
// direction packs with contiguous inner-dimension memcpy rows into one
// persistently allocated coalesced arena, and corner data arrives directly
// from the diagonal neighbor.  Inactive directions (past a non-periodic
// global boundary) leave their halo cells as the caller filled them.
//
// After every rank zero-fills a slot's halos and exchanges it, each rank's
// padded ring equals the global grid's, halos filled by
// GridStorage::fill_halo (Periodic when the decomposition wraps, else
// ZeroHalo), read at the rank's offset — corners included.  test_halo_plan
// pins that bit for bit.
//
// Tags encode the *direction index* (base-3 over the offset vector) from
// kPlanTagBase up, so a fault plan can aim at one direction's traffic.

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/simmpi.hpp"
#include "exec/grid.hpp"
#include "prof/counters.hpp"
#include "prof/timeline.hpp"
#include "support/error.hpp"

namespace msc::comm {

/// Statistics of one rank's participation in exchanges.
struct ExchangeStats {
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
};

/// First plan tag: the plan's tags live in [kPlanTagBase, kPlanTagBase + 27).
constexpr int kPlanTagBase = 100;

/// Direction index of an offset vector in {-1,0,+1}^ndim: base-3 digits,
/// dimension 0 most significant.  The all-zero offset is index (3^ndim-1)/2
/// and never appears in a plan.
int direction_index(const std::array<int, 3>& off, int ndim);

/// Index of the mirrored offset (every component negated).
int opposite_direction_index(const std::array<int, 3>& off, int ndim);

/// One active direction of an exchange plan.  Regions are in interior
/// coordinates (halo cells are negative / past-extent), [lo, hi) per dim.
struct PlanDirection {
  std::array<int, 3> off{0, 0, 0};
  int index = 0;      ///< base-3 direction id (also the send tag offset)
  int neighbor = -1;  ///< peer rank (may be this rank in periodic 1-rank dims)
  int send_tag = 0;   ///< kPlanTagBase + index
  int recv_tag = 0;   ///< kPlanTagBase + opposite index (what the peer sends us)
  std::array<std::int64_t, 3> send_lo{}, send_hi{};  ///< interior slab to pack
  std::array<std::int64_t, 3> recv_lo{}, recv_hi{};  ///< halo slab to unpack
  std::int64_t elems = 0;        ///< product of (hi - lo)
  std::int64_t arena_offset = 0; ///< element offset into the coalesced arenas
  bool diagonal = false;         ///< >= 2 nonzero offset components
};

/// Compacted active-direction list of one rank, built once at decomposition
/// time and reused for every exchange of the run.
class ExchangePlan {
 public:
  ExchangePlan() = default;

  /// `halo` is the exchange width (the grid's halo).  Local extents come
  /// from the decomposition; exchange functions check them against the grid.
  ExchangePlan(const CartDecomp& dec, int rank, std::int64_t halo);

  int rank() const { return rank_; }
  int ndim() const { return ndim_; }
  std::int64_t halo() const { return halo_; }
  std::int64_t extent(int d) const { return extent_[static_cast<std::size_t>(d)]; }
  const std::vector<PlanDirection>& directions() const { return dirs_; }
  std::int64_t total_elems() const { return total_elems_; }
  int active_count() const { return static_cast<int>(dirs_.size()); }
  int diagonal_count() const { return diagonal_count_; }

 private:
  int rank_ = -1;
  int ndim_ = 0;
  std::int64_t halo_ = 0;
  std::array<std::int64_t, 3> extent_{1, 1, 1};
  std::vector<PlanDirection> dirs_;
  std::int64_t total_elems_ = 0;
  int diagonal_count_ = 0;
};

/// Persistent per-plan buffers: one coalesced send arena and one receive
/// arena, sliced per direction by arena_offset, plus the reused request
/// list.  ensure() sizes everything on first use; steady-state exchanges
/// allocate nothing.
template <typename T>
struct PlanWorkspace {
  std::vector<T> send_arena, recv_arena;
  std::vector<Request> requests;

  void ensure(const ExchangePlan& plan) {
    const auto n = static_cast<std::size_t>(plan.total_elems());
    if (send_arena.size() < n) send_arena.resize(n);
    if (recv_arena.size() < n) recv_arena.resize(n);
    requests.reserve(static_cast<std::size_t>(plan.active_count()) * 2);
  }
};

namespace detail {

/// Row-wise strided block copy, grid -> packed buffer.  Rows run along the
/// innermost dimension (stride 1), so each row is one memcpy.
template <typename T>
void pack_block(const exec::GridStorage<T>& g, int slot, const std::array<std::int64_t, 3>& lo,
                const std::array<std::int64_t, 3>& hi, T* out) {
  const T* data = g.slot_data(slot);
  const auto last = static_cast<std::size_t>(g.ndim() - 1);
  const std::size_t row = static_cast<std::size_t>(hi[last] - lo[last]) * sizeof(T);
  std::array<std::int64_t, 3> c = lo;
  if (g.ndim() == 1) {
    std::memcpy(out, data + g.index(c), row);
    return;
  }
  std::int64_t len = hi[last] - lo[last];
  if (g.ndim() == 2) {
    for (c[0] = lo[0]; c[0] < hi[0]; ++c[0], out += len)
      std::memcpy(out, data + g.index(c), row);
  } else {
    for (c[0] = lo[0]; c[0] < hi[0]; ++c[0])
      for (c[1] = lo[1]; c[1] < hi[1]; ++c[1], out += len)
        std::memcpy(out, data + g.index(c), row);
  }
}

/// Row-wise strided block copy, packed buffer -> grid halo.
template <typename T>
void unpack_block(exec::GridStorage<T>& g, int slot, const std::array<std::int64_t, 3>& lo,
                  const std::array<std::int64_t, 3>& hi, const T* in) {
  T* data = g.slot_data(slot);
  const auto last = static_cast<std::size_t>(g.ndim() - 1);
  const std::size_t row = static_cast<std::size_t>(hi[last] - lo[last]) * sizeof(T);
  std::array<std::int64_t, 3> c = lo;
  if (g.ndim() == 1) {
    std::memcpy(data + g.index(c), in, row);
    return;
  }
  std::int64_t len = hi[last] - lo[last];
  if (g.ndim() == 2) {
    for (c[0] = lo[0]; c[0] < hi[0]; ++c[0], in += len)
      std::memcpy(data + g.index(c), in, row);
  } else {
    for (c[0] = lo[0]; c[0] < hi[0]; ++c[0])
      for (c[1] = lo[1]; c[1] < hi[1]; ++c[1], in += len)
        std::memcpy(data + g.index(c), in, row);
  }
}

template <typename T>
void check_plan_grid(const ExchangePlan& plan, const exec::GridStorage<T>& g) {
  MSC_CHECK(plan.ndim() == g.ndim() && plan.halo() == g.halo())
      << "exchange plan shape mismatch: plan is " << plan.ndim() << "-D halo " << plan.halo()
      << ", grid is " << g.ndim() << "-D halo " << g.halo();
  for (int d = 0; d < g.ndim(); ++d)
    MSC_CHECK(plan.extent(d) == g.extent(d))
        << "exchange plan extent mismatch in dim " << d << ": plan " << plan.extent(d)
        << ", grid " << g.extent(d);
}

}  // namespace detail

/// Preposts every receive and posts every packed send of the plan — the
/// single in-flight phase.  Returns the stats of the posted sends; the
/// caller (or finish_exchange_plan) waits and unpacks.
template <typename T>
ExchangeStats begin_exchange_plan(RankCtx& ctx, const ExchangePlan& plan, PlanWorkspace<T>& ws,
                                  const exec::GridStorage<T>& g, int slot) {
  detail::check_plan_grid(plan, g);
  ws.ensure(plan);
  ws.requests.clear();
  const int rank = ctx.rank();
  ExchangeStats stats;
  {
    // Receives first: with real MPI these would be persistent preposted
    // requests; here the registration order still documents the protocol.
    prof::RankPhaseScope post_span(rank, prof::Phase::Post);
    for (const PlanDirection& dir : plan.directions())
      ws.requests.push_back(ctx.irecv(dir.neighbor, dir.recv_tag,
                                      ws.recv_arena.data() + dir.arena_offset,
                                      dir.elems * static_cast<std::int64_t>(sizeof(T))));
  }
  {
    prof::RankPhaseScope pack_span(rank, prof::Phase::Pack);
    std::int64_t diag_msgs = 0;
    for (const PlanDirection& dir : plan.directions()) {
      T* buf = ws.send_arena.data() + dir.arena_offset;
      detail::pack_block(g, slot, dir.send_lo, dir.send_hi, buf);
      const std::int64_t bytes = dir.elems * static_cast<std::int64_t>(sizeof(T));
      ws.requests.push_back(ctx.isend(dir.neighbor, dir.send_tag, buf, bytes));
      stats.messages_sent += 1;
      stats.bytes_sent += bytes;
      diag_msgs += dir.diagonal ? 1 : 0;
    }
    prof::counter("comm.halo.diag_messages").add(diag_msgs);
  }
  prof::counter("comm.halo.bytes_sent").add(stats.bytes_sent);
  prof::counter("comm.halo.messages").add(stats.messages_sent);
  prof::counter("comm.halo.exchanges").add(1);
  return stats;
}

/// Waits out the phase and unpacks every direction's halo slab.
template <typename T>
void finish_exchange_plan(RankCtx& ctx, const ExchangePlan& plan, PlanWorkspace<T>& ws,
                          exec::GridStorage<T>& g, int slot) {
  ctx.wait_all(ws.requests);  // blocked time lands as "wait" spans (simmpi)
  prof::RankPhaseScope unpack_span(ctx.rank(), prof::Phase::Unpack);
  for (const PlanDirection& dir : plan.directions())
    detail::unpack_block(g, slot, dir.recv_lo, dir.recv_hi,
                         ws.recv_arena.data() + dir.arena_offset);
}

/// One full single-phase exchange: prepost + pack/send + wait + unpack.
/// No barriers, no allocation in steady state.
template <typename T>
ExchangeStats exchange_halo_plan(RankCtx& ctx, const ExchangePlan& plan, PlanWorkspace<T>& ws,
                                 exec::GridStorage<T>& g, int slot) {
  const ExchangeStats stats = begin_exchange_plan(ctx, plan, ws, g, slot);
  finish_exchange_plan(ctx, plan, ws, g, slot);
  return stats;
}

}  // namespace msc::comm
