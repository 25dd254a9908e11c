#pragma once

// Checkpoint/restart wrapper around the distributed time-stepping driver.
//
// run_distributed_checkpointed() is comm::run_distributed plus resilience:
//
//   * a per-step fault hook (RankCtx::fault_hook) so chaos plans can stall
//     or crash ranks mid-run;
//   * periodic per-rank grid snapshots into a CheckpointStore — raw byte
//     images of every sliding-window slot *including halos* (taken right
//     after the step's halo exchange, so a snapshot set at step s is a
//     globally consistent cut: every rank holds exactly the post-exchange
//     state of s);
//   * restart: a fresh world over the same store agrees on the newest
//     consistent cut (between two barriers, so in-flight snapshots cannot
//     skew the vote), restores every rank's slots bit-exactly, and replays
//     the remaining steps.  Replay is deterministic and transport faults
//     are absorbed below us (retry/retransmit), so the final grid is
//     bit-identical to a fault-free run.
//
// The cadence comes from the caller or MSC_CKPT_EVERY; <= 0 disables
// snapshots entirely (the hook and restore scan then cost nothing).

#include <cstdint>
#include <cstring>

#include "comm/halo_exchange.hpp"
#include "prof/log.hpp"
#include "resilience/checkpoint.hpp"

namespace msc::resilience {

/// Reads MSC_CKPT_EVERY (steps between snapshots); unset or unparsable
/// returns `fallback`, explicit <= 0 disables checkpointing.
std::int64_t ckpt_every_from_env(std::int64_t fallback);

/// Raw byte image of every sliding-window slot (halos included).
template <typename T>
Checkpoint snapshot_grid(int rank, std::int64_t step, const exec::GridStorage<T>& grid) {
  Checkpoint ck;
  ck.rank = rank;
  ck.step = step;
  const std::size_t bytes = static_cast<std::size_t>(grid.padded_points()) * sizeof(T);
  for (int s = 0; s < grid.slots(); ++s) {
    std::vector<std::byte> buf(bytes);
    std::memcpy(buf.data(), grid.slot_data(s), bytes);
    ck.slots.push_back(std::move(buf));
  }
  ck.checksum = ck.compute_checksum();
  return ck;
}

template <typename T>
void restore_grid(const Checkpoint& ck, exec::GridStorage<T>& grid) {
  MSC_CHECK(static_cast<int>(ck.slots.size()) == grid.slots())
      << "checkpoint has " << ck.slots.size() << " slots, grid has " << grid.slots();
  const std::size_t bytes = static_cast<std::size_t>(grid.padded_points()) * sizeof(T);
  for (int s = 0; s < grid.slots(); ++s) {
    MSC_CHECK(ck.slots[static_cast<std::size_t>(s)].size() == bytes)
        << "checkpoint slot " << s << " is " << ck.slots[static_cast<std::size_t>(s)].size()
        << " B, grid slot is " << bytes << " B";
    std::memcpy(grid.slot_data(s), ck.slots[static_cast<std::size_t>(s)].data(), bytes);
  }
}

struct CkptRunStats {
  comm::DistRunStats dist;
  std::int64_t checkpoints_taken = 0;
  std::int64_t restored_from_step = -1;  ///< -1 = cold start
};

/// Distributed stepping with fault hooks and checkpoint/restart against a
/// shared `store`.  On a cold start this is run_distributed plus periodic
/// snapshots; after a crash, rerunning the same call over the same store
/// restores the newest consistent cut and replays from there.
template <typename T>
CkptRunStats run_distributed_checkpointed(comm::RankCtx& ctx, const comm::CartDecomp& dec,
                                          const ir::StencilDef& st, exec::GridStorage<T>& local,
                                          std::int64_t t_begin, std::int64_t t_end,
                                          CheckpointStore& store, std::int64_t ckpt_every,
                                          const exec::Bindings& bindings = {}) {
  CkptRunStats stats;
  const int rank = ctx.rank();
  const comm::ExchangePlan plan(dec, rank, local.halo());
  comm::PlanWorkspace<T> pws;

  // Agree on the restore cut with no snapshot writes in flight: every rank
  // reads the store strictly between these two barriers.
  ctx.barrier();
  const std::int64_t cut = store.consistent_step(ctx.size());
  ctx.barrier();

  std::int64_t t_start = t_begin;
  if (cut >= 0) {
    prof::RankPhaseScope restore_span(rank, prof::Phase::Restore);
    const auto ck = store.load(rank, cut);
    MSC_CHECK(ck.has_value()) << "consistent cut " << cut << " missing rank " << rank;
    restore_grid(*ck, local);
    stats.restored_from_step = cut;
    t_start = cut + 1;
    prof::counter("resilience.restores").add(1);
    prof::LogEvent(prof::LogLevel::Info, "resilience.ckpt", "restored")
        .integer("rank", rank)
        .integer("step", static_cast<long long>(cut));
  } else {
    // Cold start: zero all halos (covers global edges), then exchange the
    // initial window slots' neighbor halos — exactly run_distributed's init.
    for (int slot = 0; slot < local.slots(); ++slot)
      local.fill_halo(slot, exec::Boundary::ZeroHalo);
    for (int back = 1; back < st.time_window(); ++back) {
      const int slot = local.slot_for_time(t_begin - back);
      stats.dist.exchange.messages_sent +=
          comm::exchange_halo_plan(ctx, plan, pws, local, slot).messages_sent;
    }
  }

  for (std::int64_t t = t_start; t <= t_end; ++t) {
    ctx.fault_hook(t);
    {
      prof::RankPhaseScope compute_span(rank, prof::Phase::Compute);
      exec::run_reference(st, local, t, t, exec::Boundary::External, bindings);
    }
    const auto ex = comm::exchange_halo_plan(ctx, plan, pws, local, local.slot_for_time(t));
    stats.dist.exchange.messages_sent += ex.messages_sent;
    stats.dist.exchange.bytes_sent += ex.bytes_sent;
    ++stats.dist.timesteps;

    if (ckpt_every > 0 && (t - t_begin + 1) % ckpt_every == 0) {
      prof::RankPhaseScope ckpt_span(rank, prof::Phase::Checkpoint);
      store.save(snapshot_grid(rank, t, local));
      ++stats.checkpoints_taken;
    }
  }
  return stats;
}

}  // namespace msc::resilience
