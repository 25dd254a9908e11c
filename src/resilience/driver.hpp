#pragma once

// Checkpoint/restart around the one distributed driver
// (comm::run_distributed_overlapped).
//
// run_distributed_checkpointed() adds only what is specific to resilience:
//
//   * periodic per-rank grid snapshots into a CheckpointStore — raw byte
//     images of every sliding-window slot.  The driver runs in chunks that
//     end on the snapshot steps, and each rank snapshots between chunks,
//     so a snapshot set at step s is a globally consistent cut of the
//     interiors; halos need not be, because the driver re-exchanges the
//     window halos on entry;
//   * restart: a fresh world over the same store agrees on the newest
//     consistent cut (between two barriers, so in-flight snapshots cannot
//     skew the vote), restores every rank's slots bit-exactly, and replays
//     the remaining steps.  Replay is deterministic and transport faults
//     are absorbed below us (retry/retransmit), so the final grid is
//     bit-identical to a fault-free run.
//
// The driver's per-step fault hook (RankCtx::fault_hook) lets chaos plans
// stall, hang or crash ranks mid-run.  The cadence comes from the caller
// or MSC_CKPT_EVERY; <= 0 disables snapshots (the run is one driver call).

#include <algorithm>
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

/// Distributed stepping with checkpoint/restart against a shared `store`.
/// On a cold start this is the driver plus a snapshot after every step s
/// with (s - t_begin + 1) % ckpt_every == 0; after a crash, rerunning the
/// same call over the same store restores the newest consistent cut and
/// replays from there.
template <typename T>
CkptRunStats run_distributed_checkpointed(comm::RankCtx& ctx, const comm::CartDecomp& dec,
                                          const ir::StencilDef& st, exec::GridStorage<T>& local,
                                          std::int64_t t_begin, std::int64_t t_end,
                                          CheckpointStore& store, std::int64_t ckpt_every,
                                          const exec::Bindings& bindings = {}) {
  CkptRunStats stats;
  const int rank = ctx.rank();

  // Agree on the restore cut with no snapshot writes in flight: every rank
  // reads the store strictly between these two barriers.
  ctx.barrier();
  const std::int64_t cut = store.consistent_step(ctx.size());
  ctx.barrier();

  std::int64_t t = t_begin;
  if (cut >= 0) {
    prof::RankPhaseScope restore_span(rank, prof::Phase::Restore);
    const auto ck = store.load(rank, cut);
    MSC_CHECK(ck.has_value()) << "consistent cut " << cut << " missing rank " << rank;
    restore_grid(*ck, local);
    stats.restored_from_step = cut;
    t = cut + 1;
    prof::counter("resilience.restores").add(1);
    prof::LogEvent(prof::LogLevel::Info, "resilience.ckpt", "restored")
        .integer("rank", rank)
        .integer("step", static_cast<long long>(cut));
  }

  while (t <= t_end) {
    // One chunk runs up to the next snapshot step, or to t_end.
    std::int64_t last = t_end;
    if (ckpt_every > 0)
      last = std::min(last, t_begin - 1 + ((t - t_begin) / ckpt_every + 1) * ckpt_every);
    const comm::DistRunStats chunk =
        comm::run_distributed_overlapped(ctx, dec, st, local, t, last, bindings);
    stats.dist.exchange.messages_sent += chunk.exchange.messages_sent;
    stats.dist.exchange.bytes_sent += chunk.exchange.bytes_sent;
    stats.dist.timesteps += chunk.timesteps;
    stats.dist.interior_points_overlapped += chunk.interior_points_overlapped;
    if (ckpt_every > 0 && (last - t_begin + 1) % ckpt_every == 0) {
      prof::RankPhaseScope ckpt_span(rank, prof::Phase::Checkpoint);
      store.save(snapshot_grid(rank, last, local));
      ++stats.checkpoints_taken;
    }
    t = last + 1;
  }
  return stats;
}

}  // namespace msc::resilience
