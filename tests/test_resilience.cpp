// Resilience tests: the retry/backoff ladder, fault plans and the
// deterministic injector, the fault-tolerant simmpi transport (drop /
// corrupt / duplicate / delay recovery, timeout-abort diagnosis, barrier
// behavior under rank failure), checkpoint/restart, and the chaos runner.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "comm/decompose.hpp"
#include "comm/simmpi.hpp"
#include "exec/grid.hpp"
#include "frontend/spec.hpp"
#include "ir/tensor.hpp"
#include "prof/counters.hpp"
#include "resilience/chaos.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/driver.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/retry.hpp"
#include "support/error.hpp"

namespace msc::resilience {
namespace {

// ---- retry/backoff math --------------------------------------------------

TEST(Retry, EscalationLadderOrder) {
  EXPECT_EQ(escalation_for_attempt(0), Escalation::Wait);
  for (int a = 1; a <= kMaxRetries; ++a)
    EXPECT_EQ(escalation_for_attempt(a), Escalation::Retry) << "attempt " << a;
  EXPECT_EQ(escalation_for_attempt(kMaxRetries + 1), Escalation::Resync);
  EXPECT_EQ(escalation_for_attempt(kMaxRetries + 2), Escalation::Abort);
  EXPECT_EQ(escalation_for_attempt(100), Escalation::Abort);
}

TEST(Retry, AttemptZeroIsThePlainTimeout) {
  EXPECT_DOUBLE_EQ(retry_wait_ms(10.0, 0, 12345), 10.0);
  // ... regardless of the jitter seed: fault-free runs keep exact deadlines.
  EXPECT_DOUBLE_EQ(retry_wait_ms(10.0, 0, 999), 10.0);
}

TEST(Retry, BackoffGrowsAndCaps) {
  const double timeout = 10.0;
  // Window centers grow by kBackoffMultiplier per attempt until the cap;
  // jitter is at most +/- kJitter/2 of the window.
  double prev = timeout;
  for (int a = 1; a <= 3; ++a) {
    const double w = retry_wait_ms(timeout, a, jitter_seed(1, 0, 1, 0, a));
    const double center = timeout * std::pow(kBackoffMultiplier, a);
    EXPECT_GE(w, center * (1.0 - kJitter / 2.0) - 1e-9) << "attempt " << a;
    EXPECT_LE(w, center * (1.0 + kJitter / 2.0) + 1e-9) << "attempt " << a;
    EXPECT_GT(w, prev);
    prev = w;
  }
  // Far beyond the cap the window stops growing.
  const double capped = timeout * kCapMultiplier;
  for (int a = 10; a < 13; ++a) {
    const double w = retry_wait_ms(timeout, a, jitter_seed(1, 0, 1, 0, a));
    EXPECT_GE(w, capped * (1.0 - kJitter / 2.0) - 1e-9);
    EXPECT_LE(w, capped * (1.0 + kJitter / 2.0) + 1e-9);
  }
}

TEST(Retry, JitterIsDeterministic) {
  const double a = retry_wait_ms(10.0, 2, jitter_seed(7, 0, 1, 3, 2));
  const double b = retry_wait_ms(10.0, 2, jitter_seed(7, 0, 1, 3, 2));
  EXPECT_DOUBLE_EQ(a, b);  // same identity -> same wait schedule, replayable
  // Different attempts draw from different streams (the ladder does not
  // re-use one jitter value forever).
  EXPECT_NE(jitter_seed(7, 0, 1, 3, 2), jitter_seed(7, 0, 1, 3, 3));
  EXPECT_NE(jitter_seed(7, 0, 1, 3, 2), jitter_seed(7, 1, 0, 3, 2));
}

// ---- fault plans and the injector ----------------------------------------

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan plan;
  plan.seed = 99;
  FaultRule drop;
  drop.kind = FaultKind::Drop;
  drop.src = 0;
  drop.dst = 1;
  drop.tag = 4;
  drop.probability = 0.5;
  drop.max_count = 2;
  plan.rules.push_back(drop);
  FaultRule corrupt;
  corrupt.kind = FaultKind::Corrupt;
  corrupt.bit = 17;
  corrupt.max_count = 1;
  plan.rules.push_back(corrupt);
  FaultRule crash;
  crash.kind = FaultKind::Crash;
  crash.rank = 1;
  crash.at_step = 3;
  plan.rules.push_back(crash);

  const FaultPlan back = FaultPlan::parse(plan.to_json().dump());
  ASSERT_EQ(back.rules.size(), plan.rules.size());
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.rules[0].kind, FaultKind::Drop);
  EXPECT_EQ(back.rules[0].src, 0);
  EXPECT_EQ(back.rules[0].dst, 1);
  EXPECT_EQ(back.rules[0].tag, 4);
  EXPECT_DOUBLE_EQ(back.rules[0].probability, 0.5);
  EXPECT_EQ(back.rules[0].max_count, 2);
  EXPECT_EQ(back.rules[1].kind, FaultKind::Corrupt);
  EXPECT_EQ(back.rules[1].bit, 17);
  EXPECT_EQ(back.rules[2].kind, FaultKind::Crash);
  EXPECT_EQ(back.rules[2].rank, 1);
  EXPECT_EQ(back.rules[2].at_step, 3);
}

TEST(FaultPlan, RejectsBadInput) {
  EXPECT_THROW(FaultPlan::parse(R"({"schema":"nope","rules":[]})"), Error);
  EXPECT_THROW(FaultPlan::parse(R"({"schema":"msc-fault-plan-v1"})"), Error);
  EXPECT_THROW(
      FaultPlan::parse(R"({"schema":"msc-fault-plan-v1","rules":[{"kind":"gremlin"}]})"),
      Error);
  // Rank faults need a target rank.
  EXPECT_THROW(
      FaultPlan::parse(R"({"schema":"msc-fault-plan-v1","rules":[{"kind":"crash"}]})"),
      Error);
}

TEST(FaultPlan, InjectorHonorsMaxCount) {
  FaultInjector injector(make_message_fault_plan(FaultKind::Drop, 1, /*max_count=*/2));
  int drops = 0;
  for (std::uint64_t seq = 0; seq < 6; ++seq)
    drops += injector.on_send(0, 1, 0, seq, 64).drop ? 1 : 0;
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(injector.injected(FaultKind::Drop), 2);
  EXPECT_EQ(injector.total_injected(), 2);
}

TEST(FaultPlan, InjectorIsDeterministic) {
  FaultPlan plan;
  plan.seed = 5;
  FaultRule r;
  r.kind = FaultKind::Drop;
  r.probability = 0.5;
  plan.rules.push_back(r);

  FaultInjector a(plan), b(plan);
  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    EXPECT_EQ(a.on_send(0, 1, 2, seq, 64).drop, b.on_send(0, 1, 2, seq, 64).drop)
        << "seq " << seq;
  }
  EXPECT_EQ(a.total_injected(), b.total_injected());
}

// ---- fault-tolerant transport --------------------------------------------

comm::CommConfig quick_config(double timeout_ms) {
  comm::CommConfig cfg;
  cfg.timeout_ms = timeout_ms;
  cfg.seed = 1;
  return cfg;
}

TEST(SimMpiResilience, WaitTimeoutAbortNamesRankPeerAndTag) {
  comm::SimWorld world(2);
  world.set_comm_config(quick_config(2.0));
  try {
    world.run([](comm::RankCtx& ctx) {
      if (ctx.rank() != 0) return;  // peer never sends
      int buf = 0;
      auto r = ctx.irecv(1, /*tag=*/3, &buf, sizeof buf);
      ctx.wait(r);
    });
    FAIL() << "wait() on a silent peer must abort, not hang";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("peer 1"), std::string::npos) << what;
    EXPECT_NE(what.find("tag 3"), std::string::npos) << what;
    EXPECT_NE(what.find("retries"), std::string::npos) << what;
  }
}

TEST(SimMpiResilience, DroppedMessageIsRetransmitted) {
  FaultInjector injector(make_message_fault_plan(FaultKind::Drop, 1, 1));
  comm::SimWorld world(2);
  world.set_fault_injector(&injector);
  world.set_comm_config(quick_config(5.0));
  world.run([](comm::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const double v = 3.25;
      auto s = ctx.isend(1, 0, &v, sizeof v);
      ctx.wait(s);
    } else {
      double got = 0.0;
      auto r = ctx.irecv(0, 0, &got, sizeof got);
      ctx.wait(r);
      EXPECT_DOUBLE_EQ(got, 3.25);
    }
  });
  EXPECT_EQ(injector.injected(FaultKind::Drop), 1);
}

TEST(SimMpiResilience, CorruptionIsDetectedAndRecovered) {
  FaultInjector injector(make_message_fault_plan(FaultKind::Corrupt, 1, 1));
  const std::int64_t detected_before = prof::counter("resilience.corrupt_detected").value();
  comm::SimWorld world(2);
  world.set_fault_injector(&injector);
  world.set_comm_config(quick_config(5.0));
  world.run([](comm::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const double v = 1.5;
      auto s = ctx.isend(1, 0, &v, sizeof v);
      ctx.wait(s);
    } else {
      double got = 0.0;
      auto r = ctx.irecv(0, 0, &got, sizeof got);
      ctx.wait(r);
      EXPECT_DOUBLE_EQ(got, 1.5);  // the flipped-bit copy must never land
    }
  });
  EXPECT_EQ(injector.injected(FaultKind::Corrupt), 1);
  EXPECT_GE(prof::counter("resilience.corrupt_detected").value(), detected_before + 1);
}

TEST(SimMpiResilience, DuplicatesAreDiscardedInOrder) {
  FaultInjector injector(make_message_fault_plan(FaultKind::Duplicate, 1, 2));
  comm::SimWorld world(2);
  world.set_fault_injector(&injector);
  world.set_comm_config(quick_config(5.0));
  world.run([](comm::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int v : {10, 20, 30}) {
        auto s = ctx.isend(1, 0, &v, sizeof v);
        ctx.wait(s);
      }
    } else {
      for (int expect : {10, 20, 30}) {
        int got = 0;
        auto r = ctx.irecv(0, 0, &got, sizeof got);
        ctx.wait(r);
        EXPECT_EQ(got, expect);
      }
    }
  });
  EXPECT_EQ(injector.injected(FaultKind::Duplicate), 2);
}

TEST(SimMpiResilience, DelayedMessageStillArrives) {
  FaultPlan plan;
  plan.seed = 1;
  FaultRule r;
  r.kind = FaultKind::Delay;
  r.delay_ms = 4.0;
  r.max_count = 1;
  plan.rules.push_back(r);
  FaultInjector injector(plan);
  comm::SimWorld world(2);
  world.set_fault_injector(&injector);
  world.set_comm_config(quick_config(20.0));
  world.run([](comm::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const int v = 7;
      auto s = ctx.isend(1, 0, &v, sizeof v);
      ctx.wait(s);
    } else {
      int got = 0;
      auto r = ctx.irecv(0, 0, &got, sizeof got);
      ctx.wait(r);
      EXPECT_EQ(got, 7);
    }
  });
  EXPECT_EQ(injector.injected(FaultKind::Delay), 1);
}

// Satellite regression: a crashed rank must fail the survivors' barrier
// with a diagnosable RankFailed instead of wedging the arrival count.
TEST(SimMpiResilience, BarrierRaisesRankFailedOnSurvivors) {
  comm::SimWorld world(2);
  world.set_comm_config(quick_config(50.0));
  std::atomic<int> survivor_saw_failed_peer{-1};
  EXPECT_THROW(
      world.run([&](comm::RankCtx& ctx) {
        if (ctx.rank() == 1) {
          ctx.world().declare_failed(1);
          throw comm::RankCrashed("injected crash", 1, 0);
        }
        try {
          ctx.barrier();
          FAIL() << "barrier must not complete with a failed rank";
        } catch (const comm::RankFailed& e) {
          survivor_saw_failed_peer = e.failed_peer();
          throw;
        }
      }),
      comm::RankCrashed);  // run() rethrows the root cause, not the cascade
  EXPECT_EQ(survivor_saw_failed_peer.load(), 1);
  EXPECT_TRUE(world.rank_failed(1));
  EXPECT_EQ(world.first_failed_rank(), 1);
}

// A rank that dies of a cascaded RankFailed is itself declared failed: in
// the chain 0 <- 1 <- 2, rank 2 (blocked on rank 1, not on the crashed
// rank 0) raises RankFailed naming peer 1 at once instead of walking its
// retry ladder into CommTimeout, and still receives what rank 1 sent
// before it died.
TEST(SimMpiResilience, CascadedFailureReachesRanksBlockedOnTheCasualty) {
  comm::SimWorld world(3);
  world.set_comm_config(quick_config(300.0));
  const std::int64_t timeouts_before = prof::counter("comm.wait.timeouts").value();
  std::atomic<int> rank2_saw_failed_peer{-1};
  std::atomic<int> rank2_got{0};
  EXPECT_THROW(
      world.run([&](comm::RankCtx& ctx) {
        int v = 0;
        if (ctx.rank() == 0) {
          ctx.world().declare_failed(0);
          throw comm::RankCrashed("injected crash", 0, 0);
        }
        if (ctx.rank() == 1) {
          v = 42;
          auto s = ctx.isend(2, 0, &v, sizeof v);
          ctx.wait(s);
          auto r = ctx.irecv(0, 0, &v, sizeof v);
          ctx.wait(r);  // rank 0 never sends: RankFailed (peer 0)
          return;
        }
        auto first = ctx.irecv(1, 0, &v, sizeof v);
        ctx.wait(first);
        rank2_got = v;
        try {
          auto second = ctx.irecv(1, 1, &v, sizeof v);
          ctx.wait(second);
        } catch (const comm::RankFailed& e) {
          rank2_saw_failed_peer = e.failed_peer();
          throw;
        }
      }),
      comm::RankCrashed);
  EXPECT_EQ(rank2_got.load(), 42);
  EXPECT_EQ(rank2_saw_failed_peer.load(), 1);
  EXPECT_EQ(prof::counter("comm.wait.timeouts").value(), timeouts_before)
      << "rank 2 waited out a retry window instead of seeing rank 1 fail";
  EXPECT_EQ(world.first_failed_rank(), 0);  // the root cause, not the cascade
}

TEST(SimMpiResilience, LateDuplicateIsNotAStrayMessage) {
  // The duplicate of the only message stays queued after the original is
  // received; it sits below the tag's delivered watermark, so the post-run
  // stray audit must let the run complete.
  FaultInjector injector(make_message_fault_plan(FaultKind::Duplicate, 1, 1));
  comm::SimWorld world(2);
  world.set_fault_injector(&injector);
  world.set_comm_config(quick_config(5.0));
  EXPECT_NO_THROW(world.run([](comm::RankCtx& ctx) {
    int v = 7;
    if (ctx.rank() == 0) {
      auto s = ctx.isend(1, 0, &v, sizeof v);
      ctx.wait(s);
    } else {
      auto r = ctx.irecv(0, 0, &v, sizeof v);
      ctx.wait(r);
    }
  }));
  EXPECT_EQ(injector.injected(FaultKind::Duplicate), 1);
}

TEST(SimMpiResilience, FaultFreeWorldStaysOnTheFastPath) {
  comm::SimWorld world(2);
  // No injector, no timeout: the envelope/retransmit machinery must be off.
  if (world.comm_config().timeout_ms <= 0.0) {
    EXPECT_FALSE(world.resilient());
    EXPECT_DOUBLE_EQ(world.effective_timeout_ms(), 0.0);
  }
  FaultInjector injector(make_message_fault_plan(FaultKind::Drop, 1, 1));
  world.set_fault_injector(&injector);
  EXPECT_TRUE(world.resilient());
  EXPECT_GT(world.effective_timeout_ms(), 0.0);  // chaos can never deadlock
}

// ---- checkpoint/restart --------------------------------------------------

Checkpoint tiny_checkpoint(int rank, std::int64_t step, std::byte fill) {
  Checkpoint ck;
  ck.rank = rank;
  ck.step = step;
  ck.slots.push_back(std::vector<std::byte>(32, fill));
  ck.slots.push_back(std::vector<std::byte>(32, ~fill));
  ck.checksum = ck.compute_checksum();
  return ck;
}

TEST(Checkpoint, StoreRoundTripAndConsistentCut) {
  CheckpointStore store(/*keep_per_rank=*/2);
  EXPECT_EQ(store.consistent_step(2), -1);

  store.save(tiny_checkpoint(0, 2, std::byte{0x11}));
  EXPECT_EQ(store.consistent_step(2), -1);  // rank 1 has nothing yet
  store.save(tiny_checkpoint(1, 2, std::byte{0x22}));
  EXPECT_EQ(store.consistent_step(2), 2);

  store.save(tiny_checkpoint(0, 4, std::byte{0x33}));
  EXPECT_EQ(store.consistent_step(2), 2);  // rank 1 is still at 2
  store.save(tiny_checkpoint(1, 4, std::byte{0x44}));
  EXPECT_EQ(store.consistent_step(2), 4);

  const auto ck = store.load(0, 2);
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->slots[0][0], std::byte{0x11});
  EXPECT_EQ(ck->checksum, ck->compute_checksum());
  EXPECT_FALSE(store.load(0, 99).has_value());
  EXPECT_GE(store.checkpoints_written(), 4);
  EXPECT_GT(store.bytes_written(), 0);

  // keep_per_rank=2: a third step evicts the oldest and the old cut is gone.
  store.save(tiny_checkpoint(0, 6, std::byte{0x55}));
  EXPECT_FALSE(store.load(0, 2).has_value());

  store.clear();
  EXPECT_EQ(store.consistent_step(2), -1);
}

TEST(Checkpoint, CorruptImageIsRejected) {
  auto ck = tiny_checkpoint(0, 1, std::byte{0x7f});
  ck.slots[0][3] ^= std::byte{0x01};  // bit rot after the checksum was taken
  CheckpointStore store;
  EXPECT_THROW(store.save(ck), Error);
}

TEST(Checkpoint, GridSnapshotRestoreIsBitExact) {
  auto tensor = ir::make_sp_tensor("u", ir::DataType::f64, {6, 5}, 1, 2);
  exec::GridStorage<double> grid(tensor);
  grid.fill_random(0, 42);
  grid.fill_random(1, 43);

  const Checkpoint ck = snapshot_grid(0, 3, grid);
  EXPECT_EQ(ck.step, 3);
  ASSERT_EQ(static_cast<int>(ck.slots.size()), grid.slots());

  exec::GridStorage<double> other(tensor);
  other.fill_random(0, 77);  // deliberately different content
  other.fill_random(1, 78);
  restore_grid(ck, other);
  const std::size_t bytes = static_cast<std::size_t>(grid.padded_points()) * sizeof(double);
  for (int s = 0; s < grid.slots(); ++s)
    EXPECT_EQ(std::memcmp(grid.slot_data(s), other.slot_data(s), bytes), 0) << "slot " << s;
}

TEST(Checkpoint, ChunkedRunSnapshotsOnCadenceAndRestoresBitExact) {
  // Two time terms (window 3), steps 1..7, a snapshot every 3 steps: the
  // driver runs the chunks [1,3] [4,6] [7,7] and snapshots after steps 3
  // and 6.  The result must equal one plain driver call; a second call
  // over the same store, on grids seeded with other values, must restore
  // the cut at 6, replay step 7 and land on the same bits.
  const auto prog = frontend::program_from_spec(R"(name ckpt2d
grid 10 9
halo 1
dtype f64
point  0  0 0.3
point  0 -1 0.1
point  0  1 0.2
point -1  0 0.15
point  1  0 0.25
term -1 0.7
term -2 0.3
)");
  const auto& st = prog->stencil();
  ASSERT_EQ(st.time_window(), 3);
  constexpr std::int64_t kSteps = 7;
  const comm::CartDecomp dec({2, 1}, {10, 9});
  CheckpointStore store(/*keep_per_rank=*/4);
  std::vector<CkptRunStats> stats(2);
  const auto run = [&](bool checkpointed, std::uint64_t seed) {
    std::vector<std::vector<double>> out(2);
    comm::SimWorld world(2);
    world.run([&](comm::RankCtx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      exec::GridStorage<double> local(ir::make_sp_tensor(
          "B", ir::DataType::f64, {dec.local_extent(ctx.rank(), 0), 9}, 1, 3));
      for (int s = 0; s < local.slots(); ++s)
        local.fill_random(s, seed + r * 3 + static_cast<std::uint64_t>(s));
      if (checkpointed)
        stats[r] = run_distributed_checkpointed(ctx, dec, st, local, 1, kSteps, store, 3);
      else
        comm::run_distributed_overlapped(ctx, dec, st, local, 1, kSteps);
      out[r] = local.interior_values(local.slot_for_time(kSteps));
    });
    return out;
  };

  const auto plain = run(false, 5);
  EXPECT_EQ(run(true, 5), plain);
  for (int r = 0; r < 2; ++r) {
    const auto& rs = stats[static_cast<std::size_t>(r)];
    EXPECT_EQ(rs.checkpoints_taken, 2);
    EXPECT_EQ(rs.dist.timesteps, kSteps);
    EXPECT_EQ(rs.restored_from_step, -1);
    EXPECT_TRUE(store.load(r, 3).has_value());
    EXPECT_TRUE(store.load(r, 6).has_value());
    EXPECT_FALSE(store.load(r, 7).has_value());
  }
  ASSERT_EQ(store.consistent_step(2), 6);

  EXPECT_EQ(run(true, 99), plain);
  for (const auto& rs : stats) {
    EXPECT_EQ(rs.restored_from_step, 6);
    EXPECT_EQ(rs.dist.timesteps, 1);
    EXPECT_EQ(rs.checkpoints_taken, 0);
  }
}

TEST(Checkpoint, FileRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "msc_ckpt_test";
  fs::create_directories(dir);
  const std::string path = (dir / "rank0.ckpt").string();

  const Checkpoint ck = tiny_checkpoint(3, 9, std::byte{0xab});
  write_checkpoint_file(path, ck);
  const Checkpoint back = read_checkpoint_file(path);
  EXPECT_EQ(back.rank, 3);
  EXPECT_EQ(back.step, 9);
  EXPECT_EQ(back.checksum, ck.checksum);
  ASSERT_EQ(back.slots.size(), ck.slots.size());
  for (std::size_t s = 0; s < ck.slots.size(); ++s) EXPECT_EQ(back.slots[s], ck.slots[s]);

  // A truncated file must be rejected, not silently restored.
  fs::resize_file(path, 10);
  EXPECT_THROW(read_checkpoint_file(path), Error);
  EXPECT_THROW(read_checkpoint_file((dir / "absent.ckpt").string()), Error);
}

TEST(Checkpoint, CkptEveryFromEnv) {
  ::unsetenv("MSC_CKPT_EVERY");
  EXPECT_EQ(ckpt_every_from_env(7), 7);
  ::setenv("MSC_CKPT_EVERY", "5", 1);
  EXPECT_EQ(ckpt_every_from_env(7), 5);
  ::setenv("MSC_CKPT_EVERY", "0", 1);
  EXPECT_EQ(ckpt_every_from_env(7), 0);  // explicit off
  ::setenv("MSC_CKPT_EVERY", "junk", 1);
  EXPECT_EQ(ckpt_every_from_env(7), 7);
  ::unsetenv("MSC_CKPT_EVERY");
}

TEST(CommConfig, FromEnv) {
  ::setenv("MSC_COMM_TIMEOUT_MS", "50", 1);
  EXPECT_DOUBLE_EQ(comm::comm_config_from_env().timeout_ms, 50.0);
  ::unsetenv("MSC_COMM_TIMEOUT_MS");
  EXPECT_DOUBLE_EQ(comm::comm_config_from_env().timeout_ms, 0.0);
}

// ---- chaos runner --------------------------------------------------------

TEST(Chaos, MatrixShapes) {
  const auto smoke = chaos_matrix(true, 1);
  const auto full = chaos_matrix(false, 1);
  EXPECT_GT(smoke.size(), 0u);
  EXPECT_GT(full.size(), smoke.size());
  for (const auto& sc : smoke) EXPECT_FALSE(sc.label().empty());
  // Smoke keeps the high-signal kinds (a crash must be among them so CI
  // exercises restart, not just retransmission).
  bool has_crash = false;
  for (const auto& sc : smoke) has_crash |= sc.kind == FaultKind::Crash;
  EXPECT_TRUE(has_crash);
}

TEST(Chaos, CrashScenarioRestartsAndRecoversBitExact) {
  ChaosScenario sc;
  sc.workload = "3d7pt_star";
  sc.nranks = 2;
  sc.kind = FaultKind::Crash;
  sc.seed = 1;
  const ChaosResult res = run_chaos_scenario(sc);
  EXPECT_TRUE(res.ok) << res.note;
  EXPECT_TRUE(res.bit_exact) << res.note;
  EXPECT_GE(res.attempts, 2) << "a crash must force at least one restart";
  EXPECT_GE(res.faults_injected, 1);
  EXPECT_GE(res.checkpoints, 1);
  EXPECT_GE(res.restores, 1) << "recovery must come from the checkpoint cut";
}

TEST(Chaos, DropScenarioRecoversWithoutRestart) {
  ChaosScenario sc;
  sc.workload = "heat2d";
  sc.nranks = 2;
  sc.kind = FaultKind::Drop;
  sc.seed = 1;
  const ChaosResult res = run_chaos_scenario(sc);
  EXPECT_TRUE(res.ok) << res.note;
  EXPECT_TRUE(res.bit_exact) << res.note;
  EXPECT_EQ(res.attempts, 1) << "transport faults are absorbed in-flight";
  EXPECT_GE(res.faults_injected, 1);
  EXPECT_GE(res.retries, 1) << "a dropped halo must be re-requested";
}

TEST(Chaos, MatrixIncludesDiagonalEnvelopeScenarios) {
  const auto full = chaos_matrix(false, 1);
  int diag = 0;
  for (const auto& sc : full)
    if (sc.diagonal) {
      ++diag;
      EXPECT_NE(sc.label().find(".diag"), std::string::npos);
      EXPECT_TRUE(sc.kind == FaultKind::Drop || sc.kind == FaultKind::Corrupt ||
                  sc.kind == FaultKind::Delay)
          << "diagonal targeting is for message kinds only";
    }
  EXPECT_GT(diag, 0) << "full matrix must cover corner-envelope faults";
}

TEST(Chaos, DiagonalDropTargetsCornerTagsAndRecovers) {
  // Drop aimed exclusively at the plan exchanger's corner tags: the
  // retransmit layer must recover it and the grid must match the oracle
  // bit for bit — a corner-phase recovery bug cannot hide behind faces.
  ChaosScenario sc;
  sc.workload = "heat2d";
  sc.nranks = 2;
  sc.kind = FaultKind::Drop;
  sc.seed = 1;
  sc.diagonal = true;
  const ChaosResult res = run_chaos_scenario(sc);
  EXPECT_TRUE(res.ok) << res.note;
  EXPECT_TRUE(res.bit_exact) << res.note;
  EXPECT_EQ(res.attempts, 1) << "transport faults are absorbed in-flight";
  EXPECT_GE(res.faults_injected, 1) << "no corner message was ever targeted";
}

TEST(Chaos, ReportSchema) {
  ChaosScenario sc;
  sc.kind = FaultKind::Duplicate;
  std::vector<ChaosResult> results = {run_chaos_scenario(sc)};
  const auto doc = chaos_report(results);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_string(), "msc-chaos-v1");
  EXPECT_EQ(doc.find("total")->as_integer(), 1);
  EXPECT_EQ(doc.find("passed")->as_integer(), 1);
  ASSERT_TRUE(doc.find("scenarios")->is_array());
}

}  // namespace
}  // namespace msc::resilience
