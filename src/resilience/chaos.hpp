#pragma once

// Chaos runtime: sweeps fault scenarios over the distributed stencil stack
// and proves every one recovers to the fault-free answer bit-for-bit.
//
// One scenario = workload x rank count x fault kind x seed.  The runner
//
//   1. executes the scenario fault-free (the one distributed driver,
//      comm::run_distributed_overlapped) to get the oracle grid and its
//      wall time,
//   2. re-executes under a deterministic FaultPlan with checkpointing on
//      (run_distributed_checkpointed, the same driver in checkpoint-sized
//      chunks): transport faults are absorbed by the retry/retransmit
//      layer, crashes abort the world and the runner restarts it over the
//      same CheckpointStore until it completes,
//   3. compares the final gathered grid bit-exactly against the oracle and
//      tallies what the resilience layer actually did (injections, retries,
//      retransmits, restores, checkpoints) — a scenario that injected
//      nothing is vacuous and fails, and so does one whose completed world
//      left a stray (sent, never received) message: SimWorld::run's audit
//      throws, and the scenario fails as unrecoverable.
//
// chaos_report() renders the sweep as a msc-chaos-v1 JSON document; the
// msc-chaos CLI adds a BENCH_chaos_overhead.json on top so the bench-history
// ledger can gate recovery overhead run to run.

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/fault_plan.hpp"
#include "workload/report.hpp"

namespace msc::resilience {

struct ChaosScenario {
  std::string workload = "3d7pt_star";  ///< "3d7pt_star" or "heat2d"
  int nranks = 2;                       ///< ranks along dimension 0
  FaultKind kind = FaultKind::Drop;
  std::uint64_t seed = 1;
  std::int64_t timesteps = 6;
  std::int64_t ckpt_every = 2;
  double timeout_ms = 30.0;  ///< comm timeout under chaos (keeps runs fast)
  /// Target the plan exchanger's diagonal (corner) envelopes instead of all
  /// traffic: trailing decomposition dims become periodic so corner
  /// directions are active, and the fault plan fires only on corner tags.
  /// Message kinds only.
  bool diagonal = false;

  std::string label() const;  ///< "3d7pt_star.r2.drop" / "...drop.diag"
};

struct ChaosResult {
  ChaosScenario scenario;
  bool ok = false;         ///< run completed and matched the oracle
  bool bit_exact = false;  ///< final grid identical to the fault-free run
  int attempts = 0;        ///< world runs (1 = no restart needed)
  std::int64_t faults_injected = 0;
  std::int64_t retries = 0;
  std::int64_t retransmits = 0;
  std::int64_t corrupt_detected = 0;
  std::int64_t duplicates_discarded = 0;
  std::int64_t checkpoints = 0;
  std::int64_t restores = 0;
  double fault_free_seconds = 0.0;
  double chaos_seconds = 0.0;
  std::string note;  ///< failure/vacuity diagnosis

  /// Flight-recorder dump (schema msc-flight-v1) captured at the first
  /// crash of the scenario: the last events per thread leading up to the
  /// fault.  Json::null() when the scenario never crashed.
  workload::Json flight_dump = workload::Json::null();
};

/// The sweep matrix: {3d7pt_star, heat2d} x {nranks} x every fault kind.
/// Smoke mode keeps one rank count and the three high-signal kinds
/// (drop, corrupt, crash) for CI.
std::vector<ChaosScenario> chaos_matrix(bool smoke, std::uint64_t seed);

/// Runs one scenario end to end (fault-free oracle + chaos + compare).
ChaosResult run_chaos_scenario(const ChaosScenario& sc);

/// {"schema":"msc-chaos-v1","scenarios":[...],"total":N,"passed":N,...}
workload::Json chaos_report(const std::vector<ChaosResult>& results);

}  // namespace msc::resilience
