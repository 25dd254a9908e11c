#pragma once

// Timeout/retry policy for the fault-tolerant communication layer.
//
// A blocked receive that outlives its timeout walks a bounded escalation
// ladder instead of deadlocking:
//
//   attempt 0                : plain wait (one timeout window)
//   attempts 1..kMaxRetries  : Retry  — retransmit request + exponential
//                              backoff window with deterministic jitter
//   attempt kMaxRetries + 1  : Resync — one last retransmit after the
//                              longest (capped) window, logged at warn
//   beyond                   : Abort  — throw a diagnosable msc::Error
//                              naming rank/peer/tag/seq and the attempts
//
// The jitter is drawn from a SplitMix64 stream seeded by (seed, rank, peer,
// tag, attempt), so two runs of the same world replay the exact same wait
// schedule — chaos runs stay bit-reproducible.

#include <cstdint>

namespace msc::resilience {

/// The ladder's shape.  Only the base timeout varies (CommConfig /
/// MSC_COMM_TIMEOUT_MS); these four are fixed.
inline constexpr int kMaxRetries = 4;             ///< Retry rungs before the Resync rung
inline constexpr double kBackoffMultiplier = 2.0; ///< window growth per attempt
inline constexpr double kCapMultiplier = 8.0;     ///< window never exceeds timeout*cap
inline constexpr double kJitter = 0.25;           ///< +/- half this fraction of the window

/// What the ladder prescribes for `attempt` (0-based wait attempt count).
enum class Escalation { Wait, Retry, Resync, Abort };

Escalation escalation_for_attempt(int attempt);

const char* escalation_name(Escalation e);

/// Wait-window length in milliseconds for `attempt`:
///   min(timeout * kBackoffMultiplier^attempt, timeout * kCapMultiplier)
///     * (1 + kJitter * (u - 0.5))
/// where u in [0,1) is deterministic in `jitter_seed`.  attempt 0 returns
/// the plain timeout (no jitter), so fault-free runs keep exact deadlines.
double retry_wait_ms(double timeout_ms, int attempt, std::uint64_t jitter_seed);

/// Mixes wait-identity fields into one jitter seed (FNV-1a over the words).
std::uint64_t jitter_seed(std::uint64_t base_seed, int rank, int peer, int tag, int attempt);

}  // namespace msc::resilience
