#pragma once

// Deadline-aware cooperative cancellation.
//
// Every long-running path in the library (the host engines, the AOT compile
// pipeline, simmpi waits) accepts an optional `const CancelToken*` and
// checks it where its state is consistent.  A token is cancelled either
// explicitly (caller, watchdog) or implicitly when its Deadline expires; the
// first reason to land wins and is latched.  Checkpoints throw `Cancelled`.
//
// The host engines check once per finished step (the wedges once per time
// block), on the caller thread.  A step writes only the ring slot of
// t - window, so a run stopped before step t still holds an intact,
// halo-filled state through t - 1: `Cancelled::completed_through()` says
// which step that is, and calling the run again from the next step resumes
// it bit-exactly.  Nothing is copied or restored.
//
// A check is one relaxed atomic load plus, when a deadline is armed, one
// steady_clock read; at one check per step both are noise, and the armed
// overhead is pinned by bench_cancellation's history gate.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "support/error.hpp"

namespace msc {

/// Structured error taxonomy.  Every coded failure the degradation ladder can
/// produce maps to one value; `error_code_name` gives the stable slug used in
/// logs, counters, and chaos reports.
enum class ErrorCode : int {
  Ok = 0,
  Cancelled,        ///< explicit CancelToken::cancel() by the caller
  DeadlineExpired,  ///< the token's deadline passed at a checkpoint
  WatchdogStall,    ///< the watchdog cancelled a run with no liveness progress
  CompileTimeout,   ///< AOT host-cc exceeded its compile budget (degraded)
  CompileCrashed,   ///< AOT host-cc died on a signal (degraded)
  Quarantined,      ///< plan routed around AOT by the circuit breaker
  CommTimeout,      ///< simmpi wait exhausted its retry/escalation budget
  RankFailure,      ///< a peer rank crashed or was declared failed
  InvalidConfig,    ///< rejected env knob / option value
  Internal,         ///< invariant violation / uncategorised
};

/// Stable lower_snake slug for an ErrorCode ("deadline_expired", ...).
const char* error_code_name(ErrorCode code);

/// An msc::Error carrying its taxonomy code.
class CodedError : public Error {
 public:
  CodedError(ErrorCode code, std::string message)
      : Error(std::move(message)), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Thrown by CancelToken::checkpoint().  `code()` says why the run stopped
/// (Cancelled / DeadlineExpired / WatchdogStall) and `site()` names the
/// checkpoint that observed it ("sweep.step", "aot.compile", ...).
class Cancelled : public CodedError {
 public:
  Cancelled(ErrorCode code, std::string site);
  const std::string& site() const { return site_; }

  /// The last timestep whose ring slots are intact (t_begin - 1 when no
  /// step finished): run again from completed_through() + 1 to resume.
  /// Set by exec::run_scheduled and exec::run_reference before the
  /// exception leaves them; empty on Cancelled raised elsewhere.
  std::optional<std::int64_t> completed_through() const { return completed_through_; }
  void set_completed_through(std::int64_t t) { completed_through_ = t; }

 private:
  std::string site_;
  std::optional<std::int64_t> completed_through_;
};

/// A wall-clock budget on std::chrono::steady_clock.  Default-constructed
/// deadlines are unarmed and never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;
  explicit Deadline(Clock::time_point when) : armed_(true), when_(when) {}

  /// Deadline `ms` milliseconds from now; ms <= 0 expires immediately.
  static Deadline after_ms(double ms);

  bool armed() const { return armed_; }
  bool expired() const { return armed_ && Clock::now() >= when_; }
  Clock::time_point when() const { return when_; }

  /// Milliseconds until expiry: +inf when unarmed, clamped at 0 when past.
  double remaining_ms() const;

 private:
  bool armed_ = false;
  Clock::time_point when_{};
};

/// Shared cancellation state.  Thread-safe: any thread may cancel(); any
/// number of workers may poll()/checkpoint() concurrently.  The deadline is
/// set before the run starts and not mutated while workers are polling.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline) : deadline_(deadline) {}

  /// Arms (or clears) the deadline.  Not thread-safe against concurrent
  /// poll(); call before handing the token to a run.
  void set_deadline(Deadline deadline) { deadline_ = deadline; }
  const Deadline& deadline() const { return deadline_; }

  /// Requests cancellation.  Idempotent; the first reason latched wins.
  /// `reason` must be Cancelled, DeadlineExpired, or WatchdogStall.
  void cancel(ErrorCode reason = ErrorCode::Cancelled);

  /// Current state without a clock read: the latched reason, or Ok.
  ErrorCode state() const { return static_cast<ErrorCode>(state_.load(std::memory_order_relaxed)); }

  /// Cooperative check: the latched reason if any, else a deadline test
  /// (latching DeadlineExpired the first time it trips).  Ok means keep
  /// going.  Reads the clock on every call, so an expired deadline is seen
  /// at the first poll after it passes.
  ErrorCode poll() const;

  /// Poll and throw Cancelled{reason, site} when the token has fired.
  /// Engines call this at every checkpoint.
  void checkpoint(const char* site) const;

  /// min(cap_ms, remaining deadline budget); cap_ms <= 0 means "no cap"
  /// (returns the deadline budget alone, +inf when unarmed).  Used by
  /// simmpi to map the remaining budget onto its per-wait timeouts.
  double budget_ms(double cap_ms) const;

  /// Number of poll()/checkpoint() calls observed (relaxed; for tests and
  /// the overhead bench, not for synchronization).
  std::int64_t polls() const { return polls_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<int> state_{static_cast<int>(ErrorCode::Ok)};
  mutable std::atomic<std::int64_t> polls_{0};
  Deadline deadline_;
};

/// True for the three codes a CancelToken can latch.
inline bool is_cancellation_code(ErrorCode code) {
  return code == ErrorCode::Cancelled || code == ErrorCode::DeadlineExpired ||
         code == ErrorCode::WatchdogStall;
}

}  // namespace msc
