#pragma once

// Liveness watchdog over the execution flight recorder.
//
// The flight recorder (prof/flight.hpp) is always on: every engine records
// a span at each row chunk / wedge / AOT pipeline stage it completes.  That
// makes the recorder's global event counter a free liveness heartbeat — a
// healthy run bumps it every few milliseconds, a wedged one (deadlocked
// wavefront, hung compute thread, stuck compiler) stops it dead.  The
// watchdog samples `global_flight().total_recorded()` from a background
// thread and walks an escalation ladder when it stagnates:
//
//   stall_ms   no progress: one Warn line naming the suspect threads
//              (those whose newest flight span is oldest);
//   cancel_ms  still nothing: cancel the supervised token with
//              ErrorCode::WatchdogStall so every checkpoint-polling engine
//              and every deadline-clamped simmpi wait unwinds;
//   dump_ms    still nothing (the run ignored the cancel): write the
//              flight-ring crash dump (msc-flight-v1) to dump_path so the
//              post-mortem shows what every thread was last doing.
//
// Because spans are recorded at completion, a single long-but-healthy span
// is indistinguishable from a stall; thresholds must sit above the longest
// legitimate span (chunk granularity keeps that small).  The watchdog is
// scoped to one supervised run: construct it just before, stop()/destroy it
// right after.  Stopping never blocks on the supervised work.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "support/cancel.hpp"

namespace msc::resilience {

struct WatchdogConfig {
  double poll_ms = 10.0;      ///< heartbeat sampling period
  double stall_ms = 150.0;    ///< no progress for this long -> Warn
  double cancel_ms = 400.0;   ///< -> cancel the token (WatchdogStall)
  double dump_ms = 800.0;     ///< -> write the flight dump (if dump_path set)
  std::string dump_path;      ///< empty = skip the Dumped escalation
};

/// Reads MSC_WATCHDOG_{POLL,STALL,CANCEL,DUMP}_MS over the defaults above
/// (validated: non-numeric / non-positive values are rejected with a
/// structured error line and the default kept).
WatchdogConfig watchdog_config_from_env();

/// How far the escalation ladder ran.
enum class WatchdogStage : int { Idle = 0, Stalled, Cancelled, Dumped };

const char* watchdog_stage_name(WatchdogStage stage);

/// "tid 0: row_chunk 512 ms ago, tid 3: wedge_wait 498 ms ago": the newest
/// flight span of every ring a live thread owns — the threads whose span is
/// oldest are the stall suspects.  What the Stalled/Cancelled lines carry.
std::string watchdog_suspects();

class Watchdog {
 public:
  /// Starts supervising immediately.  `token` is the run's cancel token
  /// (not owned; must outlive the watchdog).
  Watchdog(WatchdogConfig cfg, CancelToken* token);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stops the supervision thread (idempotent; joins it).
  void stop();

  /// Highest escalation reached so far.
  WatchdogStage stage() const {
    return static_cast<WatchdogStage>(stage_.load(std::memory_order_acquire));
  }

  /// Longest heartbeat gap observed, in ms (diagnostics / tests).
  double max_gap_ms() const;

 private:
  void loop();
  void escalate(WatchdogStage to, double gap_ms);

  WatchdogConfig cfg_;
  CancelToken* token_;
  std::atomic<int> stage_{static_cast<int>(WatchdogStage::Idle)};
  std::atomic<std::int64_t> max_gap_us_{0};

  std::mutex m_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace msc::resilience
