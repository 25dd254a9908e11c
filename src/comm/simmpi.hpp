#pragma once

// In-process simulated MPI runtime.
//
// The paper's communication library targets mpich on TaihuLight/Tianhe-3;
// no MPI exists in this environment, so MSC's halo exchange runs against
// this functional substitute: every rank is a std::thread, point-to-point
// messages are typed byte buffers moved through per-pair mailboxes, and
// the nonblocking isend/irecv + wait semantics mirror the MPI calls the
// generated code would issue.  Functional tests run real multi-rank data
// movement through it; the large-scale benches use the analytic network
// model (network_model.hpp) instead of spawning thousands of threads.
//
// Fault tolerance (see src/resilience/): every message carries a sequence
// number and an FNV-1a payload checksum; senders keep a bounded retransmit
// buffer.  A blocked wait() with a timeout configured (MSC_COMM_TIMEOUT_MS
// or SimWorld::set_comm_config) walks the retry -> resync -> abort
// escalation ladder instead of deadlocking: duplicates are discarded by
// watermark, corruption is detected by checksum and re-requested, and
// dropped messages are recovered from the retransmit buffer with
// exponential backoff + deterministic jitter.  A FaultInjector (chaos
// plans) perturbs traffic at the send side; crashed ranks are declared
// failed and every survivor blocked on them raises RankFailed rather than
// wedging.  All of this is off (and costs nothing) in fault-free runs:
// without a timeout or injector the fast path is the original one.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "support/cancel.hpp"
#include "support/error.hpp"

namespace msc::resilience {
class FaultInjector;
}

namespace msc::comm {

class SimWorld;

/// Raised on every surviving rank whose wait()/barrier() can no longer
/// complete because a peer rank was declared failed (crashed).
class RankFailed : public Error {
 public:
  RankFailed(std::string message, int rank, int failed_peer)
      : Error(std::move(message)), rank_(rank), failed_peer_(failed_peer) {}
  int rank() const { return rank_; }
  int failed_peer() const { return failed_peer_; }

 private:
  int rank_;
  int failed_peer_;
};

/// Raised by the rank a fault plan crashes (RankCtx::fault_hook).
class RankCrashed : public Error {
 public:
  RankCrashed(std::string message, int rank, std::int64_t step)
      : Error(std::move(message)), rank_(rank), step_(step) {}
  int rank() const { return rank_; }
  std::int64_t step() const { return step_; }

 private:
  int rank_;
  std::int64_t step_;
};

/// Communication resilience knobs.  timeout_ms <= 0 disables timeouts
/// (fault-free default: wait() blocks forever, exactly the MPI semantics);
/// with a FaultInjector attached a default timeout kicks in so chaos runs
/// can never deadlock.
struct CommConfig {
  double timeout_ms = 0.0;
  std::uint64_t seed = 1;  ///< jitter stream seed (deterministic backoff)
};

/// Reads MSC_COMM_TIMEOUT_MS (unset or 0 keeps timeouts off).  Negative or
/// non-numeric values are rejected with one structured error line
/// (support/env.hpp) and the fault-free default is kept.
CommConfig comm_config_from_env();

/// A pending nonblocking operation; resolved by RankCtx::wait.
struct Request {
  enum class Kind { Send, Recv } kind = Kind::Send;
  int peer = -1;
  int tag = 0;
  void* recv_buf = nullptr;
  std::int64_t recv_bytes = 0;
  bool done = false;
};

/// Per-rank communication endpoint passed to the rank body.
class RankCtx {
 public:
  RankCtx(SimWorld* world, int rank) : world_(world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;
  SimWorld& world() { return *world_; }

  /// Nonblocking send: the payload is copied immediately (MPI_Isend with a
  /// buffered small message); completion is immediate but a Request is
  /// returned for symmetric wait() code.
  Request isend(int dst, int tag, const void* data, std::int64_t bytes);

  /// Nonblocking receive: registers interest; wait() blocks until a
  /// matching message arrives and copies it into `buf`.
  Request irecv(int src, int tag, void* buf, std::int64_t bytes);

  /// Blocks until the request completes.  With a timeout configured, walks
  /// the retry/resync/abort escalation ladder on a stalled mailbox and
  /// throws a diagnosable msc::Error (or RankFailed) instead of hanging.
  void wait(Request& req);
  void wait_all(std::vector<Request>& reqs);

  /// Barrier across every rank in the world.  Fault-aware: raises
  /// RankFailed on survivors when any rank was declared failed, instead of
  /// wedging everyone on the arrival count.
  void barrier();

  /// Per-timestep fault hook for the distributed drivers: injects a stall
  /// and/or raises RankCrashed (after declaring this rank failed) when the
  /// attached fault plan says so.  A `hang` rule wedges this rank until the
  /// world's cancel token fires (watchdog/deadline), then declares it failed
  /// and raises RankCrashed so the restart machinery takes over; without a
  /// token the hang self-limits on a bounded fallback so tests cannot
  /// deadlock.  No-op without an injector.
  void fault_hook(std::int64_t step);

 private:
  SimWorld* world_;
  int rank_;
};

/// The rank universe; run() spawns one thread per rank.
class SimWorld {
 public:
  explicit SimWorld(int nranks);
  ~SimWorld();
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  int size() const { return nranks_; }

  /// Resilience knobs; set before run().  The constructor seeds the config
  /// from the environment (MSC_COMM_TIMEOUT_MS).
  void set_comm_config(const CommConfig& cfg) { config_ = cfg; }
  const CommConfig& comm_config() const { return config_; }

  /// Attaches a chaos fault plan engine (not owned; may outlive the world
  /// across crash/restart attempts).  nullptr detaches.
  void set_fault_injector(resilience::FaultInjector* injector) { injector_ = injector; }
  resilience::FaultInjector* fault_injector() const { return injector_; }

  /// Attaches a shared cancellation token (not owned); nullptr detaches.
  /// With a token attached, every blocked wait()/barrier() is clamped to the
  /// remaining deadline budget and polls the token on a short slice, so a
  /// fired token (deadline, watchdog, explicit cancel) raises Cancelled on
  /// every rank instead of leaving sleepers wedged on their condvars.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

  /// True when the resilient envelope path (checksums + retransmit buffer)
  /// is active: a timeout is configured or an injector is attached.
  bool resilient() const { return injector_ != nullptr || config_.timeout_ms > 0.0; }

  /// Effective wait timeout: the configured one, else a safety default
  /// when an injector is attached (chaos must never deadlock), else 0.
  double effective_timeout_ms() const;

  /// Marks `rank` failed and wakes every blocked waiter so survivors can
  /// raise RankFailed.
  void declare_failed(int rank);
  bool rank_failed(int rank) const;
  /// Lowest rank declared failed as a root cause, else the lowest rank
  /// that failed in a RankFailed cascade, else -1 (all ranks healthy).
  int first_failed_rank() const;

  /// Executes `body` on every rank concurrently; rethrows the most
  /// root-cause rank exception after all threads join (a crash or genuine
  /// error wins over the RankFailed it cascaded into the survivors).  A
  /// rank that exits with RankFailed is declared failed in turn, so the
  /// cascade reaches ranks blocked on it without a timeout.  When
  /// no rank threw, audits every mailbox and throws msc::Error naming the
  /// first stray message: one at or above its tag's delivered watermark,
  /// i.e. sent but never received (a late duplicate of a delivered message
  /// is not stray).
  void run(const std::function<void(RankCtx&)>& body);

 private:
  friend class RankCtx;

  using Clock = std::chrono::steady_clock;

  struct Message {
    int tag = 0;
    std::uint64_t seq = 0;       ///< per (src,dst,tag) stream position
    std::uint64_t checksum = 0;  ///< FNV-1a of the payload (resilient mode)
    Clock::time_point deliver_at{};  ///< injected delay; default = immediately
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::mutex m;
    std::condition_variable cv;
    std::deque<Message> messages;
    std::map<int, std::uint64_t> next_seq;   ///< per tag, sender side
    std::map<int, std::uint64_t> delivered;  ///< per tag, receiver watermark
    /// Clean copies of recent sends for retransmission, keyed (tag, seq).
    std::map<std::pair<int, std::uint64_t>, Message> sent;
  };

  /// Lazily creates the (src, dst) mailbox on first touch.  A 1024-rank
  /// world has a million slots but a 26-neighbor exchange touches ~27k of
  /// them; eager allocation would cost hundreds of MB for nothing.
  Mailbox& mailbox(int src, int dst);

  /// Re-queues the clean copy of (tag, seq) from the retransmit buffer.
  /// Caller holds box.m.  False when the copy is not buffered (never sent
  /// or already evicted).
  bool retransmit_locked(Mailbox& box, int tag, std::uint64_t seq);

  int nranks_;
  std::vector<std::atomic<Mailbox*>> mailboxes_;  // src * nranks + dst, lazy
  std::mutex mailbox_create_mutex_;

  CommConfig config_;
  resilience::FaultInjector* injector_ = nullptr;
  const CancelToken* cancel_ = nullptr;

  /// Why a rank is in the failed set: declared (crash, hang) or exited
  /// with RankFailed because a peer failed.
  enum class Failure : char { None, Cascaded, Root };
  void mark_failed(int rank, Failure how);

  mutable std::mutex failed_mutex_;
  std::vector<Failure> failed_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::int64_t barrier_generation_ = 0;
};

}  // namespace msc::comm
