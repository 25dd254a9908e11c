#pragma once

// Execution flight recorder: always-on, low-overhead span capture for the
// host engines (the profiling layer's "black box" half — what the process
// was doing in the instants before you asked, or before it died).
//
// Unlike the TraceRecorder (opt-in, mutex-guarded, unbounded), the flight
// recorder is armed by default and bounded by construction: every thread
// owns a fixed-size ring of POD events and records into it with plain
// stores plus one release counter bump — no locks, no allocation, no
// cross-thread contention on the hot path.  A disabled recorder costs one
// relaxed atomic load per record call.
//
// Events are fixed-size spans (48 bytes): start/duration in nanoseconds
// against a process-wide steady-clock epoch, the owning thread's stable
// tid, the fingerprint of the plan being executed (FlightPlanScope), a
// kind tag, and two kind-specific payload lanes:
//
//   kind          a                  b
//   Step          points swept       terms
//   RowChunk      points swept       tiles (AOT: row bands) in the chunk
//   WedgeBlock    block start step   steps in the block
//   Wedge         wedge/chunk index  wedge steps run
//   WedgeWait     chunk index        level waited for
//   AotCacheProbe 1 if hit           0
//   AotCompile    source bytes       0
//   AotDlopen     0                  0
//   AotRun        timesteps          0
//   Crash         rank               step
//
// Draining is wait-free for writers: the reader snapshots each ring and
// keeps only events whose stored per-thread sequence number is provably
// not overwritten mid-copy (a seqlock-lite validity window), so a drain
// concurrent with writers yields a consistent suffix per thread.  The
// resilience layer calls flight_dump_json() when a rank crashes so chaos
// reports carry the last-N events per thread (schema "msc-flight-v1").

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "workload/report.hpp"

namespace msc::prof {

enum class FlightKind : std::uint8_t {
  None = 0,
  Step,           ///< one timestep through the per-step sweep engine
  RowChunk,       ///< one parallel_for chunk of sweep tiles or AOT row bands
  WedgeBlock,     ///< one temporal time block
  Wedge,          ///< one wedge (or one chunk-level of the wavefront)
  WedgeWait,      ///< spin waiting on a predecessor chunk's level
  AotCacheProbe,  ///< memory+disk cache lookup for a compiled module
  AotCompile,     ///< host cc invocation
  AotDlopen,      ///< dlopen + symbol/ABI validation
  AotRun,         ///< the AOT route's whole time loop (parent of RowChunk)
  Crash,          ///< a fault-plan crash fired (instant, dur 0)
};

const char* flight_kind_name(FlightKind kind);

struct FlightEvent {
  std::uint64_t start_ns = 0;  ///< steady-clock ns since recorder epoch
  std::uint64_t dur_ns = 0;
  std::uint64_t plan = 0;      ///< plan fingerprint (FlightPlanScope)
  std::int64_t a = 0;          ///< kind-specific payload
  std::int64_t b = 0;
  std::uint32_t seq = 0;       ///< per-thread sequence number
  FlightKind kind = FlightKind::None;
  std::uint8_t pad_[3] = {0, 0, 0};
};
static_assert(sizeof(FlightEvent) == 48, "flight events are fixed-size");

/// Nanoseconds since the recorder epoch (cheap: one vDSO clock read).
std::uint64_t flight_now_ns();

/// One thread's drained suffix, oldest first.
struct FlightThreadDump {
  int tid = 0;                      ///< stable small id, first-seen order
  std::uint64_t recorded = 0;       ///< events ever recorded by this thread
  std::vector<FlightEvent> events;  ///< surviving suffix (<= ring capacity)
};

class FlightRecorder {
 public:
  /// Events retained per thread.  Power of two; 1024 events x 48 B = 48 KB
  /// per thread, enough to hold several full timesteps of chunk spans.
  static constexpr std::size_t kRingCapacity = 1024;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Records one event from the calling thread (wait-free: ring slot store
  /// + release counter bump; first call per thread registers its ring).
  void record(FlightKind kind, std::uint64_t start_ns, std::uint64_t end_ns,
              std::int64_t a = 0, std::int64_t b = 0);

  /// Snapshots every thread's ring: the newest `last_n` surviving events
  /// per thread, oldest first.  Safe concurrent with writers (events
  /// overwritten mid-copy are dropped, never torn).
  std::vector<FlightThreadDump> drain(std::size_t last_n = kRingCapacity) const;

  /// Resets every ring's count (events recorded so far become invisible).
  /// Thread ids and the time epoch are preserved.
  void clear();

  /// Total events ever recorded across threads (monotonic until clear).
  std::uint64_t total_recorded() const;

 private:
  struct ThreadRing {
    int tid = 0;
    // Written only by the owning thread; count published with release so a
    // drain's acquire load sees fully-stored events below it.
    std::atomic<std::uint64_t> count{0};
    std::array<FlightEvent, kRingCapacity> events;
  };

  ThreadRing& ring_for_current_thread();

  const std::uint64_t id_ = next_recorder_id();
  static std::uint64_t next_recorder_id();
  std::atomic<bool> enabled_{true};
  mutable std::mutex registry_mutex_;  // ring registration + drain snapshot
  std::vector<std::unique_ptr<ThreadRing>> rings_;
};

/// The process-wide recorder the host engines report into.
FlightRecorder& global_flight();

/// RAII span against the global recorder.  Payload lanes may be filled any
/// time before destruction (e.g. with tallies only known after the work).
class FlightScope {
 public:
  explicit FlightScope(FlightKind kind, std::int64_t a = 0, std::int64_t b = 0)
      : armed_(global_flight().enabled()), kind_(kind), a_(a), b_(b) {
    if (armed_) start_ = flight_now_ns();
  }
  ~FlightScope() {
    if (armed_) global_flight().record(kind_, start_, flight_now_ns(), a_, b_);
  }
  FlightScope(const FlightScope&) = delete;
  FlightScope& operator=(const FlightScope&) = delete;

  void set_a(std::int64_t a) { a_ = a; }
  void set_b(std::int64_t b) { b_ = b; }

 private:
  bool armed_;
  FlightKind kind_;
  std::int64_t a_, b_;
  std::uint64_t start_ = 0;
};

/// The plan fingerprint stamped into events recorded while a plan executes.
/// Process-global (the engines run one plan at a time; pool workers inherit
/// it without any per-thread handoff); scopes nest and restore.
std::uint64_t current_flight_plan();

class FlightPlanScope {
 public:
  explicit FlightPlanScope(std::uint64_t plan);
  ~FlightPlanScope();
  FlightPlanScope(const FlightPlanScope&) = delete;
  FlightPlanScope& operator=(const FlightPlanScope&) = delete;

 private:
  std::uint64_t prev_;
};

/// FNV-1a fingerprint of a lowered plan's observable shape; the join key
/// between flight events and the attribution engine's analytic walk.
std::uint64_t plan_fingerprint(std::uint64_t extent0, std::uint64_t extent1,
                               std::uint64_t extent2, std::uint64_t nterms,
                               std::uint64_t tiles, std::uint64_t extra = 0);

/// The crash-dump document (schema "msc-flight-v1"): the newest `last_n`
/// events per thread, with kinds spelled out.  This is what msc-chaos
/// attaches to crash reports.
workload::Json flight_dump_json(std::size_t last_n = 64);

}  // namespace msc::prof
