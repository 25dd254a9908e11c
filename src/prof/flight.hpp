#pragma once

// Execution flight recorder: the one event recorder.  Always-on,
// low-overhead span capture for the host engines, the halo exchangers and
// the simmpi transport (the profiling layer's "black box" half — what the
// process was doing in the instants before you asked, or before it died).
//
// The recorder is armed by default and bounded by construction: every
// thread owns a fixed-size ring of POD events and records into it with
// release stores (plain moves on x86-64) plus one release counter bump —
// no locks, no allocation, no cross-thread contention on the hot path.  A
// disabled recorder costs one relaxed atomic load per record call.  When
// a thread exits its ring goes back to the recorder and the next new
// thread adopts it (count, tid and the surviving events included), so
// short-lived threads — simmpi spawns one per rank per SimWorld::run —
// never grow the ring set past the peak number of live recording threads.
//
// Events are fixed-size spans (48 bytes): start/duration in nanoseconds
// against a process-wide steady-clock epoch, the owning ring's stable tid,
// the fingerprint of the plan being executed (FlightPlanScope), a kind
// tag, and two kind-specific payload lanes:
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
//   RankPhase     rank               prof::Phase (prof/timeline.hpp)
//
// Draining is wait-free for writers: the reader snapshots each ring and
// keeps only events whose per-thread sequence number, re-read after the
// copy, shows they were not overwritten mid-copy (a per-slot seqlock), so
// a drain concurrent with writers yields a consistent suffix per thread.  A ring
// that wrapped shows as dropped() > 0 on its dump.  Everything else is
// derived from a drain: the chrome://tracing and msc-timeline-v1 documents
// and critical_path() (prof/timeline.hpp), the attribution buckets
// (prof/attribution.hpp), and the crash dump flight_dump_json() that the
// resilience layer writes when a rank crashes (schema "msc-flight-v1").

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
  RowChunk,       ///< one team member's sweep tiles or AOT row bands for a step
  WedgeBlock,     ///< one temporal time block
  Wedge,          ///< one wedge (or one chunk-level of the wavefront)
  WedgeWait,      ///< spin waiting on a predecessor chunk's level
  AotCacheProbe,  ///< memory+disk cache lookup for a compiled module
  AotCompile,     ///< host cc invocation
  AotDlopen,      ///< dlopen + symbol/ABI validation
  AotRun,         ///< the AOT route's whole time loop (parent of RowChunk)
  Crash,          ///< a fault-plan crash fired (instant, dur 0)
  RankPhase,      ///< one simmpi rank's comm/compute phase (RankPhaseScope)
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
  int tid = 0;                      ///< stable small ring id, first-seen order
  std::uint64_t recorded = 0;       ///< events ever recorded into this ring
  bool live = true;                 ///< a live thread owns the ring
  std::vector<FlightEvent> events;  ///< surviving suffix (<= ring capacity)

  /// Recorded events this dump does not hold: overwritten by a wrap (or
  /// cut by drain's last_n).
  std::uint64_t dropped() const { return recorded - events.size(); }
};

/// Sum of dropped() over a drain: nonzero means a ring wrapped and any
/// analysis of the drain undercounts.
std::uint64_t dropped_events(const std::vector<FlightThreadDump>& dumps);

class FlightRecorder {
 public:
  /// Events retained per thread.  Power of two; 1024 events x 48 B = 48 KB
  /// per thread, enough to hold several full timesteps of chunk spans.
  static constexpr std::size_t kRingCapacity = 1024;

  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Records one event from the calling thread (wait-free: ring slot store
  /// + release counter bump; a thread's first call adopts a ring an exited
  /// thread released, or registers a new one).
  void record(FlightKind kind, std::uint64_t start_ns, std::uint64_t end_ns,
              std::int64_t a = 0, std::int64_t b = 0);

  /// Snapshots every thread's ring: the newest `last_n` surviving events
  /// per thread, oldest first.  Safe concurrent with writers (events
  /// overwritten mid-copy are dropped, never torn).
  std::vector<FlightThreadDump> drain(std::size_t last_n = kRingCapacity) const;

  /// Resets every ring's count (events recorded so far become invisible).
  /// Thread ids, ring ownership and the time epoch are preserved.
  void clear();

  /// Total events ever recorded across threads (monotonic until clear, and
  /// across thread exits: an adopted ring keeps counting from its count).
  std::uint64_t total_recorded() const;

 private:
  struct ThreadRing {
    int tid = 0;
    bool live = true;  // guarded by registry_mutex_
    // Written only by the owning thread; count published with release so a
    // drain's acquire load sees fully-stored events below it.
    std::atomic<std::uint64_t> count{0};
    std::array<FlightEvent, kRingCapacity> events;
  };

  ThreadRing& ring_for_current_thread();
  /// Hands an exiting thread's ring back for adoption.
  void release(ThreadRing* ring);

  const std::uint64_t id_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex registry_mutex_;  // ring registration/adoption + drain
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  std::vector<ThreadRing*> free_;      // released rings awaiting a new thread
};

/// The process-wide recorder every engine and comm layer reports into
/// (never destroyed, so threads outliving static destruction stay safe).
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
