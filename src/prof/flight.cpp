#include "prof/flight.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace msc::prof {

namespace {

std::chrono::steady_clock::time_point flight_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::atomic<std::uint64_t> g_current_plan{0};

/// Recorders alive right now, by id: an exiting thread hands its rings back
/// only to recorders still in here.  Never destroyed, so threads exiting
/// during static destruction find it intact.
struct LiveRecorders {
  std::mutex mutex;
  std::unordered_map<std::uint64_t, FlightRecorder*> by_id;
  std::uint64_t next_id = 1;
};

LiveRecorders& live_recorders() {
  static auto* live = new LiveRecorders;
  return *live;
}

// Ring slots are read by drains while their writer may be overwriting
// them, so every field goes through an atomic access (plain moves on
// x86-64): the slot protocol of record() and drain() decides which copies
// are kept, and no access is a data race.  Release stores and acquire
// loads order a slot's seq claim before its fields (see drain).
template <typename T>
void store_field(T& field, T value) {
  std::atomic_ref<T>(field).store(value, std::memory_order_release);
}

template <typename T>
T load_field(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field)).load(std::memory_order_acquire);
}

}  // namespace

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::None: return "none";
    case FlightKind::Step: return "step";
    case FlightKind::RowChunk: return "row_chunk";
    case FlightKind::WedgeBlock: return "wedge_block";
    case FlightKind::Wedge: return "wedge";
    case FlightKind::WedgeWait: return "wedge_wait";
    case FlightKind::AotCacheProbe: return "aot_cache_probe";
    case FlightKind::AotCompile: return "aot_compile";
    case FlightKind::AotDlopen: return "aot_dlopen";
    case FlightKind::AotRun: return "aot_run";
    case FlightKind::Crash: return "crash";
    case FlightKind::RankPhase: return "rank_phase";
  }
  return "unknown";
}

std::uint64_t flight_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - flight_epoch())
                                        .count());
}

FlightRecorder::FlightRecorder()
    : id_([this] {
        auto& live = live_recorders();
        std::lock_guard<std::mutex> lock(live.mutex);
        const std::uint64_t id = live.next_id++;
        live.by_id.emplace(id, this);
        return id;
      }()) {}

FlightRecorder::~FlightRecorder() {
  auto& live = live_recorders();
  std::lock_guard<std::mutex> lock(live.mutex);
  live.by_id.erase(id_);
}

FlightRecorder::ThreadRing& FlightRecorder::ring_for_current_thread() {
  // One ring per (thread, recorder); the cached pairs make the steady-state
  // record() path a thread-local scan of (almost always) one entry.  Keyed
  // by a process-unique recorder id, not the address — tests instantiate
  // short-lived local recorders and a reused address must not resolve to a
  // freed ring.  At thread exit every ring goes back to its recorder, if
  // that recorder is still alive.
  struct OwnedRings {
    std::vector<std::pair<std::uint64_t, ThreadRing*>> rings;
    OwnedRings() = default;
    OwnedRings(const OwnedRings&) = delete;
    OwnedRings& operator=(const OwnedRings&) = delete;
    ~OwnedRings() {
      auto& live = live_recorders();
      std::lock_guard<std::mutex> lock(live.mutex);
      for (const auto& [owner, ring] : rings)
        if (const auto it = live.by_id.find(owner); it != live.by_id.end())
          it->second->release(ring);
    }
  };
  thread_local OwnedRings owned;
  for (const auto& [owner, ring] : owned.rings)
    if (owner == id_) return *ring;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  ThreadRing* ring = nullptr;
  if (!free_.empty()) {
    // Adopt as is: the count carries on, so total_recorded() stays
    // monotonic and sequence numbers stay consecutive within the ring.
    ring = free_.back();
    free_.pop_back();
  } else {
    rings_.push_back(std::make_unique<ThreadRing>());
    ring = rings_.back().get();
    ring->tid = static_cast<int>(rings_.size()) - 1;
  }
  ring->live = true;
  owned.rings.emplace_back(id_, ring);
  return *ring;
}

void FlightRecorder::release(ThreadRing* ring) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  ring->live = false;
  free_.push_back(ring);
}

void FlightRecorder::record(FlightKind kind, std::uint64_t start_ns, std::uint64_t end_ns,
                            std::int64_t a, std::int64_t b) {
  if (!enabled()) return;
  ThreadRing& ring = ring_for_current_thread();
  const std::uint64_t n = ring.count.load(std::memory_order_relaxed);
  FlightEvent& ev = ring.events[n % kRingCapacity];
  // Claim the slot first: every field store is a release after the new
  // seq, so a drain that reads any new field also reads the new seq and
  // drops the slot as overwritten.
  store_field(ev.seq, static_cast<std::uint32_t>(n));
  store_field(ev.start_ns, start_ns);
  store_field(ev.dur_ns, end_ns >= start_ns ? end_ns - start_ns : std::uint64_t{0});
  store_field(ev.plan, g_current_plan.load(std::memory_order_relaxed));
  store_field(ev.a, a);
  store_field(ev.b, b);
  store_field(ev.kind, kind);
  // Release: a drain that acquires count >= n+1 sees this event's stores.
  ring.count.store(n + 1, std::memory_order_release);
}

std::vector<FlightThreadDump> FlightRecorder::drain(std::size_t last_n) const {
  std::vector<FlightThreadDump> out;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  out.reserve(rings_.size());
  for (const auto& ring : rings_) {
    FlightThreadDump dump;
    dump.tid = ring->tid;
    dump.live = ring->live;
    const std::uint64_t n1 = ring->count.load(std::memory_order_acquire);
    dump.recorded = n1;
    if (n1 == 0) {
      out.push_back(std::move(dump));
      continue;
    }
    const std::uint64_t window = std::min<std::uint64_t>(
        {n1, kRingCapacity, static_cast<std::uint64_t>(last_n)});
    std::vector<FlightEvent> copied;
    copied.reserve(static_cast<std::size_t>(window));
    for (std::uint64_t i = n1 - window; i < n1; ++i) {
      const FlightEvent& slot = ring->events[i % kRingCapacity];
      FlightEvent ev;
      ev.start_ns = load_field(slot.start_ns);
      ev.dur_ns = load_field(slot.dur_ns);
      ev.plan = load_field(slot.plan);
      ev.a = load_field(slot.a);
      ev.b = load_field(slot.b);
      ev.kind = load_field(slot.kind);
      copied.push_back(ev);
    }
    // Seqlock validity: count >= n1 (acquired above) makes every event
    // below n1 fully visible, so a slot is torn only if a writer claimed
    // it for a newer event meanwhile, and a copy that read any new field
    // now reads the newer seq.  Writers overwrite oldest first, so the
    // kept events are those after the last overwritten slot: a consistent
    // suffix.  A quiescent ring keeps the full window.
    for (std::size_t k = 0; k < copied.size(); ++k) {
      const std::uint64_t expected = n1 - window + k;
      const std::uint32_t seq = load_field(ring->events[expected % kRingCapacity].seq);
      if (seq != static_cast<std::uint32_t>(expected)) {
        dump.events.clear();  // overwritten
        continue;
      }
      copied[k].seq = seq;
      dump.events.push_back(copied[k]);
    }
    out.push_back(std::move(dump));
  }
  return out;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (auto& ring : rings_) ring->count.store(0, std::memory_order_release);
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->count.load(std::memory_order_acquire);
  return total;
}

std::uint64_t dropped_events(const std::vector<FlightThreadDump>& dumps) {
  std::uint64_t total = 0;
  for (const auto& dump : dumps) total += dump.dropped();
  return total;
}

FlightRecorder& global_flight() {
  static auto* recorder = new FlightRecorder;
  return *recorder;
}

std::uint64_t current_flight_plan() { return g_current_plan.load(std::memory_order_relaxed); }

FlightPlanScope::FlightPlanScope(std::uint64_t plan)
    : prev_(g_current_plan.exchange(plan, std::memory_order_relaxed)) {}

FlightPlanScope::~FlightPlanScope() { g_current_plan.store(prev_, std::memory_order_relaxed); }

std::uint64_t plan_fingerprint(std::uint64_t extent0, std::uint64_t extent1,
                               std::uint64_t extent2, std::uint64_t nterms,
                               std::uint64_t tiles, std::uint64_t extra) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t v : {extent0, extent1, extent2, nterms, tiles, extra}) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

workload::Json flight_dump_json(std::size_t last_n) {
  const auto dumps = global_flight().drain(last_n);
  workload::Json doc = workload::Json::object();
  doc["schema"] = workload::Json::string("msc-flight-v1");
  doc["ring_capacity"] =
      workload::Json::integer(static_cast<long long>(FlightRecorder::kRingCapacity));
  workload::Json threads = workload::Json::array();
  for (const auto& dump : dumps) {
    if (dump.recorded == 0) continue;  // registered but idle threads add noise
    workload::Json th = workload::Json::object();
    th["tid"] = workload::Json::integer(dump.tid);
    th["recorded"] = workload::Json::integer(static_cast<long long>(dump.recorded));
    th["dropped"] = workload::Json::integer(static_cast<long long>(dump.dropped()));
    th["live"] = workload::Json::boolean(dump.live);
    workload::Json events = workload::Json::array();
    for (const auto& ev : dump.events) {
      workload::Json e = workload::Json::object();
      e["kind"] = workload::Json::string(flight_kind_name(ev.kind));
      e["start_ns"] = workload::Json::integer(static_cast<long long>(ev.start_ns));
      e["dur_ns"] = workload::Json::integer(static_cast<long long>(ev.dur_ns));
      e["plan"] = workload::Json::string(
          [&] {
            char buf[20];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(ev.plan));
            return std::string(buf);
          }());
      e["seq"] = workload::Json::integer(static_cast<long long>(ev.seq));
      e["a"] = workload::Json::integer(static_cast<long long>(ev.a));
      e["b"] = workload::Json::integer(static_cast<long long>(ev.b));
      events.push_back(std::move(e));
    }
    th["events"] = std::move(events);
    threads.push_back(std::move(th));
  }
  doc["threads"] = std::move(threads);
  return doc;
}

}  // namespace msc::prof
