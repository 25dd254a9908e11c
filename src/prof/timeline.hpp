#pragma once

// Per-rank phase timeline: the attribution layer between the flat counters
// (counters.hpp) and the raw flight rings (flight.hpp).
//
// Every span is (rank, phase, [t0, t1)) in seconds.  The comm layers record
// wall-clock spans (pack/post/send/wait/unpack/compute per simmpi rank
// thread) as RankPhase flight events through RankPhaseScope; phase_spans()
// turns a drain back into spans.  The Sunway CG simulator's spans are in
// *simulated* time — model outputs, not measurements — so it returns them
// in CgSimResult::spans and records nothing; the two time bases never
// share a document.
//
// critical_path() turns spans into the quantities behind the paper's
// Fig. 10 discussion:
//   * per-rank, per-phase totals and the busy time (union measure of spans),
//   * the critical rank (max busy) and its dominant phase — which rank and
//     which phase bound the simulated wall time,
//   * overlap efficiency = hidden comm / total comm, where hidden comm is
//     the part of the comm-span union that runs concurrently with compute
//     spans on the same rank (the async halo exchange's whole point).
//
// The documents msc-prof and the benches write are derived here too:
// timeline_json() ("msc-timeline-v1") and chrome_trace_json()
// (chrome://tracing, loadable at https://ui.perfetto.dev).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "prof/flight.hpp"
#include "workload/report.hpp"

namespace msc::prof {

enum class Phase : int {
  Pack, Post, Send, Wait, Unpack, Compute, Dma, Barrier,
  // Resilience phases: recovery work is attributed separately so chaos runs
  // can see how much wall time faults cost (retransmit backoff, snapshot
  // writes, restore-and-replay restarts).
  Retry, Checkpoint, Restore,
};
inline constexpr int kPhaseCount = 11;

const char* phase_name(Phase phase);

/// Everything except Compute counts as communication/data movement.
bool phase_is_comm(Phase phase);

struct PhaseSpan {
  int rank = 0;
  Phase phase = Phase::Compute;
  double t0 = 0.0, t1 = 0.0;  ///< seconds (wall or simulated, caller's base)
  double seconds() const { return t1 - t0; }
};

/// RAII wall-clock span of one rank's phase: a RankPhase flight event with
/// lane a = rank and lane b = phase.
class RankPhaseScope : public FlightScope {
 public:
  RankPhaseScope(int rank, Phase phase)
      : FlightScope(FlightKind::RankPhase, rank, static_cast<std::int64_t>(phase)) {}
};

/// The RankPhase events of a drain as spans, in seconds since the earliest
/// of them (other kinds are skipped).
std::vector<PhaseSpan> phase_spans(const std::vector<FlightThreadDump>& dumps);

/// Per-rank attribution.
struct RankBreakdown {
  int rank = 0;
  std::array<double, kPhaseCount> phase_seconds{};  ///< sum of span durations
  double busy_seconds = 0.0;         ///< union measure of all spans
  double comm_seconds = 0.0;         ///< union measure of comm spans
  double hidden_comm_seconds = 0.0;  ///< comm union ∩ compute union
};

struct CriticalPathReport {
  std::vector<RankBreakdown> ranks;   ///< sorted by rank id
  double wall_seconds = 0.0;          ///< max busy over ranks
  int critical_rank = -1;
  Phase bounding_phase = Phase::Compute;  ///< largest phase on the critical rank
  double total_comm_seconds = 0.0;    ///< sum of per-rank comm unions
  double hidden_comm_seconds = 0.0;
  double overlap_efficiency = 0.0;    ///< hidden / total (0 when no comm)
};

CriticalPathReport critical_path(const std::vector<PhaseSpan>& spans);

workload::Json critical_path_json(const CriticalPathReport& report);

/// Human-readable per-rank table + verdict line (what msc-prof prints).
std::string critical_path_summary(const CriticalPathReport& report);

/// {"schema":"msc-timeline-v1","spans":[...],"critical_path":{...},
///  "dropped_events":n} — n is dropped_events() of the drain the spans came
/// from (0 for simulated spans).
workload::Json timeline_json(const std::vector<PhaseSpan>& spans,
                             std::uint64_t dropped_events = 0);

/// chrome://tracing "JSON object format" ({"traceEvents": [...]}) of a
/// drain: one complete event per flight event (RankPhase events named by
/// phase) on pid 0, tid = ring id, timestamps in microseconds since the
/// earliest event; a thread_name metadata event per ring carries its
/// recorded and dropped counts.  `simulated` spans (the CG simulator's)
/// go on pid 1, one tid per rank, in their own time base.
workload::Json chrome_trace_json(const std::vector<FlightThreadDump>& dumps,
                                 const std::vector<PhaseSpan>& simulated = {});

}  // namespace msc::prof
