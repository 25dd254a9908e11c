#include "prof/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/strings.hpp"

namespace msc::prof {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::Pack: return "pack";
    case Phase::Post: return "post";
    case Phase::Send: return "send";
    case Phase::Wait: return "wait";
    case Phase::Unpack: return "unpack";
    case Phase::Compute: return "compute";
    case Phase::Dma: return "dma";
    case Phase::Barrier: return "barrier";
    case Phase::Retry: return "retry";
    case Phase::Checkpoint: return "checkpoint";
    case Phase::Restore: return "restore";
  }
  return "?";
}

bool phase_is_comm(Phase phase) { return phase != Phase::Compute; }

std::vector<PhaseSpan> phase_spans(const std::vector<FlightThreadDump>& dumps) {
  std::vector<PhaseSpan> spans;
  std::uint64_t origin = UINT64_MAX;
  for (const auto& dump : dumps)
    for (const FlightEvent& ev : dump.events)
      if (ev.kind == FlightKind::RankPhase) origin = std::min(origin, ev.start_ns);
  for (const auto& dump : dumps)
    for (const FlightEvent& ev : dump.events) {
      if (ev.kind != FlightKind::RankPhase) continue;
      const double t0 = static_cast<double>(ev.start_ns - origin) * 1e-9;
      spans.push_back({static_cast<int>(ev.a), static_cast<Phase>(ev.b), t0,
                       t0 + static_cast<double>(ev.dur_ns) * 1e-9});
    }
  return spans;
}

namespace {

using Interval = std::pair<double, double>;

/// Total length of the union of intervals.
double union_measure(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, hi = -1.0, lo = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

/// Merged (disjoint, sorted) union of intervals.
std::vector<Interval> merge(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end());
  std::vector<Interval> out;
  for (const auto& [a, b] : iv) {
    if (!out.empty() && a <= out.back().second)
      out.back().second = std::max(out.back().second, b);
    else
      out.push_back({a, b});
  }
  return out;
}

/// Length of the intersection of two merged interval lists.
double intersection_measure(const std::vector<Interval>& a, const std::vector<Interval>& b) {
  double total = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    if (a[i].second < b[j].second)
      ++i;
    else
      ++j;
  }
  return total;
}

}  // namespace

CriticalPathReport critical_path(const std::vector<PhaseSpan>& spans) {
  CriticalPathReport report;
  std::map<int, std::vector<const PhaseSpan*>> by_rank;
  for (const PhaseSpan& s : spans) by_rank[s.rank].push_back(&s);

  for (const auto& [rank, rank_spans] : by_rank) {
    RankBreakdown rb;
    rb.rank = rank;
    std::vector<Interval> all, comm, compute;
    for (const PhaseSpan* s : rank_spans) {
      rb.phase_seconds[static_cast<std::size_t>(s->phase)] += s->seconds();
      all.push_back({s->t0, s->t1});
      (phase_is_comm(s->phase) ? comm : compute).push_back({s->t0, s->t1});
    }
    rb.busy_seconds = union_measure(all);
    rb.comm_seconds = union_measure(comm);
    rb.hidden_comm_seconds = intersection_measure(merge(comm), merge(compute));
    report.total_comm_seconds += rb.comm_seconds;
    report.hidden_comm_seconds += rb.hidden_comm_seconds;
    if (rb.busy_seconds > report.wall_seconds) {
      report.wall_seconds = rb.busy_seconds;
      report.critical_rank = rank;
    }
    report.ranks.push_back(std::move(rb));
  }
  if (report.critical_rank >= 0) {
    for (const RankBreakdown& rb : report.ranks) {
      if (rb.rank != report.critical_rank) continue;
      std::size_t best = 0;
      for (std::size_t p = 1; p < rb.phase_seconds.size(); ++p)
        if (rb.phase_seconds[p] > rb.phase_seconds[best]) best = p;
      report.bounding_phase = static_cast<Phase>(best);
    }
  }
  report.overlap_efficiency = report.total_comm_seconds > 0.0
                                  ? report.hidden_comm_seconds / report.total_comm_seconds
                                  : 0.0;
  return report;
}

workload::Json critical_path_json(const CriticalPathReport& report) {
  using workload::Json;
  Json root = Json::object();
  root["wall_seconds"] = Json::number(report.wall_seconds);
  root["critical_rank"] = Json::integer(report.critical_rank);
  root["bounding_phase"] = Json::string(phase_name(report.bounding_phase));
  root["total_comm_seconds"] = Json::number(report.total_comm_seconds);
  root["hidden_comm_seconds"] = Json::number(report.hidden_comm_seconds);
  root["overlap_efficiency"] = Json::number(report.overlap_efficiency);
  Json& ranks = root["ranks"];
  ranks = Json::array();
  for (const RankBreakdown& rb : report.ranks) {
    Json r = Json::object();
    r["rank"] = Json::integer(rb.rank);
    r["busy_seconds"] = Json::number(rb.busy_seconds);
    r["comm_seconds"] = Json::number(rb.comm_seconds);
    r["hidden_comm_seconds"] = Json::number(rb.hidden_comm_seconds);
    Json& phases = r["phases"];
    phases = Json::object();
    for (std::size_t p = 0; p < rb.phase_seconds.size(); ++p)
      if (rb.phase_seconds[p] > 0.0)
        phases[phase_name(static_cast<Phase>(p))] = Json::number(rb.phase_seconds[p]);
    ranks.push_back(std::move(r));
  }
  return root;
}

std::string critical_path_summary(const CriticalPathReport& report) {
  std::ostringstream out;
  out << "per-rank phase attribution:\n";
  for (const RankBreakdown& rb : report.ranks) {
    out << strprintf("  rank %-3d busy %10.3g s :", rb.rank, rb.busy_seconds);
    for (std::size_t p = 0; p < rb.phase_seconds.size(); ++p)
      if (rb.phase_seconds[p] > 0.0)
        out << strprintf(" %s %.3g", phase_name(static_cast<Phase>(p)), rb.phase_seconds[p]);
    out << "\n";
  }
  if (report.critical_rank >= 0)
    out << strprintf(
        "critical path: rank %d (%.3g s), bounded by %s; overlap efficiency %.1f%% "
        "(%.3g of %.3g comm s hidden under compute)\n",
        report.critical_rank, report.wall_seconds, phase_name(report.bounding_phase),
        report.overlap_efficiency * 100.0, report.hidden_comm_seconds,
        report.total_comm_seconds);
  return out.str();
}

workload::Json timeline_json(const std::vector<PhaseSpan>& spans, std::uint64_t dropped_events) {
  using workload::Json;
  Json root = Json::object();
  root["schema"] = Json::string("msc-timeline-v1");
  Json& list = root["spans"];
  list = Json::array();
  for (const PhaseSpan& s : spans) {
    Json e = Json::object();
    e["rank"] = Json::integer(s.rank);
    e["phase"] = Json::string(phase_name(s.phase));
    e["t0"] = Json::number(s.t0);
    e["t1"] = Json::number(s.t1);
    list.push_back(std::move(e));
  }
  root["critical_path"] = critical_path_json(critical_path(spans));
  root["dropped_events"] = Json::integer(static_cast<long long>(dropped_events));
  return root;
}

workload::Json chrome_trace_json(const std::vector<FlightThreadDump>& dumps,
                                 const std::vector<PhaseSpan>& simulated) {
  using workload::Json;
  // Metadata events ("M") name a process or thread; complete events ("X")
  // are spans with microsecond ts/dur.
  const auto event = [](std::string name, const char* ph, int pid, int tid, Json args) {
    Json e = Json::object();
    e["name"] = Json::string(std::move(name));
    e["ph"] = Json::string(ph);
    e["pid"] = Json::integer(pid);
    e["tid"] = Json::integer(tid);
    e["args"] = std::move(args);
    return e;
  };
  const auto span = [&](std::string name, const char* cat, double ts_us, double dur_us,
                        int pid, int tid, Json args) {
    Json e = event(std::move(name), "X", pid, tid, std::move(args));
    e["cat"] = Json::string(cat);
    e["ts"] = Json::number(ts_us);
    e["dur"] = Json::number(dur_us);
    return e;
  };
  const auto named = [](const std::string& name) {
    Json args = Json::object();
    args["name"] = Json::string(name);
    return args;
  };

  std::uint64_t origin = UINT64_MAX;
  for (const auto& dump : dumps)
    for (const FlightEvent& ev : dump.events) origin = std::min(origin, ev.start_ns);

  Json root = Json::object();
  Json& list = root["traceEvents"];
  list = Json::array();
  list.push_back(event("process_name", "M", 0, 0, named("host (wall time)")));
  for (const auto& dump : dumps) {
    if (dump.recorded == 0) continue;  // registered but idle rings add noise
    Json ring = named(strprintf("flight ring %d", dump.tid));
    ring["recorded"] = Json::integer(static_cast<long long>(dump.recorded));
    ring["dropped"] = Json::integer(static_cast<long long>(dump.dropped()));
    list.push_back(event("thread_name", "M", 0, dump.tid, std::move(ring)));
    for (const FlightEvent& ev : dump.events) {
      const bool phase = ev.kind == FlightKind::RankPhase;
      Json args = Json::object();
      if (phase) {
        args["rank"] = Json::integer(static_cast<long long>(ev.a));
      } else {
        args["a"] = Json::integer(static_cast<long long>(ev.a));
        args["b"] = Json::integer(static_cast<long long>(ev.b));
      }
      list.push_back(span(phase ? phase_name(static_cast<Phase>(ev.b)) : flight_kind_name(ev.kind),
                          phase ? "comm" : "exec",
                          static_cast<double>(ev.start_ns - origin) * 1e-3,
                          static_cast<double>(ev.dur_ns) * 1e-3, 0, dump.tid, std::move(args)));
    }
  }
  if (!simulated.empty()) {
    list.push_back(event("process_name", "M", 1, 0, named("Sunway CG (simulated time)")));
    for (const PhaseSpan& s : simulated)
      list.push_back(span(phase_name(s.phase), "sunway", s.t0 * 1e6, s.seconds() * 1e6, 1,
                          s.rank, Json::object()));
  }
  root["displayTimeUnit"] = Json::string("ms");
  Json other = Json::object();
  other["dropped_events"] = Json::integer(static_cast<long long>(dropped_events(dumps)));
  root["otherData"] = std::move(other);
  return root;
}

}  // namespace msc::prof
