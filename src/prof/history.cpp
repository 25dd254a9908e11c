#include "prof/history.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc::prof {

namespace {

void fnv1a(std::uint64_t& h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  h ^= 0x1f;  // field separator so {"ab","c"} != {"a","bc"}
  h *= 1099511628211ULL;
}

bool key_contains(const std::string& key, std::initializer_list<const char*> needles) {
  for (const char* n : needles)
    if (key.find(n) != std::string::npos) return true;
  return false;
}

/// Identifying label of one results row, for metric key prefixes.  Rows
/// that share a benchmark but ran different engines carry a string
/// `backend` or `route` discriminator, appended as "<benchmark>.<backend>"
/// so each row keeps its own metric set.
std::string row_label(const workload::Json& row, std::size_t index) {
  for (const char* id : {"benchmark", "label", "name", "oracle"}) {
    const workload::Json* v = row.find(id);
    if (v == nullptr || !v->is_string()) continue;
    std::string label = v->as_string();
    for (const char* tag : {"backend", "route"}) {
      const workload::Json* d = row.find(tag);
      if (d != nullptr && d->is_string()) label += "." + d->as_string();
    }
    return label;
  }
  const workload::Json* run = row.find("run");
  if (run != nullptr && run->is_number())
    return strprintf("run%lld", run->as_integer());
  return strprintf("row%zu", index);
}

}  // namespace

std::string config_hash(const workload::Json& bench_report) {
  std::uint64_t h = 1469598103934665603ULL;
  const workload::Json* name = bench_report.find("name");
  const workload::Json* wl = bench_report.find("workload");
  fnv1a(h, name != nullptr && name->is_string() ? name->as_string() : "");
  fnv1a(h, wl != nullptr && wl->is_string() ? wl->as_string() : "");
  const workload::Json* config = bench_report.find("config");
  if (config != nullptr && config->is_object()) {
    for (const auto& [key, value] : config->members()) {
      fnv1a(h, key);
      fnv1a(h, value.is_string() ? value.as_string() : value.dump_compact());
    }
  }
  return strprintf("%016llx", static_cast<unsigned long long>(h));
}

HistoryEntry flatten_bench_report(const workload::Json& bench_report) {
  const workload::Json* schema = bench_report.find("schema");
  MSC_CHECK(schema != nullptr && schema->is_string() && schema->as_string() == "msc-bench-v1")
      << "not a msc-bench-v1 report";
  HistoryEntry entry;
  entry.name = bench_report.find("name")->as_string();
  const workload::Json* wl = bench_report.find("workload");
  entry.workload = wl != nullptr && wl->is_string() ? wl->as_string() : "";
  entry.config_hash = config_hash(bench_report);
  const workload::Json* wall = bench_report.find("wall_seconds");
  entry.wall_seconds = wall != nullptr && wall->is_number() ? wall->as_number() : 0.0;
  const workload::Json* results = bench_report.find("results");
  if (results != nullptr && results->is_array()) {
    for (std::size_t n = 0; n < results->elements().size(); ++n) {
      const workload::Json& row = results->elements()[n];
      if (!row.is_object()) continue;
      const std::string label = row_label(row, n);
      for (const auto& [key, value] : row.members()) {
        if (!value.is_number()) continue;
        entry.metrics.emplace_back(label + "." + key, value.as_number());
      }
    }
  }
  return entry;
}

std::string history_dir() {
  const char* dir = std::getenv("MSC_BENCH_HISTORY_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
#ifdef MSC_BENCH_DEFAULT_DIR
  return std::string(MSC_BENCH_DEFAULT_DIR) + "/bench/history";
#else
  return "./bench/history";
#endif
}

std::string history_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".jsonl";
}

workload::Json history_entry_json(const HistoryEntry& entry) {
  using workload::Json;
  Json line = Json::object();
  line["schema"] = Json::string("msc-bench-hist-v1");
  line["name"] = Json::string(entry.name);
  line["workload"] = Json::string(entry.workload);
  line["config_hash"] = Json::string(entry.config_hash);
  line["wall_seconds"] = Json::number(entry.wall_seconds);
  Json& metrics = line["metrics"];
  metrics = Json::object();
  for (const auto& [key, value] : entry.metrics) metrics[key] = Json::number(value);
  return line;
}

HistoryEntry parse_history_entry(const workload::Json& line) {
  const workload::Json* schema = line.find("schema");
  MSC_CHECK(schema != nullptr && schema->is_string() &&
            schema->as_string() == "msc-bench-hist-v1")
      << "not a msc-bench-hist-v1 history line";
  HistoryEntry entry;
  entry.name = line.find("name")->as_string();
  entry.workload = line.find("workload")->as_string();
  entry.config_hash = line.find("config_hash")->as_string();
  const workload::Json* wall = line.find("wall_seconds");
  entry.wall_seconds = wall != nullptr && wall->is_number() ? wall->as_number() : 0.0;
  const workload::Json* metrics = line.find("metrics");
  if (metrics != nullptr && metrics->is_object())
    for (const auto& [key, value] : metrics->members())
      if (value.is_number()) entry.metrics.emplace_back(key, value.as_number());
  return entry;
}

void append_history(const std::string& dir, const HistoryEntry& entry) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = history_path(dir, entry.name);
  std::FILE* f = std::fopen(path.c_str(), "a");
  MSC_CHECK(f != nullptr) << "cannot open history ledger '" << path << "' for append";
  const std::string line = history_entry_json(entry).dump_compact() + "\n";
  const std::size_t n = std::fwrite(line.data(), 1, line.size(), f);
  const bool closed = std::fclose(f) == 0;
  MSC_CHECK(n == line.size() && closed) << "short write to '" << path << "'";
}

std::vector<HistoryEntry> load_history(const std::string& path) {
  std::vector<HistoryEntry> entries;
  std::ifstream in(path);
  if (!in.is_open()) return entries;  // no ledger yet: bootstrap
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    entries.push_back(parse_history_entry(workload::Json::parse(line)));
  }
  return entries;
}

MetricDirection metric_direction(const std::string& key) {
  if (key_contains(key, {"seconds", "time", "bytes", "latency", "cycles", "transactions",
                         "messages"}))
    return MetricDirection::LowerIsBetter;
  if (key_contains(key, {"gflops", "flops", "speedup", "gain", "efficiency", "ratio", "r2",
                         "reuse"}))
    return MetricDirection::HigherIsBetter;
  return MetricDirection::Informational;
}

DiffReport diff_against_history(const std::vector<HistoryEntry>& history,
                                const HistoryEntry& fresh, const DiffOptions& opts) {
  DiffReport report;

  // Baseline window: the last K entries of this configuration.
  std::vector<const HistoryEntry*> window;
  for (const auto& entry : history)
    if (entry.config_hash == fresh.config_hash) window.push_back(&entry);
  report.baseline_runs = static_cast<int>(window.size());
  if (window.size() > static_cast<std::size_t>(opts.last_k))
    window.erase(window.begin(),
                 window.end() - static_cast<std::ptrdiff_t>(opts.last_k));

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };

  for (const auto& [key, current] : fresh.metrics) {
    std::vector<double> values;
    for (const HistoryEntry* entry : window)
      for (const auto& [hkey, hvalue] : entry->metrics)
        if (hkey == key) values.push_back(hvalue);
    if (values.empty()) {
      report.new_metrics.push_back(key);
      continue;
    }
    MetricDelta delta;
    delta.key = key;
    delta.direction = metric_direction(key);
    delta.samples = static_cast<int>(values.size());
    delta.baseline = median(values);
    delta.current = current;
    std::vector<double> deviations;
    for (double v : values) deviations.push_back(std::fabs(v - delta.baseline));
    const double mad = median(deviations);
    const double denom = std::fabs(delta.baseline);
    delta.rel_delta = denom > 0.0 ? (current - delta.baseline) / denom
                                  : (current == delta.baseline ? 0.0 : HUGE_VAL);
    delta.threshold = std::max(opts.min_rel_threshold,
                               denom > 0.0 ? opts.mad_multiplier * mad / denom : 0.0);
    if (delta.direction == MetricDirection::LowerIsBetter)
      delta.regressed = delta.rel_delta > delta.threshold;
    else if (delta.direction == MetricDirection::HigherIsBetter)
      delta.regressed = delta.rel_delta < -delta.threshold;
    report.regressed |= delta.regressed;
    report.deltas.push_back(std::move(delta));
  }
  return report;
}

std::string diff_markdown(const HistoryEntry& fresh, const DiffReport& report,
                          const DiffOptions& opts) {
  std::ostringstream out;
  out << "## bench diff — " << fresh.name << " (config " << fresh.config_hash
      << ", baseline = median of last " << opts.last_k << " of " << report.baseline_runs
      << " runs)\n\n";
  if (report.deltas.empty() && report.new_metrics.empty()) {
    out << "_no comparable metrics_\n";
    return out.str();
  }
  out << "| metric | dir | baseline | current | delta | threshold | status |\n";
  out << "|---|---|---:|---:|---:|---:|---|\n";
  for (const auto& d : report.deltas) {
    const char* dir = d.direction == MetricDirection::LowerIsBetter    ? "↓"
                      : d.direction == MetricDirection::HigherIsBetter ? "↑"
                                                                       : "·";
    out << "| " << d.key << " | " << dir << " | " << strprintf("%.6g", d.baseline) << " | "
        << strprintf("%.6g", d.current) << " | " << strprintf("%+.1f%%", d.rel_delta * 100.0)
        << " | " << strprintf("±%.1f%%", d.threshold * 100.0) << " | "
        << (d.regressed ? "**REGRESSED**"
                        : d.direction == MetricDirection::Informational ? "info" : "ok")
        << " |\n";
  }
  for (const auto& key : report.new_metrics)
    out << "| " << key << " | · | — | new | — | — | baseline seeded |\n";
  // A run with no same-config history compared nothing: it must not read
  // as a pass to a gate that greps for "verdict: ok".
  out << "\n"
      << (report.baseline_runs == 0 ? "**verdict: no baseline** (nothing compared)"
          : report.regressed        ? "**verdict: REGRESSION**"
                                    : "verdict: ok")
      << "\n";
  return out.str();
}

}  // namespace msc::prof
