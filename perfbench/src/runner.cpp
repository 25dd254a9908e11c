#include "runner.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>

#include "stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;

EpisodeScratch::EpisodeScratch(std::string base) : base_(std::move(base)) {
  fs::create_directories(base_);
}

EpisodeScratch::~EpisodeScratch() { end(); }

void EpisodeScratch::begin() {
  end();
  current_ = (fs::path(base_) / ("episode" + std::to_string(next_++))).string();
  fs::create_directories(current_);
  ::setenv("TMPDIR", current_.c_str(), 1);
}

void EpisodeScratch::end() {
  if (current_.empty()) return;
  std::error_code ec;
  fs::remove_all(current_, ec);
  current_.clear();
}

namespace {

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS; without
/// it the mark is the process's peak so far.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// VmHWM in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

Episode run_episode(Workload& w, SpanRecorder* rec, EpisodeScratch& scratch) {
  Episode e;
  scratch.begin();
  reset_peak_rss();
  try {
    if (rec != nullptr) rec->begin_sample();
    ++e.attempted;
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = false;
    {
      ScopedSpan s(rec, "sample:setup");
      ok = w.setup(rec);
    }
    e.setup_s = since(t0);
    e.failed += ok ? 0 : 1;
    e.steps += w.steps_per_call();
    for (int n = 1; n < w.calls_per_episode(); ++n) {
      if (rec != nullptr) rec->begin_sample();
      ++e.attempted;
      const auto c0 = std::chrono::steady_clock::now();
      {
        ScopedSpan s(rec, "sample:call");
        ok = w.call(rec);
      }
      e.call_s.push_back(since(c0));
      e.failed += ok ? 0 : 1;
      e.steps += w.steps_per_call();
    }
    e.peak_rss_mb = peak_rss_mb();
    e.digest = w.digest();
    e.finished = true;
  } catch (const std::exception& ex) {
    e.error = ex.what();
  }
  try {
    w.teardown();
  } catch (const std::exception& ex) {
    if (e.error.empty()) e.error = ex.what();
    e.finished = false;
  }
  scratch.end();
  if (!e.finished) e.failed = e.attempted;
  return e;
}

}  // namespace

std::vector<Episode> run_phase(Workload& w, SpanRecorder* rec, const PhaseLimits& lim,
                               EpisodeScratch& scratch) {
  std::vector<Episode> episodes;
  std::size_t calls = 0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    episodes.push_back(run_episode(w, rec, scratch));
    calls += episodes.back().call_s.size();
  } while ((since(t0) < lim.seconds || calls < lim.min_calls) && since(t0) < lim.max_seconds);
  return episodes;
}

void check_episodes(std::vector<Episode>& episodes, const StateDigest& reference) {
  for (auto& e : episodes)
    if (!e.finished || !(e.digest == reference)) e.failed = e.attempted;
}

Tally tally(const std::vector<Episode>& episodes) {
  Tally t;
  for (const auto& e : episodes) {
    t.attempted += e.attempted;
    t.failed += e.failed;
  }
  return t;
}

std::vector<double> step_seconds(const Workload& w, const std::vector<Episode>& episodes) {
  std::vector<double> out;
  for (const auto& e : episodes)
    for (double s : e.call_s) out.push_back(s / w.steps_per_call());
  return out;
}

double median_mpts(const Workload& w, const std::vector<Episode>& episodes) {
  std::vector<double> rates;
  for (double s : step_seconds(w, episodes))
    rates.push_back(static_cast<double>(w.points_per_step()) / s / 1e6);
  return median(rates);
}

}  // namespace perfbench
