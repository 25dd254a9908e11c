#pragma once

// Closed-loop episode runner: one caller issues every sample and waits for
// it to return before issuing the next.  Also the failure accounting that
// turns exceptions, AOT fallbacks and wrong final states into failed samples.

#include <cstdint>
#include <string>
#include <vector>

#include "digest.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Episode {
  double setup_s = 0.0;         ///< spec text to the end of the first call
  std::vector<double> call_s;   ///< one entry per call after the set-up
  std::int64_t attempted = 0;   ///< samples issued: the set-up plus each call
  std::int64_t failed = 0;
  std::int64_t steps = 0;       ///< timesteps the episode ran
  double peak_rss_mb = 0.0;     ///< peak resident set while the episode ran
  bool finished = false;        ///< ran every call without an exception
  StateDigest digest;
  std::string error;
};

/// When a phase stops starting new episodes.
struct PhaseLimits {
  double seconds = 1.0;        ///< run at least this long...
  std::size_t min_calls = 0;   ///< ...and until this many call samples exist,
  double max_seconds = 100.0;  ///< but never start an episode after this
};

/// A private directory per episode, exported as TMPDIR, so the AOT compile
/// cache (and the C compiler's temporaries) start empty every episode and
/// stay inside `base`.  Removed when the episode ends.
class EpisodeScratch {
 public:
  explicit EpisodeScratch(std::string base);
  ~EpisodeScratch();
  EpisodeScratch(const EpisodeScratch&) = delete;
  EpisodeScratch& operator=(const EpisodeScratch&) = delete;

  void begin();
  void end();

 private:
  std::string base_;
  std::string current_;
  int next_ = 0;
};

/// Runs whole episodes of `w` until `lim` says stop.  With `rec` the
/// episodes are traced replays.  Exceptions fail the episode's samples and
/// do not escape.
std::vector<Episode> run_phase(Workload& w, SpanRecorder* rec, const PhaseLimits& lim,
                               EpisodeScratch& scratch);

/// Fails every sample of an episode that did not finish or whose final
/// state differs from the reference: any of its samples may have made the
/// wrong value.
void check_episodes(std::vector<Episode>& episodes, const StateDigest& reference);

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double error_rate() const {
    return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  }
};
Tally tally(const std::vector<Episode>& episodes);

/// Median over call samples of interior point updates per second, in millions.
double median_mpts(const Workload& w, const std::vector<Episode>& episodes);

/// Per-timestep times of every call sample.
std::vector<double> step_seconds(const Workload& w, const std::vector<Episode>& episodes);

}  // namespace perfbench
