#pragma once

// In-memory span recorder for the traced run, plus the arithmetic that
// turns spans into per-layer self times.
//
// Span names are "<layer>:<function>".  Two prefixes are not layers:
//   "sample:" spans are structural — one per setup, per call and per rank
//             call — and their self time is time no layer accounts for;
//   "bench:"  spans are the benchmark's own work inside a sample (copying
//             seeded state into the replay grid) and count for nothing.
// Spans are kept in memory and written out once the run has ended.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One traced interval; times are seconds since the recorder's epoch.
struct Span {
  const char* name = "";  ///< a string literal: "<layer>:<function>"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int lane = 0;     ///< 0 = the calling thread, r + 1 = simulated rank r
  int sample = -1;  ///< id of the sample the span belongs to
};

enum class SpanKind { Layer, Structural, Harness };

SpanKind span_kind(const char* name);

/// The part of a span name before ':' (the whole name when there is none).
std::string span_layer(const char* name);

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);

  /// Opens a span and returns its id.  Safe from any thread.
  int open(const char* name, int parent, int lane);
  void close(int id);

  /// Starts the next sample: its id is stamped on every span opened from
  /// now on, by any thread.
  void begin_sample() { sample_.store(next_sample_++, std::memory_order_relaxed); }

  const std::string& workload() const { return workload_; }
  std::vector<Span> spans() const;

 private:
  double now() const;

  std::string workload_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<int> sample_{-1};
  int next_sample_ = 0;  ///< touched only by the thread that starts samples
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span.  A null recorder makes it a no-op, so set-up code is shared
/// by the untraced and the traced paths.  The parent is the innermost span
/// this thread has open, unless one is given (a rank thread's first span).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name);
  ScopedSpan(SpanRecorder* rec, const char* name, int parent, int lane);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_ = -1;
  int saved_current_ = -1;
  int saved_lane_ = 0;
};

/// Id of the innermost span the calling thread has open (-1 when none).
int current_span();

/// Per span: its duration minus the part of it its children cover (the
/// union of the children's intervals, clipped to the span).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Share of traced thread-time that a layer accounts for:
/// layer self time / (layer self time + structural self time).  On one
/// thread the denominator is the traced wall time; with simulated ranks it
/// sums every rank's traced time.  Harness spans count on neither side.
struct Coverage {
  double layer_s = 0.0;
  double uncovered_s = 0.0;
  double ratio() const {
    const double total = layer_s + uncovered_s;
    return total > 0.0 ? layer_s / total : 0.0;
  }
};
Coverage trace_coverage(const std::vector<Span>& spans, const std::vector<double>& self);

struct LayerRow {
  std::string layer;
  double self_s = 0.0;
  std::int64_t spans = 0;
};
/// Self time summed per layer, largest first ("sample" and "bench" included).
std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                  const std::vector<double>& self);

/// chrome://tracing JSON ("X" events; tid = lane).
std::string chrome_trace_json(const std::vector<Span>& spans, const std::string& workload);

}  // namespace perfbench
