#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

namespace perfbench {

namespace {

thread_local int t_current = -1;
thread_local int t_lane = 0;

}  // namespace

int current_span() { return t_current; }

SpanKind span_kind(const char* name) {
  if (std::strncmp(name, "sample:", 7) == 0) return SpanKind::Structural;
  if (std::strncmp(name, "bench:", 6) == 0) return SpanKind::Harness;
  return SpanKind::Layer;
}

std::string span_layer(const char* name) {
  const char* colon = std::strchr(name, ':');
  return colon == nullptr ? std::string(name) : std::string(name, colon);
}

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

int SpanRecorder::open(const char* name, int parent, int lane) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.lane = lane;
  s.sample = sample_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  s.start = now();
  s.end = s.start;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name)
    : ScopedSpan(rec, name, t_current, t_lane) {}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* name, int parent, int lane)
    : rec_(rec), saved_current_(t_current), saved_lane_(t_lane) {
  if (rec_ == nullptr) return;
  id_ = rec_->open(name, parent, lane);
  t_current = id_;
  t_lane = lane;
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  rec_->close(id_);
  t_current = saved_current_;
  t_lane = saved_lane_;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});

  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start);
      hi = std::min(hi, p.end);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (p.end - p.start) - covered);
  }
  return self;
}

Coverage trace_coverage(const std::vector<Span>& spans, const std::vector<double>& self) {
  Coverage c;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    switch (span_kind(spans[i].name)) {
      case SpanKind::Layer:
        c.layer_s += self[i];
        break;
      case SpanKind::Structural:
        c.uncovered_s += self[i];
        break;
      case SpanKind::Harness:
        break;
    }
  }
  return c;
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                  const std::vector<double>& self) {
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& row = rows[span_layer(spans[i].name)];
    row.self_s += self[i];
    ++row.spans;
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) {
    row.layer = layer;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.self_s > b.self_s; });
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans, const std::string& workload) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"sample\":%d,"
                  "\"workload\":\"%s\"}}",
                  i == 0 ? "" : ",", s.name, span_layer(s.name).c_str(), s.lane, s.start * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent, s.sample, workload.c_str());
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
