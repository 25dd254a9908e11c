#pragma once

// Process-wide counter registry (the profiling layer's "what happened"
// half; flight.hpp is the "when").  Named counters come in two kinds:
//
//  * monotonic — add-only totals (DMA bytes, halo messages, flops),
//  * gauge     — level samples folded with max() (SPM high-water mark).
//
// Counters are created on first use and live for the process lifetime, so
// hot paths can cache the returned reference (a function-local static) and
// pay one relaxed atomic add per event.  Increments are safe from any
// thread, including ThreadPool workers and SimWorld rank threads; the
// registry mutex guards only name lookup/creation, never the increment.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace msc::prof {

enum class CounterKind { Monotonic, Gauge };

class Counter {
 public:
  const std::string& name() const { return name_; }
  CounterKind kind() const { return kind_; }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Monotonic accumulation (any thread).  Folding a gauge with add() would
  /// silently turn a high-water mark into a sum, so kind misuse throws.
  void add(std::int64_t delta) {
    MSC_CHECK(kind_ == CounterKind::Monotonic)
        << "add() on gauge counter '" << name_ << "' (use record_max)";
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Gauge high-water fold: value = max(value, sample) (any thread).
  void record_max(std::int64_t sample) {
    MSC_CHECK(kind_ == CounterKind::Gauge)
        << "record_max() on monotonic counter '" << name_ << "' (use add)";
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (sample > cur &&
           !value_.compare_exchange_weak(cur, sample, std::memory_order_relaxed)) {
    }
  }

  /// Gauge store (single-writer use; races keep some writer's value).
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  friend class CounterRegistry;
  Counter(std::string name, CounterKind kind) : name_(std::move(name)), kind_(kind) {}

  std::string name_;
  CounterKind kind_;
  std::atomic<std::int64_t> value_{0};
};

class CounterRegistry {
 public:
  /// Finds or creates a monotonic counter; throws if `name` exists as a gauge.
  Counter& counter(const std::string& name) { return get(name, CounterKind::Monotonic); }

  /// Finds or creates a gauge; throws if `name` exists as a monotonic counter.
  Counter& gauge(const std::string& name) { return get(name, CounterKind::Gauge); }

  /// Current value, or 0 for names never touched.
  std::int64_t value(const std::string& name) const;

  /// (name, value) of every registered counter, sorted by name.
  std::vector<std::pair<std::string, std::int64_t>> snapshot() const;

  /// Zeroes every value.  Counter references stay valid.
  void reset();

 private:
  Counter& get(const std::string& name, CounterKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

/// The process-wide registry the simulators/executors report into.
CounterRegistry& global_counters();

/// Shorthands against the global registry.
Counter& counter(const std::string& name);
Counter& gauge(const std::string& name);

}  // namespace msc::prof
