#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <typeinfo>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Spins on `a` for ThreadPool::kSpinBudget, then parks in atomic::wait,
/// until it holds a value `done` accepts; returns that value.  The spin
/// yields now and then, so a member sharing this core runs without waiting
/// out the whole budget: without it, a 4-vCPU host sometimes settled into
/// ~200 µs per back-to-back dispatch instead of ~1.5 µs.
template <typename V, typename Done>
V await(const std::atomic<V>& a, Done done) {
  V v = a.load(std::memory_order_acquire);
  if (done(v)) return v;
  const auto deadline = std::chrono::steady_clock::now() + ThreadPool::kSpinBudget;
  for (unsigned i = 1;; ++i) {
    cpu_relax();
    v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
    if (i % 16 == 0 && std::chrono::steady_clock::now() >= deadline) break;
    if (i % 256 == 0) std::this_thread::yield();
  }
  for (;;) {
    a.wait(v, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
  }
}

/// The first failure of one dispatch and the unit that raised it.
class FirstError {
 public:
  void record(std::exception_ptr e, std::string where) {
    std::lock_guard lock(m_);
    if (error_) return;
    error_ = std::move(e);
    where_ = std::move(where);
  }

  /// Rethrows the recorded failure on the caller, naming its unit when it
  /// is a plain Error.  Error subclasses — Cancelled and the other
  /// CodedErrors — cross untouched: rewrapping would defeat catch-by-type.
  void rethrow() const {
    if (!error_) return;
    try {
      std::rethrow_exception(error_);
    } catch (const Error& e) {
      if (typeid(e) != typeid(Error)) throw;
      throw Error(std::string(e.what()) + " [in parallel " + where_ + "]");
    }
  }

 private:
  std::mutex m_;
  std::exception_ptr error_;
  std::string where_;  ///< "chunk [lo, hi)" / "task 7"
};

template <typename F>
void call_member(const void* ctx, std::int64_t member) {
  (*static_cast<const F*>(ctx))(member);
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  slots_ = std::make_unique<Slot[]>(threads);
  helpers_.reserve(threads - 1);
  for (unsigned m = 1; m < threads; ++m) helpers_.emplace_back([this, m] { helper_loop(m); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  std::lock_guard lock(shutdown_mutex_);
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  // Take the team, waiting out an in-flight dispatch, and never hand it
  // back: a dispatch that passed its stop check before this point finds
  // the team busy and runs inline.
  for (bool idle = false; !busy_.compare_exchange_weak(idle, true, std::memory_order_acquire);
       idle = false)
    busy_.wait(true, std::memory_order_relaxed);
  job_ = nullptr;
  for (std::size_t m = 1; m <= helpers_.size(); ++m) {
    slots_[m].gen.fetch_add(1, std::memory_order_release);
    slots_[m].gen.notify_one();
  }
  for (auto& h : helpers_) h.join();
}

void ThreadPool::helper_loop(std::int64_t member) {
  const auto& gen = slots_[static_cast<std::size_t>(member)].gen;
  std::uint32_t seen = 0;
  for (;;) {
    seen = await(gen, [seen](std::uint32_t g) { return g != seen; });
    const Job* job = job_;
    if (job == nullptr) return;
    job->call(job->ctx, member);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
  }
}

void ThreadPool::run_team(std::int64_t members, const Job& job) {
  bool idle = false;
  if (!busy_.compare_exchange_strong(idle, true, std::memory_order_acquire)) {
    for (std::int64_t m = 0; m < members; ++m) job.call(job.ctx, m);
    return;
  }
  job_ = &job;
  pending_.store(static_cast<std::int32_t>(members - 1), std::memory_order_relaxed);
  for (std::int64_t m = 1; m < members; ++m) {
    auto& gen = slots_[static_cast<std::size_t>(m)].gen;
    gen.fetch_add(1, std::memory_order_release);
    gen.notify_one();
  }
  job.call(job.ctx, 0);
  await(pending_, [](std::int32_t p) { return p == 0; });
  busy_.store(false, std::memory_order_release);
  busy_.notify_all();
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t, std::int64_t)>& body,
                              std::int64_t members) {
  MSC_CHECK(begin <= end) << "invalid range [" << begin << ", " << end << ")";
  MSC_CHECK(members >= 0) << "member count must be non-negative";
  // Checked up front: a stopped pool's helpers are gone, and its dispatch
  // would otherwise run silently inline on the caller.
  MSC_CHECK(!stopped()) << "ThreadPool: parallel_for on a stopped pool";
  const std::int64_t n = end - begin;
  if (n == 0) return;
  const std::int64_t team = std::min<std::int64_t>({members > 0 ? members : size(), n, size()});
  if (team <= 1) {
    body(begin, end);
    return;
  }
  FirstError error;
  const auto member = [&](std::int64_t m) {
    const std::int64_t lo = begin + n * m / team, hi = begin + n * (m + 1) / team;
    try {
      body(lo, hi);
    } catch (...) {
      error.record(std::current_exception(),
                   strprintf("chunk [%lld, %lld)", (long long)lo, (long long)hi));
    }
  };
  run_team(team, {&call_member<decltype(member)>, &member});
  error.rethrow();
}

void ThreadPool::parallel_tasks(std::int64_t n, const std::function<void(std::int64_t)>& task) {
  MSC_CHECK(n >= 0) << "task count must be non-negative";
  MSC_CHECK(!stopped()) << "ThreadPool: parallel_tasks on a stopped pool";
  if (n == 0) return;
  const std::int64_t team = std::min<std::int64_t>(n, size());
  FirstError error;
  const auto member = [&](std::int64_t m) {
    for (std::int64_t i = n * m / team; i < n * (m + 1) / team; ++i) {
      try {
        task(i);
      } catch (...) {
        error.record(std::current_exception(), strprintf("task %lld", (long long)i));
      }
    }
  };
  run_team(team, {&call_member<decltype(member)>, &member});
  error.rethrow();
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace msc
