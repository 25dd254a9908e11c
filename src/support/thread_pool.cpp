#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <typeinfo>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (stop_ && workers_.empty()) return;  // already shut down
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

bool ThreadPool::stopped() const {
  std::lock_guard lock(mutex_);
  return stop_;
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard lock(mutex_);
    // Once stop_ is set the workers drain the queue and exit; a job pushed
    // after that would never run and its Completion waiter would hang, so
    // reject it loudly instead.
    MSC_CHECK(!stop_) << "ThreadPool: enqueue on a stopped pool";
    jobs_.push(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

namespace {
/// Latch-style completion tracker that also records the first exception,
/// tagged with which unit of work raised it.
struct Completion {
  std::mutex m;
  std::condition_variable cv;
  std::int64_t remaining;
  std::exception_ptr error;
  std::string error_context;  ///< "chunk [lo, hi)" / "task 7" of the first error

  explicit Completion(std::int64_t n) : remaining(n) {}

  /// Takes the worker's exception_ptr by move: the first error's last
  /// reference must not be dropped on the worker after the caller, woken
  /// by this call, has started reading the exception.
  void finish(std::exception_ptr e, std::string context = {}) {
    std::lock_guard lock(m);
    if (e && !error) {
      error = std::move(e);
      error_context = std::move(context);
    }
    if (--remaining == 0) cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(m);
    cv.wait(lock, [this] { return remaining == 0; });
    if (!error) return;
    // Rethrow the first worker failure on the caller thread, appending the
    // task context so "which chunk blew up" survives the pool boundary.
    // Any Error *subclass* crosses untouched — Cancelled and the other
    // CodedErrors among them — since rewrapping into plain Error would
    // defeat downstream catch-by-type.
    try {
      std::rethrow_exception(error);
    } catch (const Error& e) {
      if (error_context.empty() || typeid(e) != typeid(Error)) throw;
      throw Error(std::string(e.what()) + " [in parallel " + error_context + "]");
    }
  }
};
}  // namespace

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t, std::int64_t)>& body) {
  MSC_CHECK(begin <= end) << "invalid range [" << begin << ", " << end << ")";
  // Checked up front: a stopped pool has no workers, and falling into the
  // single-chunk inline path would silently run on the caller instead.
  MSC_CHECK(!stopped()) << "ThreadPool: parallel_for on a stopped pool";
  const std::int64_t n = end - begin;
  if (n == 0) return;
  const std::int64_t chunks = std::min<std::int64_t>(size(), n);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  Completion done(chunks);
  const std::int64_t base = n / chunks, extra = n % chunks;
  std::int64_t lo = begin;
  std::int64_t submitted = 0;
  try {
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t hi = lo + base + (c < extra ? 1 : 0);
      enqueue([&body, lo, hi, &done] {
        std::exception_ptr err;
        try {
          body(lo, hi);
        } catch (...) {
          err = std::current_exception();
        }
        std::string context =
            err ? strprintf("chunk [%lld, %lld)", (long long)lo, (long long)hi) : std::string();
        done.finish(std::move(err), std::move(context));
      });
      ++submitted;
      lo = hi;
    }
  } catch (...) {
    // enqueue rejected (pool shut down mid-loop): account for the chunks
    // that never made it in so wait() still terminates, and surface the
    // rejection as the error.
    const std::exception_ptr err = std::current_exception();
    for (std::int64_t c = submitted; c < chunks; ++c) done.finish(err);
  }
  done.wait();
}

void ThreadPool::parallel_tasks(std::int64_t n, const std::function<void(std::int64_t)>& task) {
  MSC_CHECK(n >= 0) << "task count must be non-negative";
  MSC_CHECK(!stopped()) << "ThreadPool: parallel_tasks on a stopped pool";
  if (n == 0) return;
  Completion done(n);
  std::int64_t submitted = 0;
  try {
    for (std::int64_t idx = 0; idx < n; ++idx) {
      enqueue([&task, idx, &done] {
        std::exception_ptr err;
        try {
          task(idx);
        } catch (...) {
          err = std::current_exception();
        }
        std::string context = err ? strprintf("task %lld", (long long)idx) : std::string();
        done.finish(std::move(err), std::move(context));
      });
      ++submitted;
    }
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (std::int64_t idx = submitted; idx < n; ++idx) done.finish(err);
  }
  done.wait();
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace msc
