#pragma once

// One persistent worker team: the host engines' `parallel` primitive
// (sweep tiles, AOT row bands, the wedge wavefront) and the machine probe.
//
// The dispatching caller is member 0 and size() - 1 helper threads are
// members 1.. .  A dispatch over M members wakes exactly helpers 1..M-1,
// and parallel_for gives member m the static range [n·m/M, n·(m+1)/M),
// the partition the generated OpenMP / athread code uses, so a helper
// sweeps the same tiles every step, from its own core's cache.
//
// Hand-off is spin-then-park, with no queue and no allocation: each helper
// spins on its own cache-line-aligned generation counter for kSpinBudget,
// then parks in std::atomic::wait; the caller waits for the pending count
// the same way.  A dispatch that finds the team busy (another thread is
// dispatching, or the call is nested inside a member) runs its members
// inline, in member order, which keeps the wedge wavefront deadlock-free:
// each chunk waits only on lower-indexed chunks.
//
// The first member exception is rethrown on the caller.  A plain
// msc::Error gains " [in parallel chunk [lo, hi)]" (or "task i"); Error
// subclasses such as Cancelled, and other exception types, cross unchanged.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace msc {

class ThreadPool {
 public:
  /// How long a helper (or the waiting caller) spins before it parks.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  /// Creates a team of `threads` members, the caller included, so
  /// `threads - 1` helper threads; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Team members, the dispatching caller included.
  unsigned size() const { return static_cast<unsigned>(helpers_.size()) + 1; }

  /// Runs body over [begin, end) on min(members, end - begin, size())
  /// members, member m taking [begin + n·m/M, begin + n·(m+1)/M), and
  /// blocks until every member finishes.  `members` 0 means size().
  /// Throws msc::Error without running anything if the pool is shut down.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& body,
                    std::int64_t members = 0);

  /// Runs task(i) once for every i in [0, n), each member taking a static
  /// range of indices, and blocks until all complete.
  /// Throws msc::Error without running anything if the pool is shut down.
  void parallel_tasks(std::int64_t n, const std::function<void(std::int64_t)>& task);

  /// Waits out an in-flight dispatch and joins the helpers.  Idempotent;
  /// called by the destructor.  Must not be called from inside a member.
  /// Later dispatches are rejected with msc::Error.
  void shutdown();

  /// True once shutdown has begun; dispatches will be rejected.
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

 private:
  /// One member's share of a dispatch: call(ctx, m).  Never throws.
  struct Job {
    void (*call)(const void* ctx, std::int64_t member);
    const void* ctx;
  };
  /// A helper's wake-up counter, alone on its cache line.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> gen{0};
  };

  /// Runs job for members [0, members) — member 0 on the caller — or all
  /// of them inline, in order, when the team is busy.
  void run_team(std::int64_t members, const Job& job);
  void helper_loop(std::int64_t member);

  std::vector<std::thread> helpers_;
  std::unique_ptr<Slot[]> slots_;        ///< slots_[m] wakes helper m (slot 0 unused)
  const Job* job_ = nullptr;             ///< current dispatch; nullptr tells helpers to exit
  alignas(64) std::atomic<std::int32_t> pending_{0};  ///< helpers still running the job
  alignas(64) std::atomic<bool> busy_{false};         ///< a dispatch owns the team
  std::atomic<bool> stop_{false};
  std::mutex shutdown_mutex_;
};

/// Process-wide team shared by the executor and the machine probe.
ThreadPool& global_pool();

}  // namespace msc
