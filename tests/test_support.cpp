// Unit tests of the support layer: error streams, aligned buffers, RNG,
// string utilities, table rendering, thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "support/buffer.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/shell.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace msc {
namespace {

TEST(Error, CheckThrowsWithMessage) {
  try {
    MSC_CHECK(1 == 2) << "custom detail " << 42;
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom detail 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  MSC_CHECK(true) << "never evaluated";
  SUCCEED();
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(MSC_FAIL() << "boom", Error);
}

TEST(AlignedBuffer, ZeroInitializedAndAligned) {
  AlignedBuffer buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % AlignedBuffer::kAlignment, 0u);
  for (auto b : buf.as<std::uint8_t>()) EXPECT_EQ(b, 0u);
}

TEST(AlignedBuffer, CopyIsDeep) {
  AlignedBuffer a(64);
  a.as<std::int32_t>()[0] = 7;
  AlignedBuffer b = a;
  b.as<std::int32_t>()[0] = 9;
  EXPECT_EQ(a.as<std::int32_t>()[0], 7);
  EXPECT_EQ(b.as<std::int32_t>()[0], 9);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(64);
  a.as<std::int32_t>()[0] = 5;
  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.as<std::int32_t>()[0], 5);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(AlignedBuffer, EmptyBufferIsSafe) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  buf.fill_zero();  // no-op, no crash
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int n = 0; n < 100; ++n) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int n = 0; n < 1000; ++n) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, IntRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int n = 0; n < 1000; ++n) {
    const auto v = rng.next_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, IntRangeRejectsInverted) { EXPECT_THROW(Rng(1).next_int(5, 3), Error); }

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Strings, Printf) {
  EXPECT_EQ(strprintf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, CountLocSkipsBlanksAndComments) {
  const std::string src = "int x;\n\n// comment\n  // indented comment\ny = 2;\n";
  EXPECT_EQ(count_loc(src), 2);
}

TEST(Strings, CountLocKeepsPreprocessor) {
  EXPECT_EQ(count_loc("#include <a.h>\n#pragma omp parallel\n# plain comment\n"), 2);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const auto out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t n = lo; n < hi; ++n) hits[static_cast<std::size_t>(n)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::int64_t lo, std::int64_t) {
                                   if (lo >= 0) throw Error("worker failure");
                                 }),
               Error);
}

TEST(ThreadPool, ParallelTasksRunAll) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  pool.parallel_tasks(10, [&](std::int64_t idx) { sum += static_cast<int>(idx); });
  EXPECT_EQ(sum.load(), 45);
}

// `members` caps the team exactly, member 0 is the caller, and member m
// owns the static range [n·m/M, n·(m+1)/M) on the same thread every
// dispatch, so its tiles stay in its core's cache.
TEST(ThreadPool, MembersOwnFixedRangesOnFixedThreads) {
  ThreadPool pool(4);
  constexpr std::int64_t kUnits = 10;
  for (const std::int64_t members : {1, 2, 3, 4, 9}) {
    SCOPED_TRACE(members);
    const std::int64_t team = std::min<std::int64_t>(members, 4);
    std::vector<std::thread::id> first(kUnits), owner(kUnits);
    for (int round = 0; round < 3; ++round) {
      std::mutex m;
      std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
      pool.parallel_for(
          0, kUnits,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t u = lo; u < hi; ++u)
              owner[static_cast<std::size_t>(u)] = std::this_thread::get_id();
            std::lock_guard lock(m);
            ranges.emplace_back(lo, hi);
          },
          members);
      std::sort(ranges.begin(), ranges.end());
      ASSERT_EQ(static_cast<std::int64_t>(ranges.size()), team);
      for (std::int64_t k = 0; k < team; ++k) {
        EXPECT_EQ(ranges[static_cast<std::size_t>(k)].first, kUnits * k / team);
        EXPECT_EQ(ranges[static_cast<std::size_t>(k)].second, kUnits * (k + 1) / team);
      }
      EXPECT_EQ(owner[0], std::this_thread::get_id());
      EXPECT_EQ(std::set<std::thread::id>(owner.begin(), owner.end()).size(),
                static_cast<std::size_t>(team));
      if (round == 0) first = owner;
      EXPECT_EQ(owner, first);
    }
  }
}

// The first member exception reaches the caller: a plain Error names its
// chunk or task, and an Error subclass keeps its type, code and site.
TEST(ThreadPool, ErrorCarriesChunkContext) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 100, [](std::int64_t lo, std::int64_t) {
      if (lo == 0) throw Error("boom in worker");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom in worker"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[in parallel chunk [0, 50)]"), std::string::npos);
  }
}

TEST(ThreadPool, ErrorOnAHelperCarriesTaskContext) {
  ThreadPool pool(2);
  try {
    pool.parallel_tasks(8, [](std::int64_t i) {
      if (i == 6) throw Error("task blew up");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("task blew up"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("[in parallel task 6]"), std::string::npos);
  }
}

TEST(ThreadPool, CancelledCrossesUnwrapped) {
  ThreadPool pool(4);
  for (const std::int64_t failing : {0, 3}) {  // the caller, then a helper
    try {
      pool.parallel_for(0, 4, [&](std::int64_t lo, std::int64_t) {
        if (lo == failing) throw Cancelled(ErrorCode::DeadlineExpired, "sweep.step");
      });
      FAIL() << "expected Cancelled";
    } catch (const Cancelled& c) {
      EXPECT_EQ(c.code(), ErrorCode::DeadlineExpired);
      EXPECT_EQ(c.site(), "sweep.step");
      EXPECT_EQ(std::string(c.what()).find("[in parallel"), std::string::npos);
    }
  }
  std::atomic<int> ran{0};  // a failed dispatch leaves the team usable
  pool.parallel_for(0, 4, [&](std::int64_t lo, std::int64_t hi) { ran += int(hi - lo); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, DispatchOnAStoppedPoolThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // idempotent
  EXPECT_TRUE(pool.stopped());
  bool ran = false;
  EXPECT_THROW(pool.parallel_for(0, 8, [&](std::int64_t, std::int64_t) { ran = true; }), Error);
  EXPECT_THROW(pool.parallel_for(0, 1, [&](std::int64_t, std::int64_t) { ran = true; }), Error);
  EXPECT_THROW(pool.parallel_tasks(4, [&](std::int64_t) { ran = true; }), Error);
  EXPECT_FALSE(ran);
}

// Four threads dispatch at once: one gets the team, the others find it
// busy and run their members inline.  Every range is covered exactly once.
TEST(ThreadPool, ConcurrentDispatchersEachCoverTheirRangeOnce) {
  ThreadPool pool(4);
  constexpr int kDispatchers = 4, kRounds = 200;
  constexpr std::int64_t kUnits = 64;
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int d = 0; d < kDispatchers; ++d) hits.emplace_back(kUnits);
  std::vector<std::thread> dispatchers;
  for (int d = 0; d < kDispatchers; ++d)
    dispatchers.emplace_back([&, d] {
      for (int r = 0; r < kRounds; ++r)
        pool.parallel_for(0, kUnits, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t u = lo; u < hi; ++u) hits[d][static_cast<std::size_t>(u)]++;
        });
    });
  for (auto& t : dispatchers) t.join();
  for (const auto& mine : hits)
    for (const auto& h : mine) EXPECT_EQ(h.load(), kRounds);
}

// A dispatch from inside a member finds the team busy and runs inline, in
// member order, on the member's own thread.
TEST(ThreadPool, NestedDispatchRunsInlineInMemberOrder) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4 * 8);
  std::atomic<bool> ordered{true}, same_thread{true};
  pool.parallel_for(0, 4, [&](std::int64_t outer, std::int64_t) {
    const auto me = std::this_thread::get_id();
    std::int64_t last = -1;
    pool.parallel_for(0, 8, [&](std::int64_t lo, std::int64_t hi) {
      if (lo <= last) ordered = false;
      last = lo;
      if (std::this_thread::get_id() != me) same_thread = false;
      for (std::int64_t u = lo; u < hi; ++u) hits[static_cast<std::size_t>(outer * 8 + u)]++;
    });
  });
  EXPECT_TRUE(ordered.load());
  EXPECT_TRUE(same_thread.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSurvivesRacingShutdown) {
  // parallel_for must terminate (result or msc::Error), never hang, when
  // the pool is shut down underneath it.
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<std::int64_t> covered{0};
    std::thread killer([&] { pool.shutdown(); });
    try {
      pool.parallel_for(0, 256, [&](std::int64_t lo, std::int64_t hi) { covered += hi - lo; });
      EXPECT_EQ(covered.load(), 256);  // accepted before the stop: all ran
    } catch (const Error&) {
      EXPECT_EQ(covered.load(), 0);  // rejected up front: nothing ran
    }
    killer.join();
  }
}

// Dispatchers racing shutdown: every call either covers its whole range
// or is rejected before running anything.
TEST(ThreadPool, ConcurrentDispatchersVsShutdownNeverLoseWork) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    std::atomic<std::int64_t> accepted{0}, ran{0};
    std::vector<std::thread> dispatchers;
    for (int t = 0; t < 4; ++t)
      dispatchers.emplace_back([&] {
        for (int n = 0; n < 50; ++n) {
          std::atomic<std::int64_t> mine{0};
          try {
            pool.parallel_for(0, 16, [&](std::int64_t lo, std::int64_t hi) { mine += hi - lo; });
          } catch (const Error&) {
            EXPECT_EQ(mine.load(), 0);
            break;  // pool stopped — every later dispatch throws too
          }
          EXPECT_EQ(mine.load(), 16);
          accepted += 16;
          ran += mine.load();
        }
      });
    pool.shutdown();
    for (auto& t : dispatchers) t.join();
    EXPECT_EQ(ran.load(), accepted.load());
  }
}

TEST(Shell, DistinguishesExitStatusFromSignalDeath) {
  // Regression: pclose status used to be compared to 0 directly, which
  // conflates "exited nonzero" with "killed by a signal" (and reports
  // garbage exit codes for the latter).  The decode must keep them apart.
  const ShellResult ok = run_shell("exit 0");
  EXPECT_TRUE(ok.ok);
  EXPECT_TRUE(ok.started);
  EXPECT_FALSE(ok.signaled);
  EXPECT_EQ(ok.exit_code, 0);

  const ShellResult failed = run_shell("exit 3");
  EXPECT_FALSE(failed.ok);
  EXPECT_TRUE(failed.started);
  EXPECT_FALSE(failed.signaled);
  EXPECT_EQ(failed.exit_code, 3);
  EXPECT_EQ(failed.describe(), "exit 3");

  const ShellResult killed = run_shell("kill -KILL $$");
  EXPECT_FALSE(killed.ok);
  EXPECT_TRUE(killed.started);
  EXPECT_TRUE(killed.signaled);
  EXPECT_EQ(killed.term_signal, 9);
  EXPECT_EQ(killed.describe(), "signal 9");
}

TEST(Shell, CapturesStdout) {
  const ShellResult r = run_shell("printf 'a b\\nc'");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.output, "a b\nc");
}

TEST(Shell, QuoteSurvivesHostileCharacters) {
  // shell_quote must round-trip any byte string through the shell intact —
  // spaces, quotes, globs, $-expansion.
  for (const std::string hostile :
       {"plain", "with space", "it's quoted", "two''quotes", "a\"b", "$HOME `id` $(id)",
        "semi;colon && glob *"}) {
    const ShellResult r = run_shell("printf '%s' " + shell_quote(hostile));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.output, hostile) << "quoting mangled: " << hostile;
  }
}

TEST(Shell, HostCcProbeIsNegativeForMissingDrivers) {
  EXPECT_FALSE(host_cc_available("msc-no-such-compiler-2xyz"));
}

}  // namespace
}  // namespace msc
