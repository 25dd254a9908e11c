// Robustness-spine tests: the CancelToken/Deadline pair, the resume
// contract at every engine checkpoint site (sweep, AOT and reference steps,
// wedge time blocks, the AOT pipeline stages, simmpi halo waits and
// barriers), the shell compile-budget kill, the AOT circuit breaker,
// watchdog escalation, thread-pool error context, and validated env knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/simmpi.hpp"
#include "dsl/program.hpp"
#include "exec/aot_backend.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/log.hpp"
#include "resilience/driver.hpp"
#include "resilience/watchdog.hpp"
#include "support/cancel.hpp"
#include "support/shell.hpp"
#include "support/thread_pool.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace msc {
namespace {

namespace fs = std::filesystem;
using exec::Boundary;
using exec::GridStorage;

std::string scratch_dir(const char* name) {
  const auto dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<dsl::Program> small_benchmark(const char* name,
                                              std::array<std::int64_t, 3> ext = {16, 16,
                                                                                 16}) {
  const auto& info = workload::benchmark(name);
  return workload::make_program(info, ir::DataType::f64, ext);
}

/// Bit-exact equality across every slot's full padded storage, halos too.
bool grids_identical(const GridStorage<double>& a, const GridStorage<double>& b) {
  if (a.slots() != b.slots() || a.padded_points() != b.padded_points()) return false;
  const std::size_t bytes = static_cast<std::size_t>(a.padded_points()) * sizeof(double);
  for (int s = 0; s < a.slots(); ++s)
    if (std::memcmp(a.slot_data(s), b.slot_data(s), bytes) != 0) return false;
  return true;
}

/// Run options with `cancel` attached, on the sweep or the AOT backend.
exec::ExecOptions with_cancel(const CancelToken* cancel,
                              exec::HostBackend backend = exec::HostBackend::Sweep) {
  exec::ExecOptions opts;
  opts.backend = backend;
  opts.cancel = cancel;
  return opts;
}

/// AOT-backend run options over `aot`, with `cancel` attached.
exec::ExecOptions aot_options(const exec::AotOptions& aot, const CancelToken* cancel = nullptr) {
  exec::ExecOptions opts = with_cancel(cancel, exec::HostBackend::Aot);
  opts.aot = aot;
  return opts;
}

void seed(GridStorage<double>& g, std::uint64_t base = 42) {
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, base + static_cast<std::uint64_t>(s));
}

/// A fake host cc that answers availability/flag probes instantly but hangs
/// far longer than any budget used here on a real compile (args carry -o).
std::string hanging_cc(const std::string& dir) {
  const auto path = fs::path(dir) / "hanging_cc.sh";
  std::ofstream out(path.string());
  out << "#!/bin/sh\ncase \"$*\" in *-o*) sleep 30;; esac\nexit 0\n";
  out.close();
  fs::permissions(path, fs::perms::owner_all);
  return path.string();
}

// ---- token + deadline basics ---------------------------------------------

TEST(CancelToken, LatchesFirstReasonAndCountsPolls) {
  CancelToken token;
  EXPECT_EQ(token.state(), ErrorCode::Ok);
  EXPECT_EQ(token.poll(), ErrorCode::Ok);
  token.cancel(ErrorCode::Cancelled);
  token.cancel(ErrorCode::WatchdogStall);  // idempotent: first reason wins
  EXPECT_EQ(token.state(), ErrorCode::Cancelled);
  const auto before = token.polls();
  EXPECT_EQ(token.poll(), ErrorCode::Cancelled);
  EXPECT_EQ(token.polls(), before + 1);
}

TEST(CancelToken, CancelRejectsNonCancellationCodes) {
  CancelToken token;
  EXPECT_THROW(token.cancel(ErrorCode::Ok), Error);
  EXPECT_THROW(token.cancel(ErrorCode::CompileTimeout), Error);
  EXPECT_TRUE(is_cancellation_code(ErrorCode::WatchdogStall));
  EXPECT_FALSE(is_cancellation_code(ErrorCode::CommTimeout));
}

TEST(CancelToken, CheckpointThrowsWithCodeAndSite) {
  CancelToken token;
  EXPECT_NO_THROW(token.checkpoint("anywhere"));
  token.cancel(ErrorCode::WatchdogStall);
  try {
    token.checkpoint("sweep.step");
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.code(), ErrorCode::WatchdogStall);
    EXPECT_EQ(c.site(), "sweep.step");
    EXPECT_NE(std::string(c.what()).find("watchdog_stall"), std::string::npos);
    EXPECT_NE(std::string(c.what()).find("sweep.step"), std::string::npos);
    EXPECT_FALSE(c.completed_through().has_value()) << "only the executors set it";
  }
}

TEST(CancelDeadline, UnarmedNeverExpiresArmedDoes) {
  Deadline unarmed;
  EXPECT_FALSE(unarmed.armed());
  EXPECT_FALSE(unarmed.expired());
  EXPECT_GT(unarmed.remaining_ms(), 1e18);

  const Deadline past = Deadline::after_ms(0);
  EXPECT_TRUE(past.armed());
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining_ms(), 0.0);

  const Deadline future = Deadline::after_ms(10000);
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining_ms(), 9000.0);
  EXPECT_LE(future.remaining_ms(), 10000.0);
}

TEST(CancelDeadline, PollLatchesExpiryAndBudgetMaps) {
  CancelToken token;
  EXPECT_EQ(token.budget_ms(50.0), 50.0);          // cap only, no deadline
  EXPECT_GT(token.budget_ms(0.0), 1e18);           // no cap, no deadline

  token.set_deadline(Deadline::after_ms(10000));
  EXPECT_EQ(token.budget_ms(50.0), 50.0);          // cap below budget
  EXPECT_LE(token.budget_ms(0.0), 10000.0);        // budget alone
  EXPECT_GT(token.budget_ms(0.0), 9000.0);

  CancelToken expired(Deadline::after_ms(0));
  EXPECT_EQ(expired.poll(), ErrorCode::DeadlineExpired);
  EXPECT_EQ(expired.state(), ErrorCode::DeadlineExpired);  // latched
  EXPECT_EQ(expired.budget_ms(50.0), 0.0);
}

TEST(CancelDeadline, EveryPollReadsTheClock) {
  // No amortized clock read: once the deadline has passed, the very next
  // poll sees it, however many polls came before.
  CancelToken token(Deadline::after_ms(20));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(token.poll(), ErrorCode::Ok);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(token.poll(), ErrorCode::DeadlineExpired);
  EXPECT_EQ(token.polls(), 6);
}

TEST(ErrorCodes, StableSlugs) {
  EXPECT_STREQ(error_code_name(ErrorCode::Ok), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::DeadlineExpired), "deadline_expired");
  EXPECT_STREQ(error_code_name(ErrorCode::WatchdogStall), "watchdog_stall");
  EXPECT_STREQ(error_code_name(ErrorCode::CompileTimeout), "compile_timeout");
  EXPECT_STREQ(error_code_name(ErrorCode::Quarantined), "quarantined");
  EXPECT_STREQ(error_code_name(ErrorCode::InvalidConfig), "invalid_config");
}

// ---- resume contract at the engine checkpoints -----------------------------

/// Runs `run(&token)` under a deadline that expires mid-run and expects
/// DeadlineExpired at a site starting with `site`, on a multiple of
/// `step_unit` steps.  Then
/// resumes from completed_through() + 1 with no token and expects the grid
/// of an uninterrupted run.  `run(tok, grid, t_begin)` runs steps
/// t_begin..t_end on `grid`.
template <typename Run>
void expect_deadline_fires_and_resumes(const GridStorage<double>& seeded, std::int64_t t_end,
                                       const char* site, std::int64_t step_unit,
                                       const Run& run) {
  GridStorage<double> whole = seeded;
  run(nullptr, whole, 1);  // also the warm-up: page faults, AOT compile
  // A quarter of the faster of two timed runs expires mid-run on any
  // machine, unless the cancelled run is 4x faster than both.
  double best_ms = 1e300;
  for (int i = 0; i < 2; ++i) {
    GridStorage<double> timed = seeded;
    const auto t0 = std::chrono::steady_clock::now();
    run(nullptr, timed, 1);
    best_ms = std::min(best_ms, std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
  }

  GridStorage<double> grid = seeded;
  CancelToken token(Deadline::after_ms(best_ms / 4.0));
  std::int64_t done = 0;
  try {
    run(&token, grid, 1);
    FAIL() << "a deadline of " << best_ms / 4.0 << " ms did not fire in the run";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.code(), ErrorCode::DeadlineExpired);
    EXPECT_TRUE(c.site().starts_with(site)) << c.site();
    ASSERT_TRUE(c.completed_through().has_value());
    done = *c.completed_through();
  }
  EXPECT_GE(done, 0);
  EXPECT_LT(done, t_end);
  EXPECT_EQ(done % step_unit, 0) << "stopped inside a time block";
  run(nullptr, grid, done + 1);
  EXPECT_TRUE(grids_identical(grid, whole)) << "resumed from step " << done + 1;
}

TEST(CancelSweep, PreCancelledRunLeavesGridPristine) {
  auto prog = small_benchmark("3d7pt_star");
  GridStorage<double> grid(prog->stencil().state());
  seed(grid);
  const GridStorage<double> before = grid;

  CancelToken token;
  token.cancel();
  try {
    exec::run_scheduled(prog->stencil(), prog->primary_schedule(), grid, 1, 4,
                        Boundary::ZeroHalo, prog->bindings(), nullptr, with_cancel(&token));
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.site(), "sweep.step");
    EXPECT_EQ(c.completed_through(), std::optional<std::int64_t>(0));
  }
  EXPECT_TRUE(grids_identical(grid, before));
}

// A deadline that expires mid-run must fire: one clock read per step.  (An
// amortized clock read once missed every deadline of this 64-step run.)
TEST(CancelSweep, MidRunDeadlineFiresAndResumes) {
  auto prog = small_benchmark("3d7pt_star", {32, 32, 32});
  GridStorage<double> seeded(prog->stencil().state());
  seed(seeded);
  expect_deadline_fires_and_resumes(
      seeded, 64, "sweep.step", 1,
      [&](const CancelToken* tok, GridStorage<double>& g, std::int64_t t_begin) {
        exec::ExecInfo info;
        exec::run_scheduled(prog->stencil(), prog->primary_schedule(), g, t_begin, 64,
                            Boundary::ZeroHalo, prog->bindings(), nullptr, with_cancel(tok),
                            &info);
        EXPECT_EQ(info.route, exec::Route::Sweep);
      });
}

TEST(CancelSweep, ArmedButUnfiredTokenIsBitIdenticalToNoToken) {
  auto prog = small_benchmark("3d7pt_star");
  GridStorage<double> with_token(prog->stencil().state());
  GridStorage<double> without(prog->stencil().state());
  seed(with_token);
  seed(without);

  CancelToken token(Deadline::after_ms(60000));
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), with_token, 1, 5,
                      Boundary::ZeroHalo, prog->bindings(), nullptr, with_cancel(&token));
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), without, 1, 5,
                      Boundary::ZeroHalo, prog->bindings());
  EXPECT_TRUE(grids_identical(with_token, without));
  EXPECT_EQ(token.polls(), 5) << "one check per step";
}

TEST(CancelReference, PreCancelledRunStopsBeforeTheFirstStep) {
  auto prog = small_benchmark("3d7pt_star");
  GridStorage<double> grid(prog->stencil().state());
  seed(grid);
  const GridStorage<double> before = grid;

  CancelToken token;
  token.cancel();
  try {
    exec::run_reference(prog->stencil(), grid, 1, 3, Boundary::ZeroHalo, prog->bindings(),
                        nullptr, {}, &token);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.site(), "reference.step");
    EXPECT_EQ(c.completed_through(), std::optional<std::int64_t>(0));
  }
  EXPECT_TRUE(grids_identical(grid, before));
}

TEST(CancelTemporal, PreCancelledRunStopsBeforeTheFirstBlock) {
  auto prog = small_benchmark("3d7pt_star");
  prog->primary_kernel().time_tile(4);
  GridStorage<double> grid(prog->stencil().state());
  seed(grid);
  const GridStorage<double> before = grid;

  CancelToken token;
  token.cancel(ErrorCode::WatchdogStall);
  try {
    exec::run_scheduled(prog->stencil(), prog->primary_schedule(), grid, 1, 8,
                        Boundary::ZeroHalo, prog->bindings(), nullptr, with_cancel(&token));
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.code(), ErrorCode::WatchdogStall);
    EXPECT_EQ(c.site(), "temporal.block");
    EXPECT_EQ(c.completed_through(), std::optional<std::int64_t>(0));
  }
  EXPECT_TRUE(grids_identical(grid, before));
}

// The wedges check only between time blocks, so the run stops on a block
// boundary, serial or on the pool's wavefront.  (An amortized clock read
// once missed every deadline of the serial 64-step run: 32 polls.)
TEST(CancelTemporal, MidRunDeadlineFiresOnTheWedgesAndResumes) {
  ThreadPool pool(4);
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "pool wavefront" : "serial wedges");
    auto prog = small_benchmark("3d7pt_star", {32, 32, 32});
    if (parallel) workload::apply_msc_schedule(*prog, workload::benchmark("3d7pt_star"), "cpu");
    prog->primary_kernel().time_tile(4);
    GridStorage<double> seeded(prog->stencil().state());
    seed(seeded);
    expect_deadline_fires_and_resumes(
        seeded, 64, "temporal.block", 4,
        [&](const CancelToken* tok, GridStorage<double>& g, std::int64_t t_begin) {
          exec::ExecOptions opts = with_cancel(tok);
          opts.pool = &pool;
          exec::ExecInfo info;
          exec::run_scheduled(prog->stencil(), prog->primary_schedule(), g, t_begin, 64,
                              Boundary::ZeroHalo, prog->bindings(), nullptr, opts, &info);
          EXPECT_EQ(info.route, exec::Route::Temporal);
        });
  }
}

// ---- resume property: any fire point, every route ---------------------------

/// A three-slot-window (t-1, t-2) 2-D stencil under 8x8 tiles: `parallel`
/// adds a pool level, `depth` > 1 a time_tile.
std::unique_ptr<dsl::Program> window3_program(bool parallel, std::int64_t depth) {
  auto prog = std::make_unique<dsl::Program>("resume");
  dsl::Var j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f64, 193, 259);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.3) * B(j, i) + dsl::ExprH(0.15) * B(j, i - 1) +
                             dsl::ExprH(0.15) * B(j, i + 1) + dsl::ExprH(0.2) * B(j - 1, i) +
                             dsl::ExprH(0.2) * B(j + 1, i));
  k.tile({8, 8}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  if (parallel) k.parallel("j_outer", 4);
  if (depth > 1) k.time_tile(depth);
  prog->def_stencil("st", B, 0.7 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2]);
  return prog;
}

enum class ResumeRoute { Sweep, SweepPeriodic, Wedges, Aot, Reference };

const char* resume_route_name(ResumeRoute r) {
  switch (r) {
    case ResumeRoute::Sweep: return "sweep";
    case ResumeRoute::SweepPeriodic: return "sweep/periodic";
    case ResumeRoute::Wedges: return "wedges";
    case ResumeRoute::Aot: return "aot";
    case ResumeRoute::Reference: return "reference";
  }
  return "?";
}

/// Cancels a run when its token has been polled `k` times: a helper thread
/// watches polls() and fires as soon as it sees k.  The run notices at its
/// next check, so the stop point is k + 1 or later — or never, when the
/// run ends first.
class FireAtPoll {
 public:
  FireAtPoll(CancelToken& token, std::int64_t k)
      : thread_([this, &token, k] {
          running_.store(true, std::memory_order_release);
          while (!stop_.load(std::memory_order_relaxed)) {
            if (token.polls() >= k) {
              token.cancel();
              return;
            }
            std::this_thread::yield();
          }
        }) {
    // Start the run only once the watcher is spinning.
    while (!running_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  ~FireAtPoll() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  FireAtPoll(const FireAtPoll&) = delete;
  FireAtPoll& operator=(const FireAtPoll&) = delete;

 private:
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The work runs report: the ExecStats passed through them and their
/// exec.timesteps / exec.points_updated counter deltas.
struct Counted {
  exec::ExecStats stats;
  std::int64_t timesteps = 0;
  std::int64_t points = 0;
};

void expect_same_count(const Counted& got, const Counted& want) {
  EXPECT_EQ(got.stats.timesteps, want.stats.timesteps);
  EXPECT_EQ(got.stats.points_updated, want.stats.points_updated);
  EXPECT_EQ(got.stats.flops, want.stats.flops);
  EXPECT_EQ(got.stats.tiles_executed, want.stats.tiles_executed);
  EXPECT_EQ(got.stats.staged_bytes_in, want.stats.staged_bytes_in);
  EXPECT_EQ(got.stats.staged_bytes_out, want.stats.staged_bytes_out);
  EXPECT_EQ(got.timesteps, want.timesteps);
  EXPECT_EQ(got.points, want.points);
}

// For every route, serial and pool: cancel at a varying poll, resume from
// completed_through() + 1, and the ring — every slot, halos included — is
// byte-identical to an uninterrupted run, and the cancelled call plus its
// resume count the same work as the uninterrupted run.
TEST(CancelResume, EveryRouteResumesBitExactlyFromAnyFirePoint) {
  constexpr std::int64_t kSteps = 24;  // 8 wedge blocks of 3
  const bool have_cc = host_cc_available();
  const std::string cache = scratch_dir("msc_cancel_resume_aot");
  int cases = 0, fired = 0;
  for (const ResumeRoute route : {ResumeRoute::Sweep, ResumeRoute::SweepPeriodic,
                                  ResumeRoute::Wedges, ResumeRoute::Aot,
                                  ResumeRoute::Reference}) {
    if (route == ResumeRoute::Aot && !have_cc) continue;
    for (const bool parallel : {false, true}) {
      if (route == ResumeRoute::Reference && parallel) continue;  // serial by definition
      auto prog = window3_program(parallel, route == ResumeRoute::Wedges ? 3 : 1);
      const auto& st = prog->stencil();
      ASSERT_EQ(st.time_window(), 3);
      const Boundary bc =
          route == ResumeRoute::SweepPeriodic ? Boundary::Periodic : Boundary::ZeroHalo;
      exec::AotOptions aot;
      aot.cache_dir = cache;
      const auto run = [&](const CancelToken* tok, GridStorage<double>& g,
                           std::int64_t t_begin, exec::ExecStats* stats) {
        if (route == ResumeRoute::Reference) {
          exec::run_reference(st, g, t_begin, kSteps, bc, {}, stats, {}, tok);
          return;
        }
        exec::ExecOptions opts = route == ResumeRoute::Aot ? aot_options(aot, tok)
                                                           : with_cancel(tok);
        exec::ExecInfo info;
        exec::run_scheduled(st, prog->primary_schedule(), g, t_begin, kSteps, bc, {},
                            stats, opts, &info);
        const exec::Route want = route == ResumeRoute::Aot      ? exec::Route::Aot
                                 : route == ResumeRoute::Wedges ? exec::Route::Temporal
                                                                : exec::Route::Sweep;
        ASSERT_EQ(info.route, want) << info.fallback_reason;
      };

      GridStorage<double> seeded(st.state());
      seed(seeded, 11);
      const prof::Counter& timesteps = prof::counter("exec.timesteps");
      const prof::Counter& points = prof::counter("exec.points_updated");
      GridStorage<double> whole = seeded;
      Counted whole_count;
      whole_count.timesteps = -timesteps.value();
      whole_count.points = -points.value();
      run(nullptr, whole, 1, &whole_count.stats);
      whole_count.timesteps += timesteps.value();
      whole_count.points += points.value();

      for (std::int64_t k = 0; k < 6; ++k) {
        SCOPED_TRACE(testing::Message() << resume_route_name(route)
                                        << (parallel ? " pool" : " serial") << " k=" << k);
        ++cases;
        GridStorage<double> grid = seeded;
        CancelToken token;
        std::int64_t resume_at = kSteps + 1;
        Counted count;
        count.timesteps = -timesteps.value();
        count.points = -points.value();
        {
          const FireAtPoll fire(token, k);
          try {
            run(&token, grid, 1, &count.stats);
          } catch (const Cancelled& c) {
            ASSERT_TRUE(c.completed_through().has_value());
            resume_at = *c.completed_through() + 1;
          }
        }
        if (resume_at <= kSteps) {
          ++fired;
          EXPECT_GE(resume_at, 1);
          if (route == ResumeRoute::Wedges) {
            EXPECT_EQ((resume_at - 1) % 3, 0) << "stopped inside a time block";
          }
          run(nullptr, grid, resume_at, &count.stats);
        }
        count.timesteps += timesteps.value();
        count.points += points.value();
        EXPECT_TRUE(grids_identical(grid, whole)) << "resumed from step " << resume_at;
        expect_same_count(count, whole_count);
      }
    }
  }
  EXPECT_GT(2 * fired, cases) << fired << " of " << cases << " cases fired";
}

// ---- shell compile budget -------------------------------------------------

TEST(CancelShell, TimedOutCommandIsKilledAndReported) {
  const auto t0 = std::chrono::steady_clock::now();
  const ShellResult r = run_shell("sleep 5", 150.0);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_TRUE(r.started);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.describe().find("timed out"), std::string::npos);
  EXPECT_LT(elapsed, 3.0) << "the process group must be killed at the budget";
}

TEST(CancelShell, UnboundedCommandStillWorks) {
  const ShellResult r = run_shell("echo shell-ok");
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.timed_out);
  EXPECT_NE(r.output.find("shell-ok"), std::string::npos);
}

// ---- AOT pipeline: checkpoints, budget, circuit breaker ------------------

TEST(CancelAot, PreCancelledRunStopsBeforeThePipeline) {
  auto prog = small_benchmark("3d7pt_star");
  GridStorage<double> grid(prog->stencil().state());
  seed(grid);
  const GridStorage<double> before = grid;

  CancelToken token;
  token.cancel();
  exec::AotOptions opts;
  opts.cache_dir = scratch_dir("msc_cancel_aot_pre");
  try {
    exec::run_scheduled(prog->stencil(), prog->primary_schedule(), grid, 1, 3, Boundary::ZeroHalo,
                        prog->bindings(), nullptr, aot_options(opts, &token));
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.site(), "aot.emit");
    EXPECT_EQ(c.completed_through(), std::optional<std::int64_t>(0));
  }
  EXPECT_TRUE(grids_identical(grid, before));
}

TEST(CancelAot, DeadlineDuringCompileThrowsCancelledNotQuarantine) {
  const std::string dir = scratch_dir("msc_cancel_aot_deadline");
  auto prog = small_benchmark("3d7pt_star");
  GridStorage<double> grid(prog->stencil().state());
  seed(grid);
  const GridStorage<double> before = grid;
  const int live_before = exec::detail::AotModule::live();

  exec::aot_breaker_reset();
  exec::AotOptions opts;
  opts.cc = hanging_cc(dir);
  opts.cache_dir = dir + "/cache";
  opts.compile_timeout_ms = 60000.0;  // generous budget; the deadline is tighter

  CancelToken token(Deadline::after_ms(200));
  try {
    exec::run_scheduled(prog->stencil(), prog->primary_schedule(), grid, 1, 3, Boundary::ZeroHalo,
                        prog->bindings(), nullptr, aot_options(opts, &token));
    FAIL() << "expected Cancelled (deadline-driven compile kill)";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.code(), ErrorCode::DeadlineExpired);
    EXPECT_EQ(c.site(), "aot.compile");
    EXPECT_EQ(c.completed_through(), std::optional<std::int64_t>(0));
  }
  // Deadline pressure is the caller's choice, not the compiler's fault: the
  // plan must NOT be quarantined, the grid must be pristine, and no module
  // handle may have leaked.
  EXPECT_EQ(exec::aot_quarantined_count(), 0);
  EXPECT_TRUE(grids_identical(grid, before));
  EXPECT_EQ(exec::detail::AotModule::live(), live_before);
}

TEST(CancelAot, BudgetTimeoutQuarantinesAndDegradesBitExactly) {
  const std::string dir = scratch_dir("msc_cancel_aot_budget");
  auto prog = small_benchmark("3d7pt_star");
  GridStorage<double> oracle(prog->stencil().state());
  GridStorage<double> degraded(prog->stencil().state());
  GridStorage<double> quarantined(prog->stencil().state());
  seed(oracle);
  seed(degraded);
  seed(quarantined);

  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), oracle, 1, 4,
                      Boundary::ZeroHalo, prog->bindings());

  exec::aot_breaker_reset();
  exec::AotOptions opts;
  opts.cc = hanging_cc(dir);
  opts.cache_dir = dir + "/cache";
  opts.compile_timeout_ms = 150.0;

  // First run: the hanging cc is killed at the budget, the plan is
  // quarantined, and the run degrades to the sweep engine.
  exec::ExecInfo first;
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), degraded, 1, 4, Boundary::ZeroHalo,
                      prog->bindings(), nullptr, aot_options(opts), &first);
  EXPECT_EQ(first.route, exec::Route::Sweep);
  EXPECT_NE(first.fallback_reason.find("timed out"), std::string::npos);
  EXPECT_STREQ(exec::aot_fallback_slug(first.fallback_reason), "compile_timeout");
  EXPECT_EQ(exec::aot_quarantined_count(), 1);
  EXPECT_FALSE(exec::aot_quarantine_reason(first.aot.plan_hash).empty());

  // Second run: the circuit breaker routes around the compiler entirely.
  const auto t0 = std::chrono::steady_clock::now();
  exec::ExecInfo second;
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), quarantined, 1, 4,
                      Boundary::ZeroHalo, prog->bindings(), nullptr, aot_options(opts), &second);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(second.route, exec::Route::Sweep);
  EXPECT_TRUE(second.aot.quarantined);
  EXPECT_STREQ(exec::aot_fallback_slug(second.fallback_reason), "quarantined");
  EXPECT_LT(wall, 1.0) << "quarantined plans must skip the compiler";

  EXPECT_TRUE(grids_identical(oracle, degraded));
  EXPECT_TRUE(grids_identical(oracle, quarantined));

  exec::aot_breaker_reset();
  EXPECT_EQ(exec::aot_quarantined_count(), 0);
}

TEST(CancelAot, MidRunDeadlineStopsOnAStepAndResumes) {
  if (!host_cc_available()) GTEST_SKIP() << "no host cc";
  auto prog = small_benchmark("3d7pt_star", {32, 32, 32});
  GridStorage<double> seeded(prog->stencil().state());
  seed(seeded);
  exec::AotOptions opts;
  opts.cache_dir = scratch_dir("msc_cancel_aot_run");
  // The first (untimed) run compiles; the timed and the cancelled runs
  // reach the per-step dispatch through the module cache.  The deadline
  // lands in the dispatch ("aot.step") unless emitting the module source
  // dominates the run, as in a sanitizer build; the run resumes either way.
  expect_deadline_fires_and_resumes(
      seeded, 64, "aot.", 1,
      [&](const CancelToken* tok, GridStorage<double>& g, std::int64_t t_begin) {
        exec::ExecInfo info;
        exec::run_scheduled(prog->stencil(), prog->primary_schedule(), g, t_begin, 64,
                            Boundary::ZeroHalo, prog->bindings(), nullptr,
                            aot_options(opts, tok), &info);
        ASSERT_EQ(info.route, exec::Route::Aot) << info.fallback_reason;
      });
}

TEST(CancelAot, ArmedTokenDispatchMatchesSingleCallBitExactly) {
  if (!host_cc_available()) GTEST_SKIP() << "no host cc";
  const std::string dir = scratch_dir("msc_cancel_aot_steps");
  auto prog = small_benchmark("3d7pt_star");
  GridStorage<double> stepped(prog->stencil().state());
  GridStorage<double> whole(prog->stencil().state());
  seed(stepped);
  seed(whole);

  exec::AotOptions opts;
  opts.cache_dir = dir;
  CancelToken token(Deadline::after_ms(60000));

  exec::ExecInfo ia, ib;
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), stepped, 1, 6, Boundary::ZeroHalo,
                      prog->bindings(), nullptr, aot_options(opts, &token), &ia);
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), whole, 1, 6, Boundary::ZeroHalo,
                      prog->bindings(), nullptr, aot_options(opts), &ib);
  ASSERT_EQ(ia.route, exec::Route::Aot) << ia.fallback_reason;
  ASSERT_EQ(ib.route, exec::Route::Aot) << ib.fallback_reason;
  EXPECT_TRUE(grids_identical(stepped, whole));
}

// ---- simmpi: deadline-clamped waits --------------------------------------

TEST(CancelComm, MidHaloWaitDeadlineRaisesCancelledOnEveryRank) {
  comm::SimWorld world(2);
  CancelToken token(Deadline::after_ms(80));
  world.set_cancel_token(&token);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    world.run([&](comm::RankCtx& ctx) {
      if (ctx.rank() == 0) {
        double buf = 0.0;
        auto req = ctx.irecv(1, 7, &buf, sizeof buf);
        ctx.wait(req);  // rank 1 never sends: only the deadline ends this
      }
    });
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.code(), ErrorCode::DeadlineExpired);
    EXPECT_EQ(c.site(), "comm.wait");
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 3.0) << "the wait must be clamped to the deadline budget";
}

TEST(CancelComm, BarrierHonoursTheDeadline) {
  comm::SimWorld world(2);
  CancelToken token(Deadline::after_ms(80));
  world.set_cancel_token(&token);
  try {
    world.run([&](comm::RankCtx& ctx) {
      if (ctx.rank() == 0) ctx.barrier();  // rank 1 never arrives
    });
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& c) {
    EXPECT_EQ(c.site(), "comm.barrier");
  }
}

TEST(CancelComm, UncancelledWorldIsUnaffectedByAnArmedToken) {
  comm::SimWorld world(2);
  CancelToken token(Deadline::after_ms(60000));
  world.set_cancel_token(&token);
  double got = -1.0;
  world.run([&](comm::RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const double v = 3.5;
      auto req = ctx.isend(1, 9, &v, sizeof v);
      ctx.wait(req);
    } else {
      auto req = ctx.irecv(0, 9, &got, sizeof got);
      ctx.wait(req);
    }
    ctx.barrier();
  });
  EXPECT_EQ(got, 3.5);
}

// ---- watchdog -------------------------------------------------------------

TEST(Watchdog, EscalatesStallCancelDumpOnHeartbeatStagnation) {
  const std::string dir = scratch_dir("msc_watchdog_test");
  const std::string dump = dir + "/stall.flight.json";

  CancelToken token;
  resilience::WatchdogConfig cfg;
  cfg.poll_ms = 2.0;
  cfg.stall_ms = 20.0;
  cfg.cancel_ms = 40.0;
  cfg.dump_ms = 60.0;
  cfg.dump_path = dump;

  // Nothing records flight events while we sleep: the heartbeat stagnates
  // and the ladder must walk stall -> cancel -> dump on its own.
  resilience::Watchdog dog(cfg, &token);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (dog.stage() != resilience::WatchdogStage::Dumped &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  dog.stop();

  EXPECT_EQ(dog.stage(), resilience::WatchdogStage::Dumped);
  EXPECT_EQ(token.state(), ErrorCode::WatchdogStall);
  EXPECT_GE(dog.max_gap_ms(), cfg.cancel_ms);

  std::ifstream in(dump);
  ASSERT_TRUE(in.good()) << "flight dump must be written at the last rung";
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto doc = workload::Json::parse(text);
  EXPECT_EQ(doc.find("schema")->as_string(), "msc-flight-v1");
}

TEST(Watchdog, StaysIdleWhileTheHeartbeatAdvances) {
  CancelToken token;
  resilience::WatchdogConfig cfg;
  cfg.poll_ms = 2.0;
  cfg.stall_ms = 30.0;
  cfg.cancel_ms = 60.0;

  resilience::Watchdog dog(cfg, &token);
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  while (std::chrono::steady_clock::now() < until) {
    const std::uint64_t now = prof::flight_now_ns();
    prof::global_flight().record(prof::FlightKind::Step, now, now, 1, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  dog.stop();
  EXPECT_EQ(dog.stage(), resilience::WatchdogStage::Idle);
  EXPECT_EQ(token.state(), ErrorCode::Ok);
}

TEST(Watchdog, SuspectsSkipRingsOfExitedThreads) {
  // An exited thread's ring waits for adoption with its last event still
  // in it; that stale span must not be named as the stall suspect.
  int stale_tid = -1;
  std::thread([] {
    const std::uint64_t now = prof::flight_now_ns();
    prof::global_flight().record(prof::FlightKind::WedgeWait, now, now, 7, 7);
  }).join();
  for (const auto& d : prof::global_flight().drain(1))
    if (!d.live && !d.events.empty() && d.events.back().kind == prof::FlightKind::WedgeWait)
      stale_tid = d.tid;
  ASSERT_GE(stale_tid, 0) << "the exited thread's ring must be released, not live";
  const std::string suspects = resilience::watchdog_suspects();
  EXPECT_EQ(suspects.find("tid " + std::to_string(stale_tid) + ":"), std::string::npos)
      << suspects;
}

TEST(Watchdog, StageNamesAreStable) {
  using resilience::WatchdogStage;
  EXPECT_STREQ(resilience::watchdog_stage_name(WatchdogStage::Idle), "idle");
  EXPECT_STREQ(resilience::watchdog_stage_name(WatchdogStage::Stalled), "stalled");
  EXPECT_STREQ(resilience::watchdog_stage_name(WatchdogStage::Cancelled), "cancelled");
  EXPECT_STREQ(resilience::watchdog_stage_name(WatchdogStage::Dumped), "dumped");
}

// ---- validated env knobs --------------------------------------------------

class EnvKnobs : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::global_log().set_capture([this](const std::string& line) {
      lines_.push_back(line);
    });
  }
  void TearDown() override {
    prof::global_log().set_capture(nullptr);
    ::unsetenv("MSC_COMM_TIMEOUT_MS");
    ::unsetenv("MSC_CKPT_EVERY");
    ::unsetenv("MSC_LOG_LEVEL");
    prof::global_log().configure_from_env();
  }
  bool captured(const std::string& needle) const {
    for (const auto& l : lines_)
      if (l.find(needle) != std::string::npos) return true;
    return false;
  }
  std::vector<std::string> lines_;
};

TEST_F(EnvKnobs, CommTimeoutRejectsGarbageWithOneStructuredLine) {
  ::setenv("MSC_COMM_TIMEOUT_MS", "banana", 1);
  EXPECT_EQ(comm::comm_config_from_env().timeout_ms, 0.0);
  EXPECT_TRUE(captured("invalid_config"));
  EXPECT_TRUE(captured("MSC_COMM_TIMEOUT_MS"));

  lines_.clear();
  ::setenv("MSC_COMM_TIMEOUT_MS", "-5", 1);
  EXPECT_EQ(comm::comm_config_from_env().timeout_ms, 0.0);
  EXPECT_TRUE(captured("invalid_config"));

  lines_.clear();
  ::setenv("MSC_COMM_TIMEOUT_MS", "250", 1);
  EXPECT_EQ(comm::comm_config_from_env().timeout_ms, 250.0);
  EXPECT_TRUE(lines_.empty()) << "valid values must not log";
}

TEST_F(EnvKnobs, CkptEveryRejectsNegativeAndTrailingGarbage) {
  ::setenv("MSC_CKPT_EVERY", "-3", 1);
  EXPECT_EQ(resilience::ckpt_every_from_env(4), 4);
  EXPECT_TRUE(captured("invalid_config"));
  EXPECT_TRUE(captured("MSC_CKPT_EVERY"));

  lines_.clear();
  ::setenv("MSC_CKPT_EVERY", "5x", 1);
  EXPECT_EQ(resilience::ckpt_every_from_env(4), 4);
  EXPECT_TRUE(captured("invalid_config"));

  lines_.clear();
  ::setenv("MSC_CKPT_EVERY", "8", 1);
  EXPECT_EQ(resilience::ckpt_every_from_env(4), 8);
  ::setenv("MSC_CKPT_EVERY", "0", 1);  // 0 = disabled is a legal setting
  EXPECT_EQ(resilience::ckpt_every_from_env(4), 0);
  EXPECT_TRUE(lines_.empty());
}

TEST_F(EnvKnobs, UnknownLogLevelIsRejectedLoudly) {
  ::setenv("MSC_LOG_LEVEL", "chatty", 1);
  prof::global_log().configure_from_env();
  EXPECT_EQ(prof::global_log().level(), prof::LogLevel::Off);
  EXPECT_TRUE(captured("invalid_config"));
  EXPECT_TRUE(captured("MSC_LOG_LEVEL"));

  lines_.clear();
  ::setenv("MSC_LOG_LEVEL", "warn", 1);
  prof::global_log().configure_from_env();
  EXPECT_EQ(prof::global_log().level(), prof::LogLevel::Warn);
}

}  // namespace
}  // namespace msc
