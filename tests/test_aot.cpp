// Tests of the AOT dlopen host backend: term-count routing pins, the
// specialized emitter's full-unroll contract, bit-identity against the
// in-process sweep engine (including >16-term box stencils the sweep can
// only run through its generic path), the compile cache's hit/stale/evict
// behavior, dlclose discipline, and the graceful no-compiler fallback.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/case_gen.hpp"
#include "check/oracles.hpp"
#include "codegen/aot_kernel.hpp"
#include "dsl/program.hpp"
#include "exec/aot_backend.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "exec/sweep.hpp"
#include "support/shell.hpp"
#include "workload/stencils.hpp"

namespace msc::exec {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const char* name) {
  const auto dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

// A small double-precision workload program (the paper grids are far too
// large for unit tests).
/// AOT-backend run options over `aot`.
ExecOptions aot_options(const AotOptions& aot) {
  ExecOptions opts;
  opts.backend = HostBackend::Aot;
  opts.aot = aot;
  return opts;
}

std::unique_ptr<dsl::Program> small_benchmark(const std::string& name) {
  const auto& info = workload::benchmark(name);
  const std::array<std::int64_t, 3> small{24, 24, 24};
  return workload::make_program(info, ir::DataType::f64, small);
}

// ---- routing pins --------------------------------------------------------

TEST(AotRouting, SweepRoutePinsTermLimits) {
  // Regression pin for the sweep engine's routing thresholds: the fused
  // kernels stop at 16 term streams, the chunked row-buffer form at 32,
  // and everything beyond interprets the term list (generic).  The AOT
  // backend exists exactly for that third band.
  EXPECT_STREQ(sweep_route(1), "fused");
  EXPECT_STREQ(sweep_route(16), "fused");
  EXPECT_STREQ(sweep_route(17), "chunked");
  EXPECT_STREQ(sweep_route(32), "chunked");
  EXPECT_STREQ(sweep_route(33), "generic");
  EXPECT_STREQ(sweep_route(242), "generic");
}

TEST(AotRouting, BigBoxStencilExceedsEveryFixedTermKernel) {
  // 2d121pt_box: 121 spatial points x 2 time dependencies = 242 linear
  // terms — far past both sweep caps, so the in-process engine must route
  // it generic while the AOT module unrolls it fully.
  auto prog = small_benchmark("2d121pt_box");
  const auto lin = linearize_stencil(prog->stencil(), prog->bindings());
  ASSERT_TRUE(lin.has_value());
  EXPECT_EQ(lin->terms.size(), 242u);
  EXPECT_STREQ(sweep_route(lin->terms.size()), "generic");
}

TEST(AotRouting, AotOracleIsRegistered) {
  const auto& all = check::all_oracles();
  EXPECT_NE(std::find(all.begin(), all.end(), check::Oracle::Aot), all.end());
  const auto parsed = check::oracle_from_name("aot");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, check::Oracle::Aot);
  EXPECT_STREQ(check::oracle_name(check::Oracle::Aot), "aot");
  EXPECT_TRUE(check::oracle_needs_cc(check::Oracle::Aot));
}

// ---- emitter -------------------------------------------------------------

TEST(AotEmitter, UnrollsEveryTermWithConstantExtents) {
  auto prog = small_benchmark("2d121pt_box");
  const auto lin = linearize_stencil(prog->stencil(), prog->bindings());
  ASSERT_TRUE(lin.has_value());
  const auto spec =
      codegen::make_aot_spec(prog->stencil(), prog->primary_schedule(), *lin);
  const std::string src = codegen::gen_aot_kernel(spec);

  // One straight-line accumulation statement per linear term — no term
  // loop, no 16/32 cap.  (The banner comment also says "acc +=", so count
  // the load pattern only term statements contain.)
  EXPECT_EQ(count_occurrences(src, "* (double)in_m"), lin->terms.size());
  // The ABI surface is complete and the geometry is baked in as constants.
  EXPECT_NE(src.find("msc_aot_run"), std::string::npos);
  EXPECT_NE(src.find("msc_aot_padded_points"), std::string::npos);
  EXPECT_NE(src.find("msc_aot_window"), std::string::npos);
  EXPECT_NE(src.find("msc_aot_abi"), std::string::npos);
  EXPECT_NE(src.find("c0 < 24"), std::string::npos) << "interior extent must be a literal";
}

TEST(AotEmitter, SpecPicksUpTimeTileDepth) {
  auto prog = small_benchmark("3d7pt_star");
  prog->primary_kernel().time_tile(4);
  const auto lin = linearize_stencil(prog->stencil(), prog->bindings());
  ASSERT_TRUE(lin.has_value());
  const auto spec =
      codegen::make_aot_spec(prog->stencil(), prog->primary_schedule(), *lin);
  EXPECT_EQ(spec.time_depth, 4);
}

// ---- bit-identity against the sweep engine -------------------------------

// Runs the sweep engine and the AOT module from identically seeded twins
// and requires bit-identical interiors at the final step.
void expect_aot_bit_identical(const std::string& bench, std::int64_t steps,
                              const std::string& cache_dir) {
  SCOPED_TRACE(bench);
  auto prog = small_benchmark(bench);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  GridStorage<double> gs(st.state());
  GridStorage<double> ga(st.state());
  for (int s = 0; s < gs.slots(); ++s) {
    gs.fill_random(s, 42 + static_cast<std::uint64_t>(s));
    ga.fill_random(s, 42 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(st, sched, gs, 1, steps, Boundary::ZeroHalo, prog->bindings());

  AotOptions opts;
  opts.cache_dir = cache_dir;
  ExecInfo info;
  run_scheduled(st, sched, ga, 1, steps, Boundary::ZeroHalo, prog->bindings(), nullptr,
                aot_options(opts), &info);
  ASSERT_EQ(info.route, Route::Aot) << "unexpected fallback: " << info.fallback_reason;

  const int fs_slot = gs.slot_for_time(steps);
  const auto vs = gs.interior_values(fs_slot);
  const auto va = ga.interior_values(fs_slot);
  ASSERT_EQ(vs.size(), va.size());
  for (std::size_t p = 0; p < vs.size(); ++p)
    ASSERT_EQ(vs[p], va[p]) << bench << ": first divergence at flat index " << p;
}

TEST(AotBackend, BitIdenticalToSweepAcrossRoutingBands) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_bits");
  // One benchmark per sweep routing band: fused (<=16 terms), chunked
  // (<=32) and generic (the 242-term box the AOT path is for).
  expect_aot_bit_identical("3d7pt_star", 4, dir);    // 14 terms  -> fused
  expect_aot_bit_identical("3d13pt_star", 4, dir);   // 26 terms  -> chunked
  expect_aot_bit_identical("2d121pt_box", 3, dir);   // 242 terms -> generic
}

TEST(AotBackend, BitIdenticalWithTimeTiledSchedule) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_tt");
  auto prog = small_benchmark("2d9pt_box");
  prog->primary_kernel().time_tile(3);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  GridStorage<double> gs(st.state());
  GridStorage<double> ga(st.state());
  for (int s = 0; s < gs.slots(); ++s) {
    gs.fill_random(s, 7 + static_cast<std::uint64_t>(s));
    ga.fill_random(s, 7 + static_cast<std::uint64_t>(s));
  }
  // 7 steps: two full depth-3 blocks plus a remainder step.
  run_scheduled(st, sched, gs, 1, 7, Boundary::ZeroHalo, prog->bindings());
  AotOptions opts;
  opts.cache_dir = dir;
  ExecInfo info;
  run_scheduled(st, sched, ga, 1, 7, Boundary::ZeroHalo, prog->bindings(), nullptr,
                aot_options(opts), &info);
  ASSERT_EQ(info.route, Route::Aot) << info.fallback_reason;
  const int fs_slot = gs.slot_for_time(7);
  const auto vs = gs.interior_values(fs_slot);
  const auto va = ga.interior_values(fs_slot);
  for (std::size_t p = 0; p < vs.size(); ++p) ASSERT_EQ(vs[p], va[p]) << p;
}

TEST(AotBackend, ProgramRunDispatchesThroughBackendSelector) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto sweep_prog = small_benchmark("2d9pt_star");
  auto aot_prog = small_benchmark("2d9pt_star");
  aot_prog->set_backend(dsl::HostBackend::Aot);
  sweep_prog->input(dsl::GridRef(sweep_prog->stencil().state()), 42);
  aot_prog->input(dsl::GridRef(aot_prog->stencil().state()), 42);
  sweep_prog->run(1, 5);
  aot_prog->run(1, 5);
  ASSERT_TRUE(aot_prog->last_aot_info().aot)
      << aot_prog->last_exec_info().fallback_reason;
  EXPECT_FALSE(aot_prog->last_aot_info().plan_hash.empty());
  for (std::int64_t j = 0; j < 24; ++j)
    for (std::int64_t i = 0; i < 24; ++i)
      ASSERT_EQ(sweep_prog->value_at(5, {j, i, 0}), aot_prog->value_at(5, {j, i, 0}));
}

// ---- compile cache lifecycle ---------------------------------------------

TEST(AotBackend, CacheHitsInMemoryOnDiskAndAcrossPlans) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_cache");
  auto prog = small_benchmark("3d7pt_star");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  AotOptions opts;
  opts.cache_dir = dir;

  // Cold: compiles and dlopens.
  AotExecInfo first;
  std::string why;
  auto mod1 = detail::load_aot_module(st, sched, prog->bindings(), opts, &first, &why);
  ASSERT_NE(mod1, nullptr) << why;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.plan_hash.size(), 16u);
  EXPECT_TRUE(fs::exists(first.module_path));

  // Same plan while the module is live: in-memory hit, same handle.
  AotExecInfo mem;
  auto mod2 = detail::load_aot_module(st, sched, prog->bindings(), opts, &mem, &why);
  ASSERT_EQ(mod2, mod1);
  EXPECT_TRUE(mem.cache_hit);
  EXPECT_EQ(mem.plan_hash, first.plan_hash);

  // Release every handle, reload: on-disk hit (no recompile), fresh dlopen.
  mod1.reset();
  mod2.reset();
  AotExecInfo disk;
  auto mod3 = detail::load_aot_module(st, sched, prog->bindings(), opts, &disk, &why);
  ASSERT_NE(mod3, nullptr) << why;
  EXPECT_TRUE(disk.cache_hit);
  EXPECT_EQ(disk.plan_hash, first.plan_hash);

  // A different plan (different grid -> different baked extents) must land
  // on a different key and compile its own object.
  auto other = workload::make_program(workload::benchmark("3d7pt_star"), ir::DataType::f64,
                                      {20, 20, 20});
  AotExecInfo o;
  auto mod4 = detail::load_aot_module(other->stencil(), other->primary_schedule(),
                                      other->bindings(), opts, &o, &why);
  ASSERT_NE(mod4, nullptr) << why;
  EXPECT_FALSE(o.cache_hit);
  EXPECT_NE(o.plan_hash, first.plan_hash);
}

TEST(AotBackend, StaleCachedObjectIsEvictedAndRebuilt) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_stale");
  auto prog = small_benchmark("2d9pt_star");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  AotOptions opts;
  opts.cache_dir = dir;

  AotExecInfo first;
  std::string why;
  auto mod = detail::load_aot_module(st, sched, prog->bindings(), opts, &first, &why);
  ASSERT_NE(mod, nullptr) << why;
  const std::string so = first.module_path;
  mod.reset();  // release the in-memory handle so the disk path is exercised

  {
    // Corrupt the cached object in place (a truncated/garbage .so stands in
    // for "produced by an older emitter / interrupted write").
    std::ofstream out(so, std::ios::trunc | std::ios::binary);
    out << "not an ELF object";
  }

  AotExecInfo rebuilt;
  auto mod2 = detail::load_aot_module(st, sched, prog->bindings(), opts, &rebuilt, &why);
  ASSERT_NE(mod2, nullptr) << "stale object must be evicted and rebuilt: " << why;
  EXPECT_FALSE(rebuilt.cache_hit) << "a corrupt cache entry must not count as a hit";
  EXPECT_EQ(rebuilt.plan_hash, first.plan_hash);

  // And the rebuilt module still computes the right thing.
  GridStorage<double> gs(st.state());
  GridStorage<double> ga(st.state());
  for (int s = 0; s < gs.slots(); ++s) {
    gs.fill_random(s, 9 + static_cast<std::uint64_t>(s));
    ga.fill_random(s, 9 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(st, sched, gs, 1, 3, Boundary::ZeroHalo, prog->bindings());
  mod2.reset();
  ExecInfo info;
  run_scheduled(st, sched, ga, 1, 3, Boundary::ZeroHalo, prog->bindings(), nullptr,
                aot_options(opts), &info);
  ASSERT_EQ(info.route, Route::Aot) << info.fallback_reason;
  const int fs_slot = gs.slot_for_time(3);
  EXPECT_EQ(gs.interior_values(fs_slot), ga.interior_values(fs_slot));
}

TEST(AotBackend, ForceRecompileBypassesBothCaches) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_force");
  auto prog = small_benchmark("2d9pt_star");
  AotOptions opts;
  opts.cache_dir = dir;
  std::string why;
  AotExecInfo a;
  auto mod = detail::load_aot_module(prog->stencil(), prog->primary_schedule(),
                                     prog->bindings(), opts, &a, &why);
  ASSERT_NE(mod, nullptr) << why;
  opts.force_recompile = true;
  AotExecInfo b;
  auto mod2 = detail::load_aot_module(prog->stencil(), prog->primary_schedule(),
                                      prog->bindings(), opts, &b, &why);
  ASSERT_NE(mod2, nullptr) << why;
  EXPECT_FALSE(b.cache_hit);
  EXPECT_NE(mod2, mod);
}

TEST(AotBackend, ModulesAreDlclosedAtTeardown) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_close");
  const int before = detail::AotModule::live();
  {
    auto prog = small_benchmark("2d9pt_star");
    GridStorage<double> g(prog->stencil().state());
    for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 1);
    AotOptions opts;
    opts.cache_dir = dir;
    ExecInfo info;
    run_scheduled(prog->stencil(), prog->primary_schedule(), g, 1, 2, Boundary::ZeroHalo,
                  prog->bindings(), nullptr, aot_options(opts), &info);
    ASSERT_EQ(info.route, Route::Aot) << info.fallback_reason;
  }
  // run_scheduled holds the module only for the dispatch; nothing else
  // pins it, so the handle count must return to where it started.
  EXPECT_EQ(detail::AotModule::live(), before);
}

// ---- fallback + oracle behavior ------------------------------------------

TEST(AotBackend, FallsBackToSweepWithoutCompiler) {
  auto prog = small_benchmark("2d9pt_star");
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();
  GridStorage<double> gs(st.state());
  GridStorage<double> ga(st.state());
  for (int s = 0; s < gs.slots(); ++s) {
    gs.fill_random(s, 3 + static_cast<std::uint64_t>(s));
    ga.fill_random(s, 3 + static_cast<std::uint64_t>(s));
  }
  run_scheduled(st, sched, gs, 1, 4, Boundary::ZeroHalo, prog->bindings());

  AotOptions opts;
  opts.cc = "msc-no-such-compiler";
  ExecInfo info;
  run_scheduled(st, sched, ga, 1, 4, Boundary::ZeroHalo, prog->bindings(), nullptr,
                aot_options(opts), &info);
  EXPECT_EQ(info.route, Route::Sweep);
  EXPECT_NE(info.fallback_reason.find("no host C compiler"), std::string::npos)
      << info.fallback_reason;
  // The fallback still computes the right answer through run_scheduled.
  const int fs_slot = gs.slot_for_time(4);
  EXPECT_EQ(gs.interior_values(fs_slot), ga.interior_values(fs_slot));
}

TEST(AotBackend, OracleSkipsWithoutCompilerAndFailsOnFallback) {
  const auto spec = check::random_case(1);
  check::OracleOptions opts;
  opts.cc = "msc-no-such-compiler";
  const auto run = check::run_oracle(spec, check::Oracle::Aot, opts);
  EXPECT_TRUE(run.skipped);
  EXPECT_FALSE(run.ok);
}

TEST(AotBackend, OracleMatchesReferenceBitwise) {
  if (!check::compiler_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  check::OracleOptions opts;
  opts.work_dir = scratch_dir("msc_aot_test_oracle");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto spec = check::random_case(seed);
    const auto ref = check::run_oracle(spec, check::Oracle::Reference, opts);
    ASSERT_TRUE(ref.ok) << ref.note;
    const auto aot = check::run_oracle(spec, check::Oracle::Aot, opts);
    ASSERT_TRUE(aot.ok) << "seed " << seed << ": " << aot.note;
    const auto cmp = check::compare_runs(ref, aot, /*max_ulps=*/0);
    EXPECT_TRUE(cmp.match) << "seed " << seed << ": " << cmp.detail;
  }
}

}  // namespace
}  // namespace msc::exec
