// Tests of the AOT dlopen host backend: term-count routing pins, the
// specialized emitter's full-unroll contract, bit-identity against the
// in-process sweep engine (including >16-term box stencils the sweep can
// only run through its generic path, and a dtype x rank x row-shape x
// schedule matrix over the blocked, remainder and row-band paths), the
// compile cache's hit/stale/evict behavior, dlclose discipline, and the
// graceful no-compiler fallback.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/case_gen.hpp"
#include "check/oracles.hpp"
#include "codegen/aot_kernel.hpp"
#include "dsl/program.hpp"
#include "exec/aot_backend.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "exec/sweep.hpp"
#include "prof/flight.hpp"
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

/// Kernel source for 2d121pt_box (242 linear terms) on an n x n f64 grid.
std::string box121_source(std::int64_t n) {
  auto prog = workload::make_program(workload::benchmark("2d121pt_box"), ir::DataType::f64,
                                     {n, n, n});
  const auto lin = linearize_stencil(prog->stencil(), prog->bindings());
  return codegen::gen_aot_kernel(
      codegen::make_aot_spec(prog->stencil(), prog->primary_schedule(), *lin));
}

TEST(AotEmitter, UnrollsEveryTermWithConstantExtents) {
  // 27 = 3 * 8 + 3 points per row: both the blocked loop and the remainder.
  const std::string src = box121_source(27);
  constexpr std::size_t kTerms = 242;

  // Every linear term is a straight-line statement — no term loop, no
  // 16/32 cap — once per accumulator of the 8-point block and once more in
  // the scalar remainder loop.
  EXPECT_EQ(count_occurrences(src, "a0 += "), kTerms);
  EXPECT_EQ(count_occurrences(src, "a1 += "), kTerms);
  EXPECT_EQ(count_occurrences(src, "* msc_ld(&in_m"), 2 * kTerms);
  EXPECT_EQ(count_occurrences(src, "* (double)in_m"), kTerms);
  // The ABI surface is complete, the step takes a dim-0 row range, and the
  // inner geometry is baked in as literals.
  EXPECT_NE(src.find("MSC_EXPORT void msc_aot_rows(void *const *slots_v, long t, long r0, "
                     "long r1)"),
            std::string::npos);
  EXPECT_NE(src.find("MSC_EXPORT void msc_aot_run("), std::string::npos);
  EXPECT_NE(src.find("MSC_EXPORT long msc_aot_padded_points("), std::string::npos);
  EXPECT_NE(src.find("MSC_EXPORT int msc_aot_window("), std::string::npos);
  EXPECT_NE(src.find("MSC_EXPORT int msc_aot_abi("), std::string::npos);
  EXPECT_NE(src.find("for (long c0 = r0; c0 < r1; ++c0)"), std::string::npos);
  EXPECT_NE(src.find("i + 8 <= 27L"), std::string::npos) << "row extent must be a literal";
  EXPECT_NE(src.find("for (; i < 27L; ++i)"), std::string::npos);
  EXPECT_NE(src.find("0L, 27L);"), std::string::npos) << "msc_aot_run covers every row";

  // A literal row extent leaves out the loop that cannot run: no remainder
  // for a multiple of 8 points, no blocked loop under 8.
  const std::string even = box121_source(24);
  EXPECT_EQ(count_occurrences(even, "a0 += "), kTerms);
  EXPECT_EQ(count_occurrences(even, "* (double)in_m"), 0u);
  const std::string narrow = box121_source(7);
  EXPECT_EQ(count_occurrences(narrow, "a0 += "), 0u);
  EXPECT_EQ(count_occurrences(narrow, "* (double)in_m"), kTerms);
}

TEST(AotEmitter, SpecPicksUpTimeTileDepth) {
  auto prog = small_benchmark("3d7pt_star");
  prog->primary_kernel().time_tile(4);
  const auto lin = linearize_stencil(prog->stencil(), prog->bindings());
  ASSERT_TRUE(lin.has_value());
  const std::string src = codegen::gen_aot_kernel(
      codegen::make_aot_spec(prog->stencil(), prog->primary_schedule(), *lin));
  // msc_aot_run unrolls one time_tile block into 4 straight step calls.
  EXPECT_NE(src.find("for (; t + 3L <= t_end; t += 4L)"), std::string::npos);
  for (int k = 0; k < 4; ++k)
    EXPECT_EQ(count_occurrences(src, "msc_aot_step(slots[SLOT(t + " + std::to_string(k) + "L)]"),
              1u)
        << "step " << k;
  EXPECT_EQ(count_occurrences(src, "msc_aot_step(slots[SLOT(t + 4L)]"), 0u);
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

// ---- bit-identity matrix: blocked rows, remainders and row bands ----------

/// Radius-1 star over every dimension, two time dependencies, `row` points
/// in the contiguous dimension.  Dim 0 has 11 (2-D) or 7 (3-D) rows, so a
/// 3-row band height never divides it; a 1-D grid bands the row itself.
ir::StencilPtr star_stencil(int ndim, ir::DataType dt, std::int64_t row) {
  std::vector<std::int64_t> shape;
  if (ndim == 2) shape = {11};
  if (ndim == 3) shape = {7, 4};
  shape.push_back(row);
  const auto B = ir::make_sp_tensor("B", dt, shape, 1, 3);
  const auto axes = ir::default_axes(B);
  const auto at = [&](int dim, std::int64_t off) {
    std::vector<ir::IndexExpr> idx;
    for (int d = 0; d < ndim; ++d)
      idx.push_back({axes[static_cast<std::size_t>(d)].id_var, d == dim ? off : 0});
    return ir::make_access(B, idx);
  };
  const auto mul = [](double c, ir::Expr e) {
    return ir::make_binary(ir::BinaryOp::Mul, ir::make_float(c), std::move(e));
  };
  ir::Expr rhs = mul(0.3, at(0, 0));
  double c = 0.11;
  for (int d = 0; d < ndim; ++d)
    for (std::int64_t off : {-1, 1}) {
      rhs = ir::make_binary(ir::BinaryOp::Add, rhs, mul(c, at(d, off)));
      c += 0.013;
    }
  const auto k = ir::make_kernel("k", ir::make_te_tensor("o", B), axes, rhs);
  return ir::make_stencil("st", B, {{k, -1, 0.7}, {k, -2, 0.3}});
}

/// Reference, sweep and AOT runs of one matrix cell, every ring slot
/// (halos included) compared byte for byte.
template <typename T>
void expect_cell_bit_identical(int ndim, std::int64_t row, bool parallel,
                               const std::string& cache_dir) {
  SCOPED_TRACE(::testing::Message() << ndim << "-D, row " << row
                                    << (parallel ? ", parallel 4" : ", serial"));
  const auto dt = std::is_same_v<T, float> ? ir::DataType::f32 : ir::DataType::f64;
  const auto st = star_stencil(ndim, dt, row);
  schedule::Schedule sched(st->terms().front().kernel);
  if (parallel) {
    // Bands of 3 rows (1-D: two uneven halves of the row) over 4 threads.
    const std::string ax = ir::default_axes(st->state()).front().id_var;
    const std::int64_t height = ndim == 1 ? (row + 1) / 2 : 3;
    sched.split(ax, height, ax + "_outer", ax + "_inner").parallel(ax + "_outer", 4);
  }

  GridStorage<T> ref(st->state()), swept(st->state()), aot(st->state());
  for (int s = 0; s < ref.slots(); ++s) {
    const auto seed = 5 + static_cast<std::uint64_t>(s);
    ref.fill_random(s, seed);
    swept.fill_random(s, seed);
    aot.fill_random(s, seed);
  }
  constexpr std::int64_t kSteps = 3;
  run_reference(*st, ref, 1, kSteps, Boundary::ZeroHalo);
  run_scheduled(*st, sched, swept, 1, kSteps, Boundary::ZeroHalo);
  AotOptions opts;
  opts.cache_dir = cache_dir;
  ExecInfo info;
  run_scheduled(*st, sched, aot, 1, kSteps, Boundary::ZeroHalo, {}, nullptr,
                aot_options(opts), &info);
  ASSERT_EQ(info.route, Route::Aot) << info.fallback_reason;

  const auto bytes = static_cast<std::size_t>(ref.padded_points()) * sizeof(T);
  for (int s = 0; s < ref.slots(); ++s) {
    EXPECT_EQ(std::memcmp(ref.slot_data(s), aot.slot_data(s), bytes), 0) << "aot slot " << s;
    EXPECT_EQ(std::memcmp(ref.slot_data(s), swept.slot_data(s), bytes), 0)
        << "sweep slot " << s;
  }
}

class AotBitMatrix : public ::testing::TestWithParam<std::tuple<ir::DataType, int>> {};

TEST_P(AotBitMatrix, MatchesSweepAndReferenceForEveryRowShape) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const auto [dt, ndim] = GetParam();
  const std::string dir = scratch_dir(
      ("msc_aot_test_matrix_" + ir::dtype_c_name(dt) + std::to_string(ndim)).c_str());
  // Rows of 1-7 points run only the scalar remainder, 8 only the blocked
  // loop, 19 = 2 * 8 + 3 both (and, as 1-D bands [0, 10) and [10, 19), a
  // block that starts off the 8-point grid).
  for (std::int64_t row : {1, 2, 3, 4, 5, 6, 7, 8, 19})
    for (bool parallel : {false, true}) {
      if (dt == ir::DataType::f32) {
        expect_cell_bit_identical<float>(ndim, row, parallel, dir);
      } else {
        expect_cell_bit_identical<double>(ndim, row, parallel, dir);
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    DtypeRank, AotBitMatrix,
    ::testing::Combine(::testing::Values(ir::DataType::f32, ir::DataType::f64),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<AotBitMatrix::ParamType>& p) {
      return ir::dtype_c_name(std::get<0>(p.param)) + "_" +
             std::to_string(std::get<1>(p.param)) + "d";
    });

TEST(AotBackend, RowBandsMatchOneRunCallBitForBit) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const std::string dir = scratch_dir("msc_aot_test_rows");
  auto prog = small_benchmark("2d9pt_box");
  prog->primary_kernel().time_tile(3);  // msc_aot_run unrolls depth-3 blocks
  const auto& st = prog->stencil();
  AotOptions opts;
  opts.cache_dir = dir;
  AotExecInfo ai;
  std::string why;
  const auto mod =
      detail::load_aot_module(st, prog->primary_schedule(), prog->bindings(), opts, &ai, &why);
  ASSERT_NE(mod, nullptr) << why;
  ASSERT_NE(mod->rows, nullptr);

  GridStorage<double> whole(st.state()), banded(st.state());
  std::vector<void*> ws, bs;
  for (int s = 0; s < whole.slots(); ++s) {
    whole.fill_random(s, 17 + static_cast<std::uint64_t>(s));
    banded.fill_random(s, 17 + static_cast<std::uint64_t>(s));
    whole.fill_halo(s, Boundary::ZeroHalo);
    banded.fill_halo(s, Boundary::ZeroHalo);
    ws.push_back(whole.slot_data(s));
    bs.push_back(banded.slot_data(s));
  }
  // Steps 1-7: two unrolled blocks plus a remainder step in one call,
  // against uneven disjoint bands issued last band first.
  mod->run(ws.data(), 1, 7);
  for (long t = 1; t <= 7; ++t)
    for (const auto& [r0, r1] : {std::pair<long, long>{17, 24}, {5, 17}, {0, 5}})
      mod->rows(bs.data(), t, r0, r1);
  const auto bytes = static_cast<std::size_t>(whole.padded_points()) * sizeof(double);
  for (int s = 0; s < whole.slots(); ++s)
    EXPECT_EQ(std::memcmp(whole.slot_data(s), banded.slot_data(s), bytes), 0) << "slot " << s;
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

TEST(AotBackend, ProgramReleasesItsModule) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  const int before = detail::AotModule::live();
  {
    auto prog = small_benchmark("2d9pt_star");
    prog->input(dsl::GridRef(prog->stencil().state()), 42);
    prog->set_backend(dsl::HostBackend::Aot);
    prog->run(1, 2);
    ASSERT_TRUE(prog->last_aot_info().aot) << prog->last_exec_info().fallback_reason;
    // The Program keeps its plan, and with it the module, between runs.
    EXPECT_EQ(detail::AotModule::live(), before + 1);
  }
  EXPECT_EQ(detail::AotModule::live(), before);

  auto prog = small_benchmark("2d9pt_star");
  prog->input(dsl::GridRef(prog->stencil().state()), 42);
  prog->set_backend(dsl::HostBackend::Aot);
  prog->run(1, 2);
  ASSERT_TRUE(prog->last_aot_info().aot) << prog->last_exec_info().fallback_reason;
  prog->set_backend(dsl::HostBackend::Sweep);
  prog->run(3, 4);
  EXPECT_EQ(detail::AotModule::live(), before);
}

TEST(AotBackend, WarmProgramRunsEmitNothing) {
  if (!host_cc_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  auto prog = small_benchmark("2d9pt_star");
  prog->input(dsl::GridRef(prog->stencil().state()), 42);
  prog->set_backend(dsl::HostBackend::Aot);
  auto& flight = prof::global_flight();
  const bool was_enabled = flight.enabled();
  flight.set_enabled(true);
  flight.clear();
  for (std::int64_t t = 1; t <= 20; ++t) prog->run(t, t);
  std::int64_t lowers = 0, emits = 0;
  for (const auto& d : flight.drain())
    for (const auto& e : d.events) {
      lowers += e.kind == prof::FlightKind::Lower ? 1 : 0;
      emits += e.kind == prof::FlightKind::AotEmit ? 1 : 0;
    }
  flight.set_enabled(was_enabled);
  EXPECT_EQ(lowers, 1);
  EXPECT_EQ(emits, 1);
  // Warm runs keep the provenance of the module they reuse.
  const auto& aot = prog->last_aot_info();
  EXPECT_TRUE(aot.aot);
  EXPECT_TRUE(aot.cache_hit);
  EXPECT_EQ(aot.plan_hash.size(), 16u);
  EXPECT_TRUE(prog->last_exec_info().plan_reused);
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
