// Unit + differential tests of the compiled row-sweep engine (exec/sweep):
// lowering coverage/clamping, bit-exact agreement between run_scheduled's
// tiled / pool-parallel / column-swept sweeps and run_reference's serial
// full-row sweep across random conformance cases, the wide-kernel
// (row-accumulator) formulation and the strided column kernel against the
// per-point definition (sweep_point_linear), the one box sweeper
// (sweep_box) on row and column boxes, and the row-based grid primitives'
// order guarantees.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <type_traits>
#include <vector>

#include "check/case_gen.hpp"
#include "check/golden.hpp"
#include "dsl/program.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "exec/sweep.hpp"
#include "exec/temporal_sweep.hpp"
#include "ir/tensor.hpp"
#include "support/rng.hpp"

namespace msc::exec {
namespace {

// ---- lowering ------------------------------------------------------------

TEST(LowerSweep, TilesCoverExtentExactlyOnce) {
  auto prog = std::make_unique<dsl::Program>("cov");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 13, 17);
  auto& k = prog->kernel("k", {j, i}, dsl::ExprH(0.5) * B(j, i));
  k.tile({4, 5}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  prog->def_stencil("st", B, k[prog->t() - 1]);

  const SweepPlan plan = lower_sweep(build_loop_plan(prog->primary_schedule()));
  // 13/4 -> 4 tiles, 17/5 -> 4 tiles.
  EXPECT_EQ(plan.tiles.size(), 16u);
  std::vector<int> hits(13 * 17, 0);
  std::int64_t points = 0;
  for (const auto& t : plan.tiles) {
    EXPECT_LE(t.hi[0], 13);  // remainder clamped at lowering, not at run time
    EXPECT_LE(t.hi[1], 17);
    for (std::int64_t a = t.lo[0]; a < t.hi[0]; ++a)
      for (std::int64_t b = t.lo[1]; b < t.hi[1]; ++b, ++points)
        ++hits[static_cast<std::size_t>(a * 17 + b)];
  }
  EXPECT_EQ(points, 13 * 17);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(LowerSweep, UntiledParallelAxisSplitsIntoBlocks) {
  auto prog = std::make_unique<dsl::Program>("par");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 8, 8);
  auto& k = prog->kernel("k", {j, i}, dsl::ExprH(0.5) * B(j, i));
  k.parallel("j", 4);
  prog->def_stencil("st", B, k[prog->t() - 1]);

  const SweepPlan plan = lower_sweep(build_loop_plan(prog->primary_schedule()));
  EXPECT_TRUE(plan.parallel);
  EXPECT_EQ(plan.tiles.size(), 4u);
  std::int64_t points = 0;
  for (const auto& t : plan.tiles) points += (t.hi[0] - t.lo[0]) * (t.hi[1] - t.lo[1]);
  EXPECT_EQ(points, 8 * 8);
}

TEST(LowerSweep, ThreadsBeyondTripStillCoverEverything) {
  // 3 rows, 8 requested threads: the lowering must not produce empty or
  // overlapping tiles.
  auto prog = std::make_unique<dsl::Program>("overpar");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 3, 5);
  auto& k = prog->kernel("k", {j, i}, dsl::ExprH(0.5) * B(j, i));
  k.parallel("j", 8);
  prog->def_stencil("st", B, k[prog->t() - 1]);

  const SweepPlan plan = lower_sweep(build_loop_plan(prog->primary_schedule()));
  std::int64_t points = 0;
  for (const auto& t : plan.tiles) {
    EXPECT_GT(t.hi[0], t.lo[0]);
    points += (t.hi[0] - t.lo[0]) * (t.hi[1] - t.lo[1]);
  }
  EXPECT_EQ(points, 3 * 5);
}

// ---- scheduled vs reference, bit for bit ---------------------------------

// Runs run_reference (one serial full-row tile per step) and run_scheduled
// (the schedule's tiles, pool and column boxes) from the same seeded state
// and requires bit-identical interiors at the final step.
template <typename T>
void expect_paths_bit_identical(const ir::StencilDef& st, const schedule::Schedule& sched,
                                std::int64_t steps, std::uint64_t seed) {
  GridStorage<T> gr(st.state());
  GridStorage<T> gc(st.state());
  for (int s = 0; s < gr.slots(); ++s) {
    gr.fill_random(s, seed + static_cast<std::uint64_t>(s));
    gc.fill_random(s, seed + static_cast<std::uint64_t>(s));
  }
  run_reference(st, gr, 1, steps, Boundary::ZeroHalo);
  run_scheduled(st, sched, gc, 1, steps, Boundary::ZeroHalo);
  const int fs = gr.slot_for_time(steps);
  const auto vr = gr.interior_values(fs);
  const auto vc = gc.interior_values(fs);
  ASSERT_EQ(vr.size(), vc.size());
  for (std::size_t p = 0; p < vr.size(); ++p) {
    ASSERT_EQ(vr[p], vc[p]) << "first divergence at flat index " << p;
  }
}

TEST(SweepVsReference, RandomConformanceCasesBitIdentical) {
  int ran = 0;
  for (std::uint64_t seed = 1; seed <= 40 && ran < 12; ++seed) {
    const auto spec = check::random_case(seed);
    auto prog = check::build_program(spec);
    if (!linearize_stencil(prog->stencil(), prog->bindings()).has_value()) continue;
    SCOPED_TRACE(check::describe(spec));
    expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(),
                                       spec.timesteps, seed * 97 + 5);
    ++ran;
  }
  EXPECT_GE(ran, 8) << "case generator stopped producing affine cases";
}

TEST(SweepVsReference, RemainderTilesBitIdentical) {
  // Extents deliberately not divisible by the tile in any dimension.
  auto prog = std::make_unique<dsl::Program>("rem");
  auto kvar = prog->var("k"), j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_3d_timewin("B", 2, 1, ir::DataType::f64, 11, 9, 13);
  auto& k = prog->kernel("k", {kvar, j, i},
                         dsl::ExprH(0.4) * B(kvar, j, i) + dsl::ExprH(0.15) * B(kvar - 1, j, i) +
                             dsl::ExprH(0.15) * B(kvar + 1, j, i) +
                             dsl::ExprH(0.15) * B(kvar, j - 1, i) +
                             dsl::ExprH(0.15) * B(kvar, j + 1, i));
  k.tile({4, 4, 8}).reorder({"k_outer", "j_outer", "i_outer", "k_inner", "j_inner", "i_inner"});
  prog->def_stencil("st", B, 0.6 * k[prog->t() - 1] + 0.4 * k[prog->t() - 2]);
  expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(), 3, 11);
}

TEST(SweepVsReference, ParallelThreadsBeyondTripBitIdentical) {
  auto prog = std::make_unique<dsl::Program>("overpar2");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 3, 64);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.5) * B(j, i - 1) + dsl::ExprH(0.5) * B(j, i + 1));
  k.parallel("j", 16);
  prog->def_stencil("st", B, k[prog->t() - 1]);
  expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(), 4, 3);
}

TEST(SweepVsReference, DeepTimeWindowBitIdentical) {
  auto prog = std::make_unique<dsl::Program>("deep");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 3, 1, ir::DataType::f64, 12, 12);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.25) * B(j - 1, i) + dsl::ExprH(0.25) * B(j + 1, i) +
                             dsl::ExprH(0.25) * B(j, i - 1) + dsl::ExprH(0.25) * B(j, i + 1));
  k.tile({4, 4}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  prog->def_stencil("st", B,
                    0.5 * k[prog->t() - 1] + 0.3 * k[prog->t() - 2] + 0.2 * k[prog->t() - 3]);
  expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(), 5, 21);
}

TEST(SweepVsReference, Fp32BitIdentical) {
  auto prog = std::make_unique<dsl::Program>("f32sweep");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, 1, ir::DataType::f32, 18, 14);
  auto& k = prog->kernel("k", {j, i},
                         dsl::ExprH(0.5) * B(j, i - 1) + dsl::ExprH(0.5) * B(j, i + 1));
  k.tile({8, 8}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
  prog->def_stencil("st", B, 0.5 * k[prog->t() - 1] + 0.5 * k[prog->t() - 2]);
  expect_paths_bit_identical<float>(prog->stencil(), prog->primary_schedule(), 4, 7);
}

// ---- temporal engine pinned against committed golden checksums ------------

// The golden-matrix programs {3d7pt_star, heat2d} run through the
// per-step sweep engine from a fixed seed; their per-slot interior
// checksums are committed in tests/golden/temporal_pin.txt (hexfloat, so
// the comparison is exact).  The test then reruns both programs through
// the temporal engine at wedge depths 2 and 8 and requires bit-identical
// slots — proving the temporal engine cannot drift from the per-step
// engine's committed outputs.  Regenerate (after a reviewed numeric
// change only) with MSC_UPDATE_TEMPORAL_PIN=1.
TEST(TemporalGoldenPin, EngineMatchesCommittedChecksums) {
  const std::int64_t steps = 8;
  const std::string pin_path = std::string(MSC_GOLDEN_DIR) + "/temporal_pin.txt";

  std::vector<std::string> lines;
  for (const char* name : {"3d7pt_star", "heat2d"}) {
    auto prog = check::golden_program({name, "openmp"});
    const auto& st = prog->stencil();
    const auto& sched = prog->primary_schedule();

    GridStorage<double> base(st.state());
    for (int s = 0; s < base.slots(); ++s)
      base.fill_random(s, 4242 + static_cast<std::uint64_t>(s));
    run_scheduled(st, sched, base, 1, steps, Boundary::ZeroHalo);

    for (std::int64_t depth : {2, 8}) {
      GridStorage<double> temporal(st.state());
      for (int s = 0; s < temporal.slots(); ++s)
        temporal.fill_random(s, 4242 + static_cast<std::uint64_t>(s));
      schedule::Schedule wedged = sched;
      wedged.time_tile(depth);
      ExecInfo info;
      run_scheduled(st, wedged, temporal, 1, steps, Boundary::ZeroHalo, {}, nullptr, {}, &info);
      ASSERT_EQ(info.route, Route::Temporal) << info.fallback_reason;
      for (int s = 0; s < base.slots(); ++s)
        ASSERT_EQ(base.interior_values(s), temporal.interior_values(s))
            << name << " wedge depth " << depth << " slot " << s;
    }

    for (int s = 0; s < base.slots(); ++s) {
      std::ostringstream line;
      line << name << " slot" << s << " " << std::hexfloat << base.interior_checksum(s);
      lines.push_back(line.str());
    }
  }

  if (std::getenv("MSC_UPDATE_TEMPORAL_PIN") != nullptr) {
    std::ofstream out(pin_path);
    out << "# msc-temporal-pin-v1: per-slot interior checksums (hexfloat) of the\n"
           "# per-step sweep engine on the golden-matrix programs, seed 4242,\n"
           "# 8 timesteps.  The temporal engine must reproduce them bit for bit;\n"
           "# regenerate with MSC_UPDATE_TEMPORAL_PIN=1 after a reviewed change.\n";
    for (const auto& l : lines) out << l << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << pin_path;
    GTEST_SKIP() << "temporal pin regenerated at " << pin_path;
  }

  std::ifstream in(pin_path);
  ASSERT_TRUE(in.good()) << "missing " << pin_path
                         << "; regenerate with MSC_UPDATE_TEMPORAL_PIN=1";
  std::vector<std::string> want;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty() && line[0] != '#') want.push_back(line);
  EXPECT_EQ(want, lines) << "numeric drift against the committed temporal pin";
}

// ---- wide kernels (row-accumulator formulation) --------------------------

// Past kFusedTermLimit the span kernel switches to per-term accumulation
// through an in-L1 buffer; results must still match the per-point
// definition (sweep_point_linear) bit for bit.
TEST(SweepRow, WideTermCountsMatchPointLoopBitwise) {
  Rng rng(123);
  const std::int64_t n = 300;  // > kSweepChunk to exercise chunking
  std::vector<double> backing(2048);
  for (auto& v : backing) v = rng.next_real(-1.0, 1.0);

  for (std::size_t nt : {1u, 7u, 16u, 17u, 18u, 31u, 32u, 40u}) {
    std::vector<detail::ResolvedTerm<double>> terms;
    for (std::size_t k = 0; k < nt; ++k)
      terms.push_back({rng.next_real(-1.0, 1.0), static_cast<std::int64_t>(k % 5),
                       backing.data() + 64 + 13 * static_cast<std::int64_t>(k % 9)});
    std::vector<double> a(1024, 0.0), b(1024, 0.0);
    detail::sweep_row(a.data(), 8, n, terms);
    for (std::int64_t i = 0; i < n; ++i) detail::sweep_point_linear(b.data(), 8 + i, terms);
    for (std::int64_t i = 0; i < n + 16; ++i)
      ASSERT_EQ(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)])
          << "nt=" << nt << " i=" << i;
  }
}

// ---- strided column kernel -----------------------------------------------

// sweep_column must reproduce, bit for bit, the one-point rows it stands in
// for, on every fixed-kernel term count and the generic route above them,
// and write nothing but its m strided outputs (the cells between them are
// poisoned and must survive).
template <typename T>
void expect_column_matches_one_point_rows() {
  Rng rng(321);
  std::vector<T> backing(4096);
  for (auto& v : backing) v = static_cast<T>(rng.next_real(-1.0, 1.0));
  const T poison = static_cast<T>(-777.25);
  const std::int64_t base = 5, m = 19;
  for (std::size_t nt = 1; nt <= detail::kMaxFixedTerms + 2; ++nt) {
    std::vector<detail::ResolvedTerm<T>> terms;
    for (std::size_t k = 0; k < nt; ++k)
      terms.push_back({rng.next_real(-1.0, 1.0), static_cast<std::int64_t>(k % 7) - 3,
                       backing.data() + 512 + 17 * static_cast<std::int64_t>(k % 11)});
    for (std::int64_t stride : {1, 2, 7, 26}) {
      std::vector<T> col(600, poison), rows(600, poison);
      detail::sweep_column(col.data(), base, stride, m, terms);
      for (std::int64_t j = 0; j < m; ++j) detail::sweep_row(rows.data(), base + j * stride, 1, terms);
      for (std::size_t i = 0; i < col.size(); ++i) {
        const auto at = static_cast<std::int64_t>(i);
        const bool output = at >= base && (at - base) % stride == 0 && (at - base) / stride < m;
        ASSERT_EQ(std::memcmp(&col[i], &rows[i], sizeof(T)), 0)
            << "nt=" << nt << " stride=" << stride << " i=" << i;
        if (!output) ASSERT_EQ(col[i], poison) << "nt=" << nt << " stride=" << stride << " i=" << i;
        else ASSERT_NE(col[i], poison) << "nt=" << nt << " stride=" << stride << " i=" << i;
      }
    }
  }
}

TEST(SweepColumn, MatchesOnePointRowsBitwiseAndWritesOnlyItsOutputs) {
  expect_column_matches_one_point_rows<float>();
  expect_column_matches_one_point_rows<double>();
}

// ---- the one box sweeper -------------------------------------------------

// sweep_box must reproduce per-point sweep_point_linear bit for bit on
// row-shaped boxes and on boxes thinner than kColumnSweepWidth (which take
// sweep_column), in 1-3 D, on every fixed-kernel term count and the generic
// route above them; it must return the box's point count and write nothing
// outside the box.  Empty boxes return 0 and leave the poison untouched.
template <typename T>
void expect_box_matches_point_loop() {
  constexpr ir::DataType dt = std::is_same_v<T, float> ? ir::DataType::f32 : ir::DataType::f64;
  Rng rng(555);
  const T poison = static_cast<T>(-777.25);
  const std::int64_t halo = 2;
  for (int nd = 1; nd <= 3; ++nd) {
    std::vector<std::int64_t> shape(static_cast<std::size_t>(nd), 9);
    shape.back() = 11;
    GridStorage<T> in(ir::make_sp_tensor("B", dt, shape, halo, 2));
    in.fill_random(0, 77 + static_cast<std::uint64_t>(nd));
    const auto last = static_cast<std::size_t>(nd - 1);

    // Row-shaped (full interior, an offset sub-box), thin in the last
    // dimension (widths 1 and 3: columns from 2-D up), and empty boxes.
    std::vector<SweepTile> boxes;
    SweepTile full;
    for (int d = 0; d < nd; ++d) full.hi[static_cast<std::size_t>(d)] = in.extent(d);
    boxes.push_back(full);
    SweepTile sub = full;
    for (std::size_t d = 0; d <= last; ++d) {
      sub.lo[d] = 1;
      sub.hi[d] -= 2;
    }
    boxes.push_back(sub);
    for (std::int64_t width : {std::int64_t{1}, detail::kColumnSweepWidth - 1}) {
      SweepTile thin = sub;
      thin.lo[last] = 4;
      thin.hi[last] = 4 + width;
      boxes.push_back(thin);
    }
    for (std::size_t d = 0; d <= last; ++d) {
      SweepTile empty = sub;
      empty.hi[d] = empty.lo[d];
      boxes.push_back(empty);
    }

    for (std::size_t nt = 1; nt <= detail::kMaxFixedTerms + 2; ++nt) {
      std::vector<detail::ResolvedTerm<T>> terms;
      for (std::size_t k = 0; k < nt; ++k) {
        std::int64_t delta = 0;
        for (int d = 0; d < nd; ++d) delta += rng.next_int(-halo, halo) * in.stride(d);
        terms.push_back({rng.next_real(-1.0, 1.0), delta, in.slot_data(0)});
      }
      for (const auto& box : boxes) {
        std::vector<T> got(static_cast<std::size_t>(in.padded_points()), poison);
        std::vector<T> want = got;
        std::int64_t points = 0;
        std::array<std::int64_t, 3> c{0, 0, 0};
        for (c[0] = box.lo[0]; c[0] < box.hi[0]; ++c[0])
          for (c[1] = box.lo[1]; c[1] < box.hi[1]; ++c[1])
            for (c[2] = box.lo[2]; c[2] < box.hi[2]; ++c[2], ++points)
              detail::sweep_point_linear(want.data(), in.index(c), terms);
        ASSERT_EQ(detail::sweep_box(in, got.data(), terms, box), points)
            << "nd=" << nd << " nt=" << nt;
        ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0)
            << "nd=" << nd << " nt=" << nt << " box width " << box.hi[last] - box.lo[last];
      }
    }
  }
}

TEST(SweepBox, MatchesPointLoopBitwiseOnRowAndColumnBoxes) {
  expect_box_matches_point_loop<float>();
  expect_box_matches_point_loop<double>();
}

// A schedule that tiles the last dimension below kColumnSweepWidth sends
// every tile through sweep_column; serial and pool-parallel plans must
// stay bit-identical to run_reference's full rows.
TEST(SweepVsReference, ColumnTilesBitIdentical) {
  auto prog = std::make_unique<dsl::Program>("coltile");
  auto kvar = prog->var("k"), j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_3d_timewin("B", 2, 1, ir::DataType::f64, 7, 9, 10);
  auto& k = prog->kernel("k", {kvar, j, i},
                         dsl::ExprH(0.4) * B(kvar, j, i) + dsl::ExprH(0.15) * B(kvar - 1, j, i) +
                             dsl::ExprH(0.15) * B(kvar, j + 1, i) +
                             dsl::ExprH(0.15) * B(kvar, j, i - 1) +
                             dsl::ExprH(0.15) * B(kvar, j, i + 1));
  k.tile({3, 4, 3}).reorder({"k_outer", "j_outer", "i_outer", "k_inner", "j_inner", "i_inner"});
  prog->def_stencil("st", B, 0.6 * k[prog->t() - 1] + 0.4 * k[prog->t() - 2]);
  const SweepPlan plan = lower_sweep(build_loop_plan(prog->primary_schedule()));
  for (const auto& t : plan.tiles) ASSERT_LT(t.hi[2] - t.lo[2], detail::kColumnSweepWidth);
  expect_paths_bit_identical<double>(prog->stencil(), prog->primary_schedule(), 3, 19);

  auto par = std::make_unique<dsl::Program>("coltile_par");
  auto pj = par->var("j"), pi = par->var("i");
  dsl::GridRef P = par->def_tensor_2d_timewin("P", 1, 1, ir::DataType::f32, 16, 11);
  auto& pk = par->kernel("k", {pj, pi},
                         dsl::ExprH(0.5) * P(pj, pi - 1) + dsl::ExprH(0.25) * P(pj + 1, pi) +
                             dsl::ExprH(0.25) * P(pj - 1, pi));
  pk.tile({4, 2}).reorder({"j_outer", "i_outer", "j_inner", "i_inner"}).parallel("j_outer", 4);
  par->def_stencil("st", P, pk[par->t() - 1]);
  expect_paths_bit_identical<float>(par->stencil(), par->primary_schedule(), 4, 23);
}

// ---- non-affine fallback -------------------------------------------------

TEST(RunReference, NonAffineStencilUsesEvalFallback) {
  auto prog = std::make_unique<dsl::Program>("sq");
  auto j = prog->var("j"), i = prog->var("i");
  dsl::GridRef B = prog->def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 6, 6);
  auto& k = prog->kernel("k", {j, i}, B(j, i) * B(j, i));  // non-linear read
  prog->def_stencil("st", B, k[prog->t() - 1]);
  ASSERT_FALSE(linearize_stencil(prog->stencil(), prog->bindings()).has_value());

  GridStorage<double> g(prog->stencil().state());
  g.for_each_interior([&](std::array<std::int64_t, 3> c) { g.at(0, c) = 3.0; });
  run_reference(prog->stencil(), g, 1, 1, Boundary::ZeroHalo);
  const int fs = g.slot_for_time(1);
  g.for_each_interior(
      [&](std::array<std::int64_t, 3> c) { ASSERT_DOUBLE_EQ(g.at(fs, c), 9.0); });
}

// ---- row-based grid primitives -------------------------------------------

TEST(GridRows, FillRandomMatchesPerPointOrder) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {5, 7}, 2, 2);
  GridStorage<double> g(t);
  g.fill_random(0, 42);
  // Hand per-point loop consuming the Rng in for_each_interior order.
  Rng rng(42);
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    ASSERT_EQ(g.at(0, c), rng.next_real(-1.0, 1.0));
  });
}

TEST(GridRows, ChecksumAndValuesMatchPerPointOrder) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 3, 6}, 1, 2);
  GridStorage<double> g(t);
  g.fill_random(1, 9);
  double sum = 0.0;
  std::vector<double> vals;
  g.for_each_interior([&](std::array<std::int64_t, 3> c) {
    sum += g.at(1, c);
    vals.push_back(g.at(1, c));
  });
  EXPECT_EQ(g.interior_checksum(1), sum);  // same order => same rounding
  EXPECT_EQ(g.interior_values(1), vals);
}

TEST(GridRows, ZeroHaloClearsExactlyTheHalo) {
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {4, 5, 6}, 2, 1);
  GridStorage<double> g(t);
  // Poison everything (halo included), then zero the halo.
  double* d = g.slot_data(0);
  for (std::int64_t p = 0; p < g.padded_points(); ++p) d[p] = 7.0;
  g.fill_halo(0, Boundary::ZeroHalo);
  g.for_each_interior(
      [&](std::array<std::int64_t, 3> c) { ASSERT_DOUBLE_EQ(g.at(0, c), 7.0); });
  double total = 0.0;
  for (std::int64_t p = 0; p < g.padded_points(); ++p) total += d[p];
  EXPECT_DOUBLE_EQ(total, 7.0 * 4 * 5 * 6);  // every halo cell is zero
}

TEST(GridStorageCopy, CopyPreservesPayloadBitwise) {
  // Regression: slot payloads live at a page-aligned, address-dependent
  // offset; a byte-for-byte buffer copy silently shifted the data.
  auto t = ir::make_sp_tensor("B", ir::DataType::f64, {9, 11}, 2, 3);
  GridStorage<double> g(t);
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 100 + static_cast<std::uint64_t>(s));
  GridStorage<double> copy = g;
  for (int s = 0; s < g.slots(); ++s)
    EXPECT_EQ(copy.interior_values(s), g.interior_values(s)) << "slot " << s;
  GridStorage<double> assigned(t);
  assigned = g;
  EXPECT_EQ(assigned.interior_values(2), g.interior_values(2));
}

}  // namespace
}  // namespace msc::exec
