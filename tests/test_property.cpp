// Property-based tests (parameterized sweeps): for randomly drawn stencil
// shapes, tile sizes and loop orders, the scheduled executor must agree
// with the serial reference; for any decomposition, the distributed run
// must agree with the single-node run; the sliding window must preserve
// every retained timestep.

#include <gtest/gtest.h>

#include <cmath>

#include "comm/halo_exchange.hpp"
#include "dsl/program.hpp"
#include "exec/executor.hpp"
#include "support/rng.hpp"

namespace msc {
namespace {

/// A randomly generated affine 2-D stencil program with 2 time deps.
struct RandomStencil {
  std::unique_ptr<dsl::Program> prog;
  std::int64_t n;

  explicit RandomStencil(std::uint64_t seed) {
    Rng rng(seed);
    n = rng.next_int(10, 34);
    const std::int64_t radius = rng.next_int(1, 3);
    prog = std::make_unique<dsl::Program>("random_" + std::to_string(seed));
    dsl::Var j = prog->var("j"), i = prog->var("i");
    dsl::GridRef B = prog->def_tensor_2d_timewin("B", 2, radius, ir::DataType::f64, n, n);

    // Random subset of the (2r+1)^2 box, always including the center.
    dsl::ExprH rhs = dsl::ExprH(rng.next_real(0.1, 0.5)) * B(j, i);
    for (std::int64_t dj = -radius; dj <= radius; ++dj)
      for (std::int64_t di = -radius; di <= radius; ++di) {
        if ((dj == 0 && di == 0) || rng.next_double() < 0.5) continue;
        rhs = rhs + dsl::ExprH(rng.next_real(-0.1, 0.1)) * B(j + dj, i + di);
      }
    auto& k = prog->kernel("k", {j, i}, rhs);

    // Random legal schedule: tile sizes in [2, n], random outer/inner
    // interleaving that keeps inner below its outer, random parallelism.
    const std::int64_t tj = rng.next_int(2, n), ti = rng.next_int(2, n);
    k.tile({tj, ti});
    switch (rng.next_int(0, 2)) {
      case 0:
        k.reorder({"j_outer", "i_outer", "j_inner", "i_inner"});
        break;
      case 1:
        k.reorder({"i_outer", "j_outer", "j_inner", "i_inner"});
        break;
      default:
        k.reorder({"j_outer", "j_inner", "i_outer", "i_inner"});
        break;
    }
    if (rng.next_double() < 0.7)
      k.parallel(rng.next_double() < 0.5 ? "j_outer" : "i_outer",
                 static_cast<int>(rng.next_int(2, 8)));

    prog->def_stencil("st", B,
                      rng.next_real(0.3, 0.8) * k[prog->t() - 1] +
                          rng.next_real(0.1, 0.5) * k[prog->t() - 2]);
  }
};

class RandomScheduleAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomScheduleAgreement, ScheduledEqualsReference) {
  RandomStencil rs(GetParam());
  const auto& st = rs.prog->stencil();
  exec::GridStorage<double> a(st.state()), b(st.state());
  for (int s = 0; s < a.slots(); ++s) {
    a.fill_random(s, GetParam() * 31 + static_cast<std::uint64_t>(s));
    b.fill_random(s, GetParam() * 31 + static_cast<std::uint64_t>(s));
  }
  exec::run_scheduled(st, rs.prog->primary_schedule(), a, 1, 5, exec::Boundary::ZeroHalo);
  exec::run_reference(st, b, 1, 5, exec::Boundary::ZeroHalo);
  EXPECT_EQ(exec::max_relative_error(a, a.slot_for_time(5), b, b.slot_for_time(5)), 0.0)
      << rs.prog->primary_schedule().to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScheduleAgreement,
                         ::testing::Range<std::uint64_t>(1, 21));

class RandomDecomposition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDecomposition, DistributedEqualsSingleNode) {
  Rng rng(GetParam() * 977);
  const std::int64_t nj = rng.next_int(8, 20), ni = rng.next_int(8, 20);
  const int pj = static_cast<int>(rng.next_int(1, 3));
  const int pi = static_cast<int>(rng.next_int(1, 3));
  if (nj < 2 * pj || ni < 2 * pi) GTEST_SKIP();

  dsl::Program prog("dist_prop");
  dsl::Var j = prog.var("j"), i = prog.var("i");
  dsl::GridRef B = prog.def_tensor_2d_timewin("B", 2, 1, ir::DataType::f64, nj, ni);
  auto& k = prog.kernel("k", {j, i},
                        dsl::ExprH(0.3) * B(j, i) + dsl::ExprH(0.2) * B(j - 1, i) +
                            dsl::ExprH(0.2) * B(j + 1, i) + dsl::ExprH(0.1) * B(j, i - 1) +
                            dsl::ExprH(0.1) * B(j, i + 1) + dsl::ExprH(0.05) * B(j - 1, i - 1) +
                            dsl::ExprH(0.05) * B(j + 1, i + 1));
  prog.def_stencil("st", B, 0.6 * k[prog.t() - 1] + 0.4 * k[prog.t() - 2]);
  const auto& st = prog.stencil();

  auto seed_value = [&](std::int64_t t, std::int64_t gj, std::int64_t gi) {
    return std::sin(static_cast<double>(gj * 131 + gi + 7 * t)) * 0.5;
  };

  exec::GridStorage<double> global(st.state());
  for (int back = 0; back < st.time_window() - 1; ++back) {
    const int slot = global.slot_for_time(-back);
    global.for_each_interior([&](std::array<std::int64_t, 3> c) {
      global.at(slot, c) = seed_value(-back, c[0], c[1]);
    });
  }
  exec::run_reference(st, global, 1, 4, exec::Boundary::ZeroHalo);

  comm::CartDecomp dec({pj, pi}, {nj, ni});
  comm::SimWorld world(dec.size());
  std::vector<double> max_err(static_cast<std::size_t>(dec.size()), 0.0);
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor =
        ir::make_sp_tensor("B", ir::DataType::f64,
                           {dec.local_extent(r, 0), dec.local_extent(r, 1)}, 1, 3);
    exec::GridStorage<double> local(local_tensor);
    const std::int64_t oj = dec.local_offset(r, 0), oi = dec.local_offset(r, 1);
    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int slot = local.slot_for_time(-back);
      local.for_each_interior([&](std::array<std::int64_t, 3> c) {
        local.at(slot, c) = seed_value(-back, oj + c[0], oi + c[1]);
      });
    }
    comm::run_distributed_overlapped(ctx, dec, st, local, 1, 4);
    double worst = 0.0;
    const int slot = local.slot_for_time(4);
    local.for_each_interior([&](std::array<std::int64_t, 3> c) {
      const double want = global.at(global.slot_for_time(4), {oj + c[0], oi + c[1], 0});
      worst = std::max(worst, std::abs(local.at(slot, c) - want));
    });
    max_err[static_cast<std::size_t>(r)] = worst;
  });
  for (double e : max_err) EXPECT_LT(e, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDecomposition,
                         ::testing::Range<std::uint64_t>(1, 13));

class WindowDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(WindowDepthSweep, DeepTimeDependenciesStayConsistent) {
  // Stencils reading t-1 .. t-D for D in 1..4: the window must retain all
  // D previous steps and the scheduled run must match the reference.
  const int depth = GetParam();
  dsl::Program prog("deep_" + std::to_string(depth));
  dsl::Var j = prog.var("j"), i = prog.var("i");
  dsl::GridRef B = prog.def_tensor_2d_timewin("B", depth, 1, ir::DataType::f64, 16, 16);
  auto& k = prog.kernel("k", {j, i},
                        dsl::ExprH(0.2) * (B(j, i - 1) + B(j, i + 1)) +
                            dsl::ExprH(0.4) * B(j, i));
  dsl::TermSum sum;
  for (int d = 1; d <= depth; ++d)
    sum.terms.push_back((0.9 / depth) * k[prog.t() - d]);
  prog.def_stencil("st", B, sum);
  EXPECT_EQ(prog.stencil().time_window(), depth + 1);

  prog.input(dsl::GridRef(prog.stencil().state()), 99);
  EXPECT_LT(prog.relative_error_vs_reference(1, depth + 3), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Depths, WindowDepthSweep, ::testing::Range(1, 5));

}  // namespace
}  // namespace msc
