// Communication-library tests: the simulated MPI runtime (including the
// post-run stray-message audit), cartesian decomposition, halo exchange
// correctness, distributed-vs-single-node equivalence of the one
// distributed driver (including a differential matrix over it), and the
// analytic network model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <string>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/network_model.hpp"
#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "frontend/spec.hpp"
#include "prof/counters.hpp"
#include "support/error.hpp"
#include "workload/stencils.hpp"

namespace msc::comm {
namespace {

TEST(SimMpi, PingPong) {
  SimWorld world(2);
  world.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const int payload = 41;
      auto s = ctx.isend(1, 0, &payload, sizeof payload);
      int back = 0;
      auto r = ctx.irecv(1, 1, &back, sizeof back);
      ctx.wait(s);
      ctx.wait(r);
      EXPECT_EQ(back, 42);
    } else {
      int got = 0;
      auto r = ctx.irecv(0, 0, &got, sizeof got);
      ctx.wait(r);
      const int reply = got + 1;
      auto s = ctx.isend(0, 1, &reply, sizeof reply);
      ctx.wait(s);
    }
  });
}

TEST(SimMpi, TagsAreMatched) {
  SimWorld world(2);
  world.run([](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      const int a = 1, b = 2;
      ctx.isend(1, /*tag=*/7, &a, sizeof a);
      ctx.isend(1, /*tag=*/9, &b, sizeof b);
    } else {
      int nine = 0, seven = 0;
      // Receive in the opposite order of the sends.
      auto r9 = ctx.irecv(0, 9, &nine, sizeof nine);
      auto r7 = ctx.irecv(0, 7, &seven, sizeof seven);
      ctx.wait(r9);
      ctx.wait(r7);
      EXPECT_EQ(nine, 2);
      EXPECT_EQ(seven, 1);
    }
  });
}

TEST(SimMpi, BarrierSynchronizes) {
  SimWorld world(4);
  std::atomic<int> before{0};
  world.run([&](RankCtx& ctx) {
    before++;
    ctx.barrier();
    EXPECT_EQ(before.load(), 4);  // nobody passes until all arrived
  });
}

TEST(SimMpi, RankExceptionPropagates) {
  SimWorld world(3);
  EXPECT_THROW(world.run([](RankCtx& ctx) {
    if (ctx.rank() == 1) throw Error("rank 1 exploded");
  }),
               Error);
}

TEST(SimMpi, StrayMessageFailsACompletedRun) {
  // Rank 0 sends twice on tag 5, rank 1 receives once: the second message
  // is stray, and run() must name it even though no rank threw.
  SimWorld world(2);
  try {
    world.run([](RankCtx& ctx) {
      int v = 1;
      if (ctx.rank() == 0) {
        ctx.isend(1, 5, &v, sizeof v);
        ctx.isend(1, 5, &v, sizeof v);
      } else {
        auto r = ctx.irecv(0, 5, &v, sizeof v);
        ctx.wait(r);
      }
    });
    FAIL() << "a run that leaves a message undelivered must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("src 0 dst 1 tag 5 seq 1"), std::string::npos) << what;
  }
}

TEST(CartDecomp, CoordsRoundTrip) {
  CartDecomp dec({2, 3, 4}, {16, 18, 20});
  EXPECT_EQ(dec.size(), 24);
  for (int r = 0; r < dec.size(); ++r) EXPECT_EQ(dec.rank_of(dec.coords_of(r)), r);
}

TEST(CartDecomp, NeighborsRespectBoundaries) {
  CartDecomp dec({2, 2}, {8, 8});
  EXPECT_EQ(dec.neighbor(0, 0, -1), -1);       // low edge
  EXPECT_EQ(dec.neighbor(0, 0, +1), dec.rank_of({1, 0}));
  EXPECT_EQ(dec.neighbor(3, 1, +1), -1);       // high edge
}

TEST(CartDecomp, RemainderGoesToLowRanks) {
  CartDecomp dec({3}, {10});
  EXPECT_EQ(dec.local_extent(0, 0), 4);  // 10 = 4 + 3 + 3
  EXPECT_EQ(dec.local_extent(1, 0), 3);
  EXPECT_EQ(dec.local_extent(2, 0), 3);
  EXPECT_EQ(dec.local_offset(0, 0), 0);
  EXPECT_EQ(dec.local_offset(1, 0), 4);
  EXPECT_EQ(dec.local_offset(2, 0), 7);
  // Extents tile the domain exactly.
  std::int64_t total = 0;
  for (int r = 0; r < 3; ++r) total += dec.local_extent(r, 0);
  EXPECT_EQ(total, 10);
}

TEST(CartDecomp, RejectsOversplit) {
  EXPECT_THROW(CartDecomp({8}, {4}), Error);
  EXPECT_THROW(CartDecomp({2, 2}, {8}), Error);
}

TEST(HaloExchange, NeighborValuesArriveBothWays) {
  // 1-D domain of 8 points over 2 ranks; after the exchange, each rank's
  // outer halo must hold the neighbor's edge value.
  auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, {4}, 1, 1);
  CartDecomp dec({2}, {8});
  SimWorld world(2);
  world.run([&](RankCtx& ctx) {
    exec::GridStorage<double> g(tensor);
    for (std::int64_t i = 0; i < 4; ++i)
      g.at(0, {i, 0, 0}) = static_cast<double>(ctx.rank() * 100 + i);
    g.fill_halo(0, exec::Boundary::ZeroHalo);
    const ExchangePlan plan(dec, ctx.rank(), g.halo());
    PlanWorkspace<double> ws;
    exchange_halo_plan(ctx, plan, ws, g, 0);
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(g.at(0, {4, 0, 0}), 100.0);  // rank 1's first point
      EXPECT_DOUBLE_EQ(g.at(0, {-1, 0, 0}), 0.0);   // global edge stays zero
    } else {
      EXPECT_DOUBLE_EQ(g.at(0, {-1, 0, 0}), 3.0);   // rank 0's last point
      EXPECT_DOUBLE_EQ(g.at(0, {4, 0, 0}), 0.0);
    }
  });
}

TEST(HaloExchange, CornersPropagateFor2dBoxStencils) {
  // The exchange must deliver diagonal-neighbor values into the halo
  // corners (needed by box stencils).
  auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, {3, 3}, 1, 1);
  CartDecomp dec({2, 2}, {6, 6});
  SimWorld world(4);
  world.run([&](RankCtx& ctx) {
    exec::GridStorage<double> g(tensor);
    g.for_each_interior([&](std::array<std::int64_t, 3> c) {
      g.at(0, c) = static_cast<double>(ctx.rank());
    });
    g.fill_halo(0, exec::Boundary::ZeroHalo);
    const ExchangePlan plan(dec, ctx.rank(), g.halo());
    PlanWorkspace<double> ws;
    exchange_halo_plan(ctx, plan, ws, g, 0);
    if (ctx.rank() == 0) {
      // Rank 0's bottom-right halo corner holds rank 3's value.
      EXPECT_DOUBLE_EQ(g.at(0, {3, 3, 0}), 3.0);
    }
  });
}

/// Distributed run vs single-node run: partition a 2-D stencil over a 2x2
/// rank grid, step both, and compare the gathered interior point-for-point.
TEST(DistributedRun, MatchesSingleNodeExecution) {
  const auto& info = workload::benchmark("2d9pt_box");
  const std::array<std::int64_t, 3> grid{12, 12, 0};
  auto prog = workload::make_program(info, ir::DataType::f64, grid);
  const auto& st = prog->stencil();

  // Single-node ground truth.
  exec::GridStorage<double> global(st.state());
  // Seed by *global coordinate* so rank sub-grids can reproduce it.
  auto seed_value = [](std::int64_t t, std::int64_t j, std::int64_t i) {
    return 0.001 * static_cast<double>(t + 1) * static_cast<double>(j * 100 + i + 1);
  };
  for (int back = 0; back < st.time_window() - 1; ++back) {
    const int slot = global.slot_for_time(-back);
    global.for_each_interior([&](std::array<std::int64_t, 3> c) {
      global.at(slot, c) = seed_value(-back, c[0], c[1]);
    });
  }
  exec::run_reference(st, global, 1, 5, exec::Boundary::ZeroHalo);

  // Distributed run over 2x2 ranks.
  CartDecomp dec({2, 2}, {12, 12});
  SimWorld world(4);
  std::array<std::vector<double>, 4> gathered;  // rank -> flat local interior
  world.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor = ir::make_sp_tensor("B", ir::DataType::f64,
                                           {dec.local_extent(r, 0), dec.local_extent(r, 1)},
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);
    const std::int64_t oj = dec.local_offset(r, 0), oi = dec.local_offset(r, 1);
    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int slot = local.slot_for_time(-back);
      local.for_each_interior([&](std::array<std::int64_t, 3> c) {
        local.at(slot, c) = seed_value(-back, oj + c[0], oi + c[1]);
      });
    }
    run_distributed_overlapped(ctx, dec, st, local, 1, 5);
    auto& out = gathered[static_cast<std::size_t>(r)];
    const int slot = local.slot_for_time(5);
    local.for_each_interior(
        [&](std::array<std::int64_t, 3> c) { out.push_back(local.at(slot, c)); });
  });

  // Compare every rank's interior against the global grid.
  for (int r = 0; r < 4; ++r) {
    const std::int64_t oj = dec.local_offset(r, 0), oi = dec.local_offset(r, 1);
    std::size_t n = 0;
    const int slot = global.slot_for_time(5);
    for (std::int64_t j = 0; j < dec.local_extent(r, 0); ++j)
      for (std::int64_t i = 0; i < dec.local_extent(r, 1); ++i, ++n) {
        const double want = global.at(slot, {oj + j, oi + i, 0});
        const double got = gathered[static_cast<std::size_t>(r)][n];
        EXPECT_NEAR(got, want, std::abs(want) * 1e-12 + 1e-15)
            << "rank " << r << " point (" << j << "," << i << ")";
      }
  }
}

TEST(DistributedRun, ThreeDimensionalDecompositionMatches) {
  // 3-D stencil over a 2x1x2 rank grid with uneven splits.
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {10, 7, 9});
  const auto& st = prog->stencil();

  auto seed_value = [](std::int64_t t, std::int64_t k, std::int64_t j, std::int64_t i) {
    return 0.001 * static_cast<double>((k * 61 + j * 13 + i * 3 + t) % 211);
  };
  exec::GridStorage<double> global(st.state());
  for (int back = 0; back < st.time_window() - 1; ++back) {
    const int slot = global.slot_for_time(-back);
    global.for_each_interior([&](std::array<std::int64_t, 3> c) {
      global.at(slot, c) = seed_value(-back, c[0], c[1], c[2]);
    });
  }
  exec::run_reference(st, global, 1, 4, exec::Boundary::ZeroHalo);

  CartDecomp dec({2, 1, 2}, {10, 7, 9});
  SimWorld world(4);
  std::vector<double> worst(4, 0.0);
  world.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor = ir::make_sp_tensor(
        "B", ir::DataType::f64,
        {dec.local_extent(r, 0), dec.local_extent(r, 1), dec.local_extent(r, 2)},
        st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);
    const std::int64_t ok = dec.local_offset(r, 0), oj = dec.local_offset(r, 1),
                       oi = dec.local_offset(r, 2);
    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int slot = local.slot_for_time(-back);
      local.for_each_interior([&](std::array<std::int64_t, 3> c) {
        local.at(slot, c) = seed_value(-back, ok + c[0], oj + c[1], oi + c[2]);
      });
    }
    run_distributed_overlapped(ctx, dec, st, local, 1, 4);
    const int slot = local.slot_for_time(4);
    local.for_each_interior([&](std::array<std::int64_t, 3> c) {
      const double want =
          global.at(global.slot_for_time(4), {ok + c[0], oj + c[1], oi + c[2]});
      worst[static_cast<std::size_t>(r)] =
          std::max(worst[static_cast<std::size_t>(r)], std::abs(local.at(slot, c) - want));
    });
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(worst[static_cast<std::size_t>(r)], 0.0) << r;
}

TEST(OverlappedRun, MatchesPlainDistributedAndSingleNode) {
  // Star stencil: the comm/compute-overlapped driver must agree exactly
  // with the single-node run and overlap the whole interior box.
  const auto& info = workload::benchmark("2d9pt_star");  // radius-2 star
  auto prog = workload::make_program(info, ir::DataType::f64, {16, 16, 0});
  const auto& st = prog->stencil();

  auto seed_value = [](std::int64_t t, std::int64_t gj, std::int64_t gi) {
    return 0.01 * static_cast<double>((gj * 31 + gi * 7 + t) % 97);
  };

  exec::GridStorage<double> global(st.state());
  for (int back = 0; back < st.time_window() - 1; ++back) {
    const int slot = global.slot_for_time(-back);
    global.for_each_interior([&](std::array<std::int64_t, 3> c) {
      global.at(slot, c) = seed_value(-back, c[0], c[1]);
    });
  }
  exec::run_reference(st, global, 1, 5, exec::Boundary::ZeroHalo);

  CartDecomp dec({2, 2}, {16, 16});
  SimWorld world(4);
  std::vector<double> worst(4, 0.0);
  std::vector<std::int64_t> overlapped_points(4, 0);
  world.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor = ir::make_sp_tensor("B", ir::DataType::f64,
                                           {dec.local_extent(r, 0), dec.local_extent(r, 1)},
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);
    const std::int64_t oj = dec.local_offset(r, 0), oi = dec.local_offset(r, 1);
    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int slot = local.slot_for_time(-back);
      local.for_each_interior([&](std::array<std::int64_t, 3> c) {
        local.at(slot, c) = seed_value(-back, oj + c[0], oi + c[1]);
      });
    }
    const auto stats = run_distributed_overlapped(ctx, dec, st, local, 1, 5);
    overlapped_points[static_cast<std::size_t>(r)] = stats.interior_points_overlapped;
    const int slot = local.slot_for_time(5);
    local.for_each_interior([&](std::array<std::int64_t, 3> c) {
      const double want = global.at(global.slot_for_time(5), {oj + c[0], oi + c[1], 0});
      worst[static_cast<std::size_t>(r)] =
          std::max(worst[static_cast<std::size_t>(r)], std::abs(local.at(slot, c) - want));
    });
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(worst[static_cast<std::size_t>(r)], 0.0) << "rank " << r;
    // 8x8 sub-grid, radius 2: (8-4)^2 = 16 interior cells per step x 5.
    EXPECT_EQ(overlapped_points[static_cast<std::size_t>(r)], 16 * 5);
  }
}

TEST(OverlappedRun, BoxStencilsOverlapViaPlanExchange) {
  // The 26-direction plan exchange delivers halo corners in the same phase
  // as faces, so box stencils — which read diagonal neighbors — are now
  // overlappable too.  Corner-dependent 2x2 decomposition against the
  // single-node reference, exact match required.
  const auto& info = workload::benchmark("2d9pt_box");
  auto prog = workload::make_program(info, ir::DataType::f64, {12, 12, 0});
  const auto& st = prog->stencil();

  auto seed_value = [](std::int64_t t, std::int64_t gj, std::int64_t gi) {
    return 0.01 * static_cast<double>((gj * 31 + gi * 7 + t) % 97);
  };
  exec::GridStorage<double> global(st.state());
  for (int back = 0; back < st.time_window() - 1; ++back) {
    const int slot = global.slot_for_time(-back);
    global.for_each_interior([&](std::array<std::int64_t, 3> c) {
      global.at(slot, c) = seed_value(-back, c[0], c[1]);
    });
  }
  exec::run_reference(st, global, 1, 4, exec::Boundary::ZeroHalo);

  CartDecomp dec({2, 2}, {12, 12});
  SimWorld world(4);
  std::vector<double> worst(4, 0.0);
  world.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor = ir::make_sp_tensor("B", ir::DataType::f64,
                                           {dec.local_extent(r, 0), dec.local_extent(r, 1)},
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);
    const std::int64_t oj = dec.local_offset(r, 0), oi = dec.local_offset(r, 1);
    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int slot = local.slot_for_time(-back);
      local.for_each_interior([&](std::array<std::int64_t, 3> c) {
        local.at(slot, c) = seed_value(-back, oj + c[0], oi + c[1]);
      });
    }
    run_distributed_overlapped(ctx, dec, st, local, 1, 4);
    const int slot = local.slot_for_time(4);
    local.for_each_interior([&](std::array<std::int64_t, 3> c) {
      const double want = global.at(global.slot_for_time(4), {oj + c[0], oi + c[1], 0});
      worst[static_cast<std::size_t>(r)] =
          std::max(worst[static_cast<std::size_t>(r)], std::abs(local.at(slot, c) - want));
    });
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(worst[static_cast<std::size_t>(r)], 0.0) << r;
}

// ---- overlapped driver: differential matrix -------------------------------

/// Spec text for a star (axis arms) or box stencil of `radius` over `grid`,
/// with a distinct coefficient per offset so a halo taken from the wrong
/// side changes the result.
std::string overlap_spec(std::vector<std::int64_t> grid, int radius, bool box,
                         const char* dtype, int time_terms) {
  const int nd = static_cast<int>(grid.size());
  std::string spec = "name ov\ngrid";
  for (auto e : grid) spec += " " + std::to_string(e);
  spec += "\nhalo " + std::to_string(radius) + "\ndtype " + dtype + "\n";
  int n = 0;
  const auto point = [&](std::array<int, 3> o) {
    spec += "point";
    for (int d = 0; d < nd; ++d) spec += " " + std::to_string(o[static_cast<std::size_t>(d)]);
    spec += " " + std::to_string(0.01 * (++n)) + "\n";
  };
  if (box) {
    const int r2 = nd > 2 ? radius : 0;
    for (int a = -radius; a <= radius; ++a)
      for (int b = -radius; b <= radius; ++b)
        for (int c = -r2; c <= r2; ++c) point({a, b, c});
  } else {
    point({0, 0, 0});
    for (int d = 0; d < nd; ++d)
      for (int k = 1; k <= radius; ++k)
        for (int sign : {-1, 1}) {
          std::array<int, 3> o{0, 0, 0};
          o[static_cast<std::size_t>(d)] = sign * k;
          point(o);
        }
  }
  spec += time_terms == 2 ? "term -1 0.7\nterm -2 0.3\n" : "term -1 1\n";
  return spec;
}

/// Runs run_distributed_overlapped over `proc_dims` against a single-grid
/// exec::run_reference of the same seeded state, and requires every rank's
/// final interior to match bit for bit and its overlapped interior-point
/// count to equal the interior box (cells >= radius from the local
/// boundary) times the step count.
template <typename T>
void expect_overlapped_matches_reference(const std::string& spec, std::vector<int> proc_dims,
                                         bool periodic, std::int64_t steps = 3) {
  SCOPED_TRACE(spec);
  auto prog = frontend::program_from_spec(spec);
  const auto& st = prog->stencil();
  const int nd = st.state()->ndim();
  const std::int64_t r = st.max_radius();
  std::vector<std::int64_t> grid;
  for (int d = 0; d < nd; ++d) grid.push_back(st.state()->extent(d));

  auto seed = [&](exec::GridStorage<T>& g, std::array<std::int64_t, 3> off) {
    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int slot = g.slot_for_time(-back);
      g.for_each_interior([&](std::array<std::int64_t, 3> c) {
        const std::int64_t k = off[0] + c[0], j = off[1] + c[1], i = off[2] + c[2];
        g.at(slot, c) = static_cast<T>(0.001 * static_cast<double>((k * 61 + j * 13 + i * 3 + back) % 211));
      });
    }
  };
  exec::GridStorage<T> global(st.state());
  seed(global, {0, 0, 0});
  exec::run_reference(st, global, 1, steps,
                      periodic ? exec::Boundary::Periodic : exec::Boundary::ZeroHalo);

  CartDecomp dec(proc_dims, grid, std::vector<bool>(proc_dims.size(), periodic));
  SimWorld world(dec.size());
  std::vector<std::int64_t> mismatches(static_cast<std::size_t>(dec.size()), 0);
  std::vector<std::int64_t> overlapped(static_cast<std::size_t>(dec.size()), 0);
  std::vector<std::int64_t> want_overlapped(static_cast<std::size_t>(dec.size()), 0);
  world.run([&](RankCtx& ctx) {
    const int rank = ctx.rank();
    const auto at = static_cast<std::size_t>(rank);
    std::vector<std::int64_t> ext;
    std::array<std::int64_t, 3> off{0, 0, 0};
    std::int64_t interior = steps;
    for (int d = 0; d < nd; ++d) {
      ext.push_back(dec.local_extent(rank, d));
      off[static_cast<std::size_t>(d)] = dec.local_offset(rank, d);
      interior *= std::max<std::int64_t>(0, ext.back() - 2 * r);
    }
    want_overlapped[at] = interior;
    exec::GridStorage<T> local(ir::make_sp_tensor("B", st.state()->dtype(), ext,
                                                  st.state()->halo(), st.state()->time_window()));
    seed(local, off);
    overlapped[at] = run_distributed_overlapped(ctx, dec, st, local, 1, steps)
                         .interior_points_overlapped;
    const int slot = local.slot_for_time(steps);
    const int gslot = global.slot_for_time(steps);
    local.for_each_interior([&](std::array<std::int64_t, 3> c) {
      const T got = local.at(slot, c);
      const T want = global.at(gslot, {off[0] + c[0], off[1] + c[1], off[2] + c[2]});
      mismatches[at] += std::memcmp(&got, &want, sizeof(T)) != 0;
    });
  });
  for (int rank = 0; rank < dec.size(); ++rank) {
    const auto at = static_cast<std::size_t>(rank);
    EXPECT_EQ(mismatches[at], 0) << "rank " << rank;
    EXPECT_EQ(overlapped[at], want_overlapped[at]) << "rank " << rank;
  }
}

TEST(OverlappedRun, ExchangesEachSlotOncePerCall) {
  // Window 3: entry exchanges slot t_begin-2 only (slot t_begin-1 is the
  // first step's in-flight exchange), then each step exchanges one slot,
  // so n steps tick comm.halo.exchanges n + 1 times per rank.
  const auto prog = frontend::program_from_spec(overlap_spec({8, 9}, 1, false, "f64", 2));
  const auto& st = prog->stencil();
  ASSERT_EQ(st.time_window(), 3);
  constexpr std::int64_t kSteps = 4;
  CartDecomp dec({2, 1}, {8, 9});
  SimWorld world(dec.size());
  const std::int64_t before = prof::counter("comm.halo.exchanges").value();
  world.run([&](RankCtx& ctx) {
    exec::GridStorage<double> local(ir::make_sp_tensor(
        "B", ir::DataType::f64, {dec.local_extent(ctx.rank(), 0), 9}, st.state()->halo(),
        st.state()->time_window()));
    run_distributed_overlapped(ctx, dec, st, local, 1, kSteps);
  });
  EXPECT_EQ(prof::counter("comm.halo.exchanges").value() - before, dec.size() * (kSteps + 1));
}

// Decompositions that split the contiguous dimension leave shell slabs one
// or two cells wide there, which the driver sweeps as strided columns.

TEST(OverlappedMatrix, Star3dSplitContiguousPeriodicF64) {
  expect_overlapped_matches_reference<double>(overlap_spec({6, 7, 10}, 1, false, "f64", 2),
                                              {1, 1, 2}, true);
}

TEST(OverlappedMatrix, Star3dTwoSplitsZeroHaloF32) {
  expect_overlapped_matches_reference<float>(overlap_spec({5, 8, 9}, 1, false, "f32", 1),
                                             {1, 2, 2}, false);
}

TEST(OverlappedMatrix, Star3dRadius2SplitContiguousZeroHaloF64) {
  expect_overlapped_matches_reference<double>(overlap_spec({6, 7, 12}, 2, false, "f64", 2),
                                              {1, 1, 2}, false);
}

TEST(OverlappedMatrix, Box3dOver32TermsTakesGenericRoutePeriodicF64) {
  // 27 offsets x 2 time terms = 54 terms: above kMaxFixedTerms.
  const auto spec = overlap_spec({6, 6, 8}, 1, true, "f64", 2);
  const auto prog = frontend::program_from_spec(spec);
  ASSERT_EQ(exec::linearize_stencil(prog->stencil(), prog->bindings())->size(), 54u);
  EXPECT_STREQ(exec::sweep_route(54), "generic");
  expect_overlapped_matches_reference<double>(spec, {2, 2, 2}, true);
}

TEST(OverlappedMatrix, Box3dOver32TermsZeroHaloF32) {
  expect_overlapped_matches_reference<float>(overlap_spec({6, 6, 9}, 1, true, "f32", 2),
                                             {2, 2, 2}, false);
}

TEST(OverlappedMatrix, Star2dRadius2SplitContiguousPeriodicF32) {
  expect_overlapped_matches_reference<float>(overlap_spec({9, 10}, 2, false, "f32", 2), {1, 2},
                                             true);
}

TEST(OverlappedMatrix, Box2dSplitContiguousZeroHaloF64) {
  expect_overlapped_matches_reference<double>(overlap_spec({8, 10}, 1, true, "f64", 2), {1, 2},
                                              false);
}

// Local last-dimension extents <= 2r: the interior is empty and the two
// contiguous-dimension slabs collide.

TEST(OverlappedMatrix, EmptyInteriorCollidingSlabs3dPeriodicF64) {
  // Radius 2 over 3 local cells: low slab [0,2), high slab [2,3).
  expect_overlapped_matches_reference<double>(overlap_spec({6, 6, 6}, 2, false, "f64", 2),
                                              {1, 1, 2}, true);
}

TEST(OverlappedMatrix, EmptyInteriorCollidingSlabs2dZeroHaloF32) {
  // Radius 1 over 2 local cells: both slabs one cell wide.
  expect_overlapped_matches_reference<float>(overlap_spec({7, 4}, 1, true, "f32", 1), {1, 2},
                                             false);
}

TEST(OverlappedMatrix, EmptyInteriorCollidingSlabs3dBoxZeroHaloF64) {
  expect_overlapped_matches_reference<double>(overlap_spec({5, 6, 4}, 1, true, "f64", 2),
                                              {2, 2, 2}, false);
}

// ---- decomposition edge cases -------------------------------------------

/// Distributed-vs-single-node equivalence harness for 2-D benchmarks:
/// seeds both sides by global coordinate, steps `steps` times, and expects
/// the gathered rank interiors to reproduce the global grid exactly.
/// With `periodic` the process grid wraps in both dimensions and the
/// single-node reference runs with wrap-around boundaries.
void expect_distributed_matches_2d(const std::string& bench,
                                   std::array<std::int64_t, 3> grid,
                                   std::vector<int> proc_dims, std::int64_t steps,
                                   bool periodic = false) {
  const auto& info = workload::benchmark(bench);
  auto prog = workload::make_program(info, ir::DataType::f64, grid);
  const auto& st = prog->stencil();
  const auto bc = periodic ? exec::Boundary::Periodic : exec::Boundary::ZeroHalo;

  // Deliberately asymmetric in j vs i so a halo delivered to the wrong
  // side (the coincident-neighbor failure mode) changes the result.
  auto seed_value = [](std::int64_t t, std::int64_t j, std::int64_t i) {
    return 0.001 * static_cast<double>((j * 47 + i * 5 + t) % 139);
  };
  exec::GridStorage<double> global(st.state());
  for (int back = 0; back < st.time_window() - 1; ++back) {
    const int slot = global.slot_for_time(-back);
    global.for_each_interior([&](std::array<std::int64_t, 3> c) {
      global.at(slot, c) = seed_value(-back, c[0], c[1]);
    });
  }
  exec::run_reference(st, global, 1, steps, bc);

  CartDecomp dec(proc_dims, {grid[0], grid[1]},
                 std::vector<bool>(proc_dims.size(), periodic));
  SimWorld world(dec.size());
  std::vector<double> worst(static_cast<std::size_t>(dec.size()), 0.0);
  world.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor = ir::make_sp_tensor("B", ir::DataType::f64,
                                           {dec.local_extent(r, 0), dec.local_extent(r, 1)},
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);
    const std::int64_t oj = dec.local_offset(r, 0), oi = dec.local_offset(r, 1);
    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int slot = local.slot_for_time(-back);
      local.for_each_interior([&](std::array<std::int64_t, 3> c) {
        local.at(slot, c) = seed_value(-back, oj + c[0], oi + c[1]);
      });
    }
    run_distributed_overlapped(ctx, dec, st, local, 1, steps);
    const int slot = local.slot_for_time(steps);
    local.for_each_interior([&](std::array<std::int64_t, 3> c) {
      const double want = global.at(global.slot_for_time(steps), {oj + c[0], oi + c[1], 0});
      worst[static_cast<std::size_t>(r)] =
          std::max(worst[static_cast<std::size_t>(r)], std::abs(local.at(slot, c) - want));
    });
  });
  for (int r = 0; r < dec.size(); ++r)
    EXPECT_EQ(worst[static_cast<std::size_t>(r)], 0.0) << bench << " rank " << r;
}

TEST(DecompositionEdge, NonPowerOfTwoRankGrid) {
  // 3x2 = 6 ranks with uneven splits along both dimensions (13 = 5+4+4,
  // 11 = 6+5): remainder handling and neighbor lookup off the power-of-two
  // happy path.
  expect_distributed_matches_2d("2d9pt_box", {13, 11, 0}, {3, 2}, 4);
}

TEST(DecompositionEdge, OneCellWideSubdomains) {
  // 4 ranks over 5 rows: ranks 1-3 own a single 1-cell-wide row slab, so
  // their sent face IS their whole interior and both faces overlap.
  CartDecomp dec({4}, {5});
  EXPECT_EQ(dec.local_extent(0, 0), 2);
  for (int r = 1; r < 4; ++r) EXPECT_EQ(dec.local_extent(r, 0), 1);
  expect_distributed_matches_2d("2d9pt_box", {5, 6, 0}, {4, 1}, 3);
}

TEST(DecompositionEdge, HaloWidthEqualsLocalExtent) {
  // Radius-2 star over 2 ranks of 2 rows each: the exchanged halo slab is
  // exactly as thick as the owning sub-domain, so every interior cell is
  // both sent and received in one exchange.
  const auto& info = workload::benchmark("2d9pt_star");
  ASSERT_EQ(workload::make_program(info, ir::DataType::f64, {4, 6, 0})
                ->stencil()
                .state()
                ->halo(),
            2);
  CartDecomp dec({2}, {4});
  EXPECT_EQ(dec.local_extent(0, 0), 2);  // == halo width
  expect_distributed_matches_2d("2d9pt_star", {4, 6, 0}, {2, 1}, 3);
}

// ---- periodic decompositions --------------------------------------------

TEST(PeriodicDecomp, NeighborWrapsAndCoincides) {
  // 1x2 periodic grid: rank 0's left AND right neighbor along the split
  // dimension are both rank 1 (coincident neighbors); along the 1-rank
  // dimension every rank is its own neighbor.
  CartDecomp dec({1, 2}, {8, 8}, {true, true});
  EXPECT_TRUE(dec.periodic(0));
  EXPECT_EQ(dec.neighbor(0, 1, -1), 1);
  EXPECT_EQ(dec.neighbor(0, 1, +1), 1);
  EXPECT_EQ(dec.neighbor(1, 1, -1), 0);
  EXPECT_EQ(dec.neighbor(1, 1, +1), 0);
  EXPECT_EQ(dec.neighbor(0, 0, -1), 0);  // self along the 1-rank dim
  EXPECT_EQ(dec.neighbor(0, 0, +1), 0);

  // Non-periodic dims still report the domain edge.
  CartDecomp open({1, 2}, {8, 8});
  EXPECT_FALSE(open.periodic(1));
  EXPECT_EQ(open.neighbor(0, 1, -1), -1);
  EXPECT_EQ(open.neighbor(1, 1, +1), -1);

  // A 4-rank periodic ring wraps only at the ends.
  CartDecomp ring({4}, {16}, {true});
  EXPECT_EQ(ring.neighbor(0, 0, -1), 3);
  EXPECT_EQ(ring.neighbor(3, 0, +1), 0);
  EXPECT_EQ(ring.neighbor(1, 0, -1), 0);
  EXPECT_EQ(ring.neighbor(1, 0, +1), 2);
}

TEST(PeriodicDecomp, RejectsPeriodicSizeMismatch) {
  EXPECT_THROW(CartDecomp({2, 2}, {8, 8}, {true}), Error);
}

TEST(PeriodicDecomp, DistributedMatchesPeriodicReference) {
  // Regression: periodic decompositions used to be inexpressible — every
  // boundary rank saw -1 neighbors and kept Dirichlet halos, so wrap-around
  // problems could not be distributed at all.  2x2 wraps both dimensions.
  expect_distributed_matches_2d("2d9pt_box", {12, 10, 0}, {2, 2}, 4, /*periodic=*/true);
}

TEST(PeriodicDecomp, CoincidentNeighborRanksExchangeBothFaces) {
  // The 1x2 wrap makes each rank send its low AND high face to the same
  // peer; the face tags must keep the two messages apart or the halos land
  // on the wrong side (caught by the asymmetric seeding).
  expect_distributed_matches_2d("2d9pt_box", {10, 12, 0}, {1, 2}, 3, /*periodic=*/true);
}

TEST(PeriodicDecomp, SelfNeighborExchangesOwnFaces) {
  // A 1-rank periodic dimension exchanges with itself: the rank's own low
  // face must arrive in its own high halo and vice versa — equivalent to
  // the single-node periodic fill.
  expect_distributed_matches_2d("2d9pt_star", {8, 9, 0}, {1, 1}, 3, /*periodic=*/true);
}

TEST(PeriodicDecomp, ThreeDimensionalBoxMatchesSingleGridWrap) {
  // A 27-point box reads every face, edge and corner of the halo.  The
  // single-grid periodic fill and a fully periodic 1-rank run, which wraps
  // through the exchange plan's self-neighbour path, are independent
  // implementations of the same wrap: their interiors must agree bit for
  // bit.  Coefficients differ per offset so a halo taken from the wrong
  // side changes the result.
  std::string spec = "name box3d27\ngrid 6 5 7\nhalo 1\ndtype f64\n";
  int n = 0;
  for (int k = -1; k <= 1; ++k)
    for (int j = -1; j <= 1; ++j)
      for (int i = -1; i <= 1; ++i)
        spec += "point " + std::to_string(k) + " " + std::to_string(j) + " " +
                std::to_string(i) + " " + std::to_string(0.01 * (++n)) + "\n";
  spec += "term -1 0.7\nterm -2 0.3\ntile 2 3 4\n";
  auto prog = frontend::program_from_spec(spec);
  const auto& st = prog->stencil();
  constexpr std::int64_t kSteps = 5;

  auto seed = [&](exec::GridStorage<double>& g) {
    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int slot = g.slot_for_time(-back);
      g.for_each_interior([&](std::array<std::int64_t, 3> c) {
        g.at(slot, c) =
            0.001 * static_cast<double>((c[0] * 61 + c[1] * 13 + c[2] * 3 + back) % 211);
      });
    }
  };
  exec::GridStorage<double> single(st.state());
  seed(single);
  exec::run_scheduled(st, prog->primary_schedule(), single, 1, kSteps, exec::Boundary::Periodic);

  CartDecomp dec({1, 1, 1}, {6, 5, 7}, {true, true, true});
  SimWorld world(1);
  std::vector<double> got;
  world.run([&](RankCtx& ctx) {
    exec::GridStorage<double> local(st.state());
    seed(local);
    run_distributed_overlapped(ctx, dec, st, local, 1, kSteps);
    got = local.interior_values(local.slot_for_time(kSteps));
  });
  const auto want = single.interior_values(single.slot_for_time(kSteps));
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0);
}

TEST(NetworkModel, AsyncBeatsCentralized) {
  CartDecomp dec({4, 4}, {1024, 1024});
  const auto net = tianhe3_network();
  const auto async = halo_exchange_cost(net, dec, 1, 8, /*centralized=*/false);
  const auto central = halo_exchange_cost(net, dec, 1, 8, /*centralized=*/true);
  EXPECT_LT(async.seconds, central.seconds);
}

TEST(NetworkModel, CentralizedGapGrowsWithRankCount) {
  const auto net = tianhe3_network();
  CartDecomp small({2, 2}, {1024, 1024});
  CartDecomp large({8, 8}, {1024, 1024});
  const double gap_small = halo_exchange_cost(net, small, 1, 8, true).seconds /
                           halo_exchange_cost(net, small, 1, 8, false).seconds;
  const double gap_large = halo_exchange_cost(net, large, 1, 8, true).seconds /
                           halo_exchange_cost(net, large, 1, 8, false).seconds;
  // Physis's master bottleneck worsens with scale (paper §5.5).
  EXPECT_GT(gap_large, gap_small);
}

TEST(NetworkModel, HaloVolumeScalesWithRadius) {
  CartDecomp dec({4, 4}, {1024, 1024});
  const auto net = sunway_network();
  const auto r1 = halo_exchange_cost(net, dec, 1, 8);
  const auto r5 = halo_exchange_cost(net, dec, 5, 8);
  EXPECT_NEAR(static_cast<double>(r5.bytes_per_rank) /
                  static_cast<double>(r1.bytes_per_rank),
              5.0, 1e-9);
}

// ---- topology-aware rank mapping ----------------------------------------

TEST(RankMap, LinearPacksInRankOrder) {
  CartDecomp dec({4, 4}, {64, 64});
  Topology topo;
  topo.ranks_per_node = 4;
  topo.sockets_per_node = 2;
  RankMap map(dec, topo, MapStrategy::Linear);
  EXPECT_EQ(map.node_of(0), 0);
  EXPECT_EQ(map.node_of(3), 0);
  EXPECT_EQ(map.node_of(4), 1);
  EXPECT_EQ(map.socket_of(0), 0);
  EXPECT_EQ(map.socket_of(2), 1);  // second socket of node 0
  EXPECT_EQ(map.socket_of(4), 2);  // first socket of node 1
}

TEST(RankMap, HierarchicalFormsCompactBlocks) {
  // 4 ranks/node over a 4x4 grid: the greedy factor split must carve 2x2
  // node bricks, so each block's four ranks share a node.
  CartDecomp dec({4, 4}, {64, 64});
  Topology topo;
  topo.ranks_per_node = 4;
  RankMap map(dec, topo, MapStrategy::Hierarchical);
  EXPECT_EQ(map.node_block()[0], 2);
  EXPECT_EQ(map.node_block()[1], 2);
  EXPECT_EQ(map.node_of(dec.rank_of({0, 0})), map.node_of(dec.rank_of({1, 1})));
  EXPECT_NE(map.node_of(dec.rank_of({0, 0})), map.node_of(dec.rank_of({0, 2})));
}

TEST(PlanExchangeCost, HierarchicalMappingKeepsNeighborsOnNode) {
  // The whole point of topology-aware placement: a compact sub-brick block
  // turns most of the 8/26-direction envelope into on-node traffic, which
  // both shrinks the off-node fraction and the modelled exchange time.
  const auto net = tianhe3_network();
  CartDecomp dec({8, 8}, {1024, 1024});
  const RankMap lin(dec, net.topology, MapStrategy::Linear);
  const RankMap hier(dec, net.topology, MapStrategy::Hierarchical);
  const auto cl = plan_exchange_cost(net, dec, 1, 8, lin);
  const auto ch = plan_exchange_cost(net, dec, 1, 8, hier);
  EXPECT_LT(ch.off_node_fraction, cl.off_node_fraction);
  EXPECT_LT(ch.seconds, cl.seconds);
}

TEST(PlanExchangeCost, CoversFullDirectionEnvelope) {
  const auto net = sunway_network();
  CartDecomp dec3({4, 4, 4}, {256, 256, 256});
  const RankMap map3(dec3, net.topology, MapStrategy::Hierarchical);
  EXPECT_EQ(plan_exchange_cost(net, dec3, 1, 8, map3).messages_per_rank, 26);
  CartDecomp dec2({4, 4}, {1024, 1024});
  const RankMap map2(dec2, net.topology, MapStrategy::Hierarchical);
  EXPECT_EQ(plan_exchange_cost(net, dec2, 1, 8, map2).messages_per_rank, 8);
}

}  // namespace
}  // namespace msc::comm
