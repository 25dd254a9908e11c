// Plan-exchanger tests (comm/exchange_plan.hpp): direction-list
// construction pins, persistent-workspace reuse, and the global-fill
// matrix (check/halo_fill.hpp) — after every slot is exchanged once, each
// rank's full padded ring (halos, edges and corners) must equal, bit for
// bit, one global grid with the same seeding whose halos
// GridStorage::fill_halo filled, read at the rank's offset.  The matrix
// covers periodic/non-periodic decompositions, odd extents, and
// self/coincident neighbors.  A mismatch engages a greedy shrinker that
// prints the minimal failing configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "check/halo_fill.hpp"
#include "comm/decompose.hpp"
#include "comm/exchange_plan.hpp"
#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "workload/stencils.hpp"

namespace msc::comm {
namespace {

// ---- plan construction pins ---------------------------------------------

TEST(ExchangePlan, InteriorRankHasAllTwentySixDirections) {
  CartDecomp dec({3, 3, 3}, {12, 12, 12});
  const int center = dec.rank_of({1, 1, 1});
  ExchangePlan plan(dec, center, 1);
  EXPECT_EQ(plan.active_count(), 26);
  EXPECT_EQ(plan.diagonal_count(), 20);  // 12 edges + 8 corners
  // 4x4x4 local block, halo 1: faces 6*16, edges 12*4, corners 8*1.
  EXPECT_EQ(plan.total_elems(), 6 * 16 + 12 * 4 + 8 * 1);
}

TEST(ExchangePlan, TwoDInteriorHasEightDirections) {
  CartDecomp dec({3, 3}, {9, 9});
  ExchangePlan plan(dec, dec.rank_of({1, 1}), 1);
  EXPECT_EQ(plan.active_count(), 8);
  EXPECT_EQ(plan.diagonal_count(), 4);
}

TEST(ExchangePlan, CornerRankKeepsOnlyInwardDirections) {
  // Non-periodic 2x2x2: every rank sits in a global corner, so exactly the
  // 7 directions pointing at the opposite octant survive compaction.
  CartDecomp dec({2, 2, 2}, {8, 8, 8});
  for (int r = 0; r < dec.size(); ++r) {
    ExchangePlan plan(dec, r, 1);
    EXPECT_EQ(plan.active_count(), 7) << "rank " << r;
  }
}

TEST(ExchangePlan, PeriodicWrapRestoresFullEnvelope) {
  CartDecomp dec({2, 2}, {8, 8}, {true, true});
  for (int r = 0; r < dec.size(); ++r) {
    ExchangePlan plan(dec, r, 1);
    EXPECT_EQ(plan.active_count(), 8) << "rank " << r;
  }
}

TEST(ExchangePlan, TagsPairUpWithOppositeDirection) {
  CartDecomp dec({3, 3}, {9, 9});
  ExchangePlan plan(dec, dec.rank_of({1, 1}), 1);
  for (const auto& dir : plan.directions()) {
    EXPECT_EQ(dir.send_tag, kPlanTagBase + dir.index);
    EXPECT_EQ(dir.recv_tag, kPlanTagBase + opposite_direction_index(dir.off, plan.ndim()));
  }
}

TEST(PlanWorkspace, ArenasPersistAcrossExchanges) {
  // Persistent buffers are the point: after the first exchange sizes the
  // arenas, further exchanges must not reallocate them.
  auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, {4, 4}, 1, 1);
  CartDecomp dec({2, 2}, {8, 8});
  SimWorld world(4);
  world.run([&](RankCtx& ctx) {
    exec::GridStorage<double> g(tensor);
    g.fill_halo(0, exec::Boundary::ZeroHalo);
    ExchangePlan plan(dec, ctx.rank(), g.halo());
    PlanWorkspace<double> ws;
    exchange_halo_plan(ctx, plan, ws, g, 0);
    const double* send_base = ws.send_arena.data();
    const double* recv_base = ws.recv_arena.data();
    for (int round = 0; round < 3; ++round) exchange_halo_plan(ctx, plan, ws, g, 0);
    EXPECT_EQ(ws.send_arena.data(), send_base) << "send arena reallocated";
    EXPECT_EQ(ws.recv_arena.data(), recv_base) << "recv arena reallocated";
  });
}

// ---- global-fill matrix ----------------------------------------------------

struct HaloCase {
  std::string bench;
  std::array<std::int64_t, 3> grid{0, 0, 0};
  std::vector<int> proc;
  bool periodic = false;

  std::string describe() const {
    std::string s = bench + " grid{";
    for (int d = 0; d < static_cast<int>(proc.size()); ++d)
      s += (d ? "," : "") + std::to_string(grid[static_cast<std::size_t>(d)]);
    s += "} proc{";
    for (int d = 0; d < static_cast<int>(proc.size()); ++d)
      s += (d ? "," : "") + std::to_string(proc[static_cast<std::size_t>(d)]);
    return s + "}" + (periodic ? " periodic" : "");
  }
};

/// The case's global ring, seeded by coordinate, through the global-fill
/// oracle (check/halo_fill.hpp): "" when the exchanger matches everywhere,
/// else the first mismatching point.
std::string first_mismatch(const HaloCase& dc) {
  const auto& info = workload::benchmark(dc.bench);
  auto prog = workload::make_program(info, ir::DataType::f64, dc.grid);
  const auto& state = prog->stencil().state();
  const int ndim = state->ndim();

  std::vector<std::int64_t> global_ext;
  for (int d = 0; d < ndim; ++d) global_ext.push_back(state->extent(d));
  CartDecomp dec(dc.proc, global_ext,
                 std::vector<bool>(static_cast<std::size_t>(ndim), dc.periodic));

  exec::GridStorage<double> global(state);
  for (int slot = 0; slot < global.slots(); ++slot)
    global.for_each_interior([&](std::array<std::int64_t, 3> g) {
      global.at(slot, g) =
          0.001 * static_cast<double>((g[0] * 53 + g[1] * 17 + g[2] * 5 + slot) % 127);
    });
  return check::halo_fill_mismatch(global, dec);
}

/// Greedy shrink: halve grid dims while the case still mismatches; the
/// surviving minimum is the repro worth staring at.
HaloCase shrink_failure(HaloCase dc) {
  const auto& info = workload::benchmark(dc.bench);
  const std::int64_t radius = info.radius;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t d = 0; d < dc.proc.size(); ++d) {
      HaloCase cand = dc;
      // Keep every rank's sub-extent >= halo so the case stays legal.
      const std::int64_t floor_ext = radius * dc.proc[d];
      cand.grid[d] = std::max(floor_ext, dc.grid[d] / 2);
      if (cand.grid[d] < dc.grid[d] && !first_mismatch(cand).empty()) {
        dc = cand;
        shrunk = true;
      }
    }
  }
  return dc;
}

void expect_matches_global_fill(const HaloCase& dc) {
  const std::string miss = first_mismatch(dc);
  if (miss.empty()) return;
  const HaloCase minimal = shrink_failure(dc);
  ADD_FAILURE() << "plan exchanger diverges from the global halo fill\n"
                << "  failing case: " << dc.describe() << ": " << miss << "\n"
                << "  minimal repro: " << minimal.describe() << ": " << first_mismatch(minimal);
}

TEST(ExchangerGlobalFill, OddExtentsNonPeriodic2d) {
  expect_matches_global_fill({"2d9pt_box", {13, 11, 0}, {3, 2}, false});
}

TEST(ExchangerGlobalFill, Periodic2dBox) {
  expect_matches_global_fill({"2d9pt_box", {12, 12, 0}, {2, 2}, true});
}

TEST(ExchangerGlobalFill, WideHaloStar2d) {
  expect_matches_global_fill({"2d9pt_star", {16, 12, 0}, {2, 2}, false});
}

TEST(ExchangerGlobalFill, SelfNeighborOneRankPeriodicDim) {
  // proc {2,1} periodic: dim 1 wraps onto the same rank — the plan's
  // self-message path.
  expect_matches_global_fill({"2d9pt_box", {10, 7, 0}, {2, 1}, true});
}

TEST(ExchangerGlobalFill, CoincidentNeighborsTwoRankPeriodicDim) {
  // 2-rank periodic dims: left and right neighbor coincide, so two
  // distinct messages flow between the same pair on different tags.
  expect_matches_global_fill({"2d9pt_box", {8, 8, 0}, {2, 2}, true});
}

TEST(ExchangerGlobalFill, ThreeDimensionalOddExtents) {
  expect_matches_global_fill({"3d7pt_star", {10, 7, 9}, {2, 1, 2}, false});
}

TEST(ExchangerGlobalFill, ThreeDimensionalPeriodic) {
  expect_matches_global_fill({"3d7pt_star", {8, 6, 8}, {2, 1, 2}, true});
}

TEST(ExchangerGlobalFill, HaloEqualsExtentSlabs) {
  // Radius-2 star over 2-row slabs: the exchanged slab is the whole
  // sub-domain, every cell both sent and received each round.
  expect_matches_global_fill({"2d9pt_star", {4, 6, 0}, {2, 1}, false});
}

}  // namespace
}  // namespace msc::comm
