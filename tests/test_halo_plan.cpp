// Plan-exchanger tests (comm/exchange_plan.hpp): direction-list
// construction pins, persistent-workspace reuse, and the differential
// bit-identity matrix — the 26-direction plan exchange must reproduce the
// dimension-sequential exchanger's full padded ring (halos and corners
// included) bit for bit across periodic/non-periodic decompositions, odd
// extents, and self/coincident neighbors.  A differential failure engages a
// greedy shrinker that prints the minimal failing configuration.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
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
    EXPECT_GE(dir.send_tag, kPlanTagBase);  // disjoint from legacy [0, 2*ndim)
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

// ---- differential bit-identity matrix -----------------------------------

struct DiffCase {
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

/// Seeds every ring slot of every rank identically (interior by global
/// coordinate, zero halos), exchanges each slot once with the plan
/// exchanger (`plan`) or the face-sequential one, and returns, per rank,
/// the raw bytes of the whole padded ring — halos and corners included, so
/// any divergence anywhere is caught, not just the interior.
std::vector<std::vector<std::byte>> exchanged_rings(const DiffCase& dc, bool plan) {
  const auto& info = workload::benchmark(dc.bench);
  auto prog = workload::make_program(info, ir::DataType::f64, dc.grid);
  const auto& st = prog->stencil();
  const int ndim = st.state()->ndim();

  std::vector<std::int64_t> global_ext;
  for (int d = 0; d < ndim; ++d) global_ext.push_back(st.state()->extent(d));
  CartDecomp dec(dc.proc, global_ext,
                 std::vector<bool>(static_cast<std::size_t>(ndim), dc.periodic));

  auto seed_value = [](int slot, std::array<std::int64_t, 3> g) {
    return 0.001 * static_cast<double>((g[0] * 53 + g[1] * 17 + g[2] * 5 + slot) % 127);
  };

  std::vector<std::vector<std::byte>> padded(static_cast<std::size_t>(dec.size()));
  SimWorld world(dec.size());
  world.run([&](RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<std::int64_t> local_ext;
    for (int d = 0; d < ndim; ++d) local_ext.push_back(dec.local_extent(r, d));
    auto local_tensor = ir::make_sp_tensor("B", ir::DataType::f64, local_ext,
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);
    std::array<std::int64_t, 3> off{0, 0, 0};
    for (int d = 0; d < ndim; ++d) off[static_cast<std::size_t>(d)] = dec.local_offset(r, d);
    const ExchangePlan xplan(dec, r, local.halo());
    PlanWorkspace<double> pws;
    ExchangeWorkspace<double> fws;
    for (int slot = 0; slot < local.slots(); ++slot) {
      local.for_each_interior([&](std::array<std::int64_t, 3> c) {
        std::array<std::int64_t, 3> g = c;
        for (int d = 0; d < ndim; ++d)
          g[static_cast<std::size_t>(d)] += off[static_cast<std::size_t>(d)];
        local.at(slot, c) = seed_value(slot, g);
      });
      local.fill_halo(slot, exec::Boundary::ZeroHalo);
      if (plan)
        exchange_halo_plan(ctx, xplan, pws, local, slot);
      else
        exchange_halo(ctx, dec, local, slot, fws);
    }

    auto& out = padded[static_cast<std::size_t>(r)];
    const std::size_t slot_bytes =
        static_cast<std::size_t>(local.padded_points()) * sizeof(double);
    out.resize(static_cast<std::size_t>(local.slots()) * slot_bytes);
    for (int slot = 0; slot < local.slots(); ++slot)
      std::memcpy(out.data() + static_cast<std::size_t>(slot) * slot_bytes,
                  local.slot_data(slot), slot_bytes);
  });
  return padded;
}

bool exchangers_agree(const DiffCase& dc) {
  const auto legacy = exchanged_rings(dc, /*plan=*/false);
  const auto plan = exchanged_rings(dc, /*plan=*/true);
  if (legacy.size() != plan.size()) return false;
  for (std::size_t r = 0; r < legacy.size(); ++r) {
    if (legacy[r].size() != plan[r].size() ||
        std::memcmp(legacy[r].data(), plan[r].data(), legacy[r].size()) != 0)
      return false;
  }
  return true;
}

/// Greedy shrink: halve grid dims while the case still disagrees; the
/// surviving minimum is the repro worth staring at.
DiffCase shrink_failure(DiffCase dc) {
  const auto& info = workload::benchmark(dc.bench);
  const std::int64_t radius = info.radius;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t d = 0; d < dc.proc.size(); ++d) {
      DiffCase cand = dc;
      // Keep every rank's sub-extent >= halo so the case stays legal.
      const std::int64_t floor_ext = radius * dc.proc[d];
      cand.grid[d] = std::max(floor_ext, dc.grid[d] / 2);
      if (cand.grid[d] < dc.grid[d] && !exchangers_agree(cand)) {
        dc = cand;
        shrunk = true;
      }
    }
  }
  return dc;
}

void expect_bit_identical(const DiffCase& dc) {
  if (exchangers_agree(dc)) return;
  const DiffCase minimal = shrink_failure(dc);
  ADD_FAILURE() << "plan exchanger diverges from the sequential exchanger\n"
                << "  failing case: " << dc.describe() << "\n"
                << "  minimal repro: " << minimal.describe();
}

TEST(ExchangerDifferential, OddExtentsNonPeriodic2d) {
  expect_bit_identical({"2d9pt_box", {13, 11, 0}, {3, 2}, false});
}

TEST(ExchangerDifferential, Periodic2dBox) {
  expect_bit_identical({"2d9pt_box", {12, 12, 0}, {2, 2}, true});
}

TEST(ExchangerDifferential, WideHaloStar2d) {
  expect_bit_identical({"2d9pt_star", {16, 12, 0}, {2, 2}, false});
}

TEST(ExchangerDifferential, SelfNeighborOneRankPeriodicDim) {
  // proc {2,1} periodic: dim 1 wraps onto the same rank — the plan's
  // self-message path against the legacy same-rank special case.
  expect_bit_identical({"2d9pt_box", {10, 7, 0}, {2, 1}, true});
}

TEST(ExchangerDifferential, CoincidentNeighborsTwoRankPeriodicDim) {
  // 2-rank periodic dims: left and right neighbor coincide, so two
  // distinct messages flow between the same pair on different tags.
  expect_bit_identical({"2d9pt_box", {8, 8, 0}, {2, 2}, true});
}

TEST(ExchangerDifferential, ThreeDimensionalOddExtents) {
  expect_bit_identical({"3d7pt_star", {10, 7, 9}, {2, 1, 2}, false});
}

TEST(ExchangerDifferential, ThreeDimensionalPeriodic) {
  expect_bit_identical({"3d7pt_star", {8, 6, 8}, {2, 1, 2}, true});
}

TEST(ExchangerDifferential, HaloEqualsExtentSlabs) {
  // Radius-2 star over 2-row slabs: the exchanged slab is the whole
  // sub-domain, every cell both sent and received each round.
  expect_bit_identical({"2d9pt_star", {4, 6, 0}, {2, 1}, false});
}

}  // namespace
}  // namespace msc::comm
