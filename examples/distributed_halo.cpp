// Distributed execution through the MSC communication library (paper §4.4,
// Fig. 6): a 2-D stencil is decomposed over a 2x2 process grid running on
// the in-process simulated MPI runtime, halos are exchanged asynchronously
// each timestep, and the gathered result is verified point-for-point
// against a single-node run.  Also AOT-generates the MPI-guarded C source
// the real cluster build would compile.
//
//   $ ./distributed_halo

#include <cmath>
#include <cstdio>
#include <vector>

#include "comm/halo_exchange.hpp"
#include "dsl/program.hpp"
#include "workload/report.hpp"

int main() {
  using namespace msc;
  using dsl::ExprH;

  const std::int64_t N = 64;
  const std::int64_t kSteps = 20;

  // A 9-point box smoother with two time dependencies.
  dsl::Program prog("dist2d");
  dsl::Var j = prog.var("j"), i = prog.var("i");
  dsl::GridRef U = prog.def_tensor_2d_timewin("U", 2, 1, ir::DataType::f64, N, N);
  dsl::KernelHandle& K = prog.kernel(
      "box", {j, i},
      ExprH(0.2) * U(j, i) +
          ExprH(0.1) * (U(j, i - 1) + U(j, i + 1) + U(j - 1, i) + U(j + 1, i)) +
          ExprH(0.05) * (U(j - 1, i - 1) + U(j - 1, i + 1) + U(j + 1, i - 1) +
                         U(j + 1, i + 1)));
  prog.def_stencil("smooth", U, 0.7 * K[prog.t() - 1] + 0.3 * K[prog.t() - 2]);
  prog.def_shape_mpi({2, 2});
  const auto& st = prog.stencil();

  auto seed_value = [](std::int64_t t, std::int64_t gj, std::int64_t gi) {
    return std::sin(0.1 * static_cast<double>(gj)) * std::cos(0.1 * static_cast<double>(gi)) +
           0.01 * static_cast<double>(t);
  };

  // ---- single-node ground truth --------------------------------------
  exec::GridStorage<double> global(st.state());
  for (int back = 0; back < st.time_window() - 1; ++back) {
    const int slot = global.slot_for_time(-back);
    global.for_each_interior([&](std::array<std::int64_t, 3> c) {
      global.at(slot, c) = seed_value(-back, c[0], c[1]);
    });
  }
  exec::run_reference(st, global, 1, kSteps, exec::Boundary::ZeroHalo);

  // ---- distributed run over 2x2 ranks -----------------------------
  comm::CartDecomp dec({2, 2}, {N, N});
  comm::SimWorld world(dec.size());
  std::vector<double> worst(static_cast<std::size_t>(dec.size()), 0.0);
  std::vector<comm::DistRunStats> stats(static_cast<std::size_t>(dec.size()));

  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    auto local_tensor = ir::make_sp_tensor("U", ir::DataType::f64,
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
    stats[static_cast<std::size_t>(r)] =
        comm::run_distributed_overlapped(ctx, dec, st, local, 1, kSteps);

    const int slot = local.slot_for_time(kSteps);
    local.for_each_interior([&](std::array<std::int64_t, 3> c) {
      const double want = global.at(global.slot_for_time(kSteps), {oj + c[0], oi + c[1], 0});
      worst[static_cast<std::size_t>(r)] =
          std::max(worst[static_cast<std::size_t>(r)], std::abs(local.at(slot, c) - want));
    });
  });

  std::printf("rank | sub-domain | messages sent | bytes sent | max abs diff vs single node\n");
  for (int r = 0; r < dec.size(); ++r) {
    std::printf("  %d  |  %lld x %lld   | %13lld | %10s | %.3e\n", r,
                static_cast<long long>(dec.local_extent(r, 0)),
                static_cast<long long>(dec.local_extent(r, 1)),
                static_cast<long long>(stats[static_cast<std::size_t>(r)].exchange.messages_sent),
                workload::fmt_bytes(static_cast<double>(
                                        stats[static_cast<std::size_t>(r)].exchange.bytes_sent))
                    .c_str(),
                worst[static_cast<std::size_t>(r)]);
  }

  // ---- the code a real cluster would build ---------------------------
  prog.primary_kernel().tile({16, 16}).reorder(
      {"j_outer", "i_outer", "j_inner", "i_inner"});
  prog.compile_to_source_code("c", "msc_generated_mpi");
  std::printf("\nMPI-guarded C source generated under ./msc_generated_mpi "
              "(build with -DMSC_WITH_MPI and mpicc for real clusters)\n");
  return 0;
}
