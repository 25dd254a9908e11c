// Ablation — asynchronous vs master-coordinated halo exchange across rank
// counts (the design choice §4.4 credits for beating Physis, and the
// pluggability argument of the communication library).

#include <chrono>
#include <cstdio>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/network_model.hpp"
#include "comm/simmpi.hpp"
#include "exec/grid.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

int main() {
  using namespace msc;
  workload::print_banner(
      "Ablation — asynchronous vs centralized halo exchange",
      "context for §4.4/§5.5: the async library's advantage grows with "
      "rank count; a centralized (Physis-style) runtime serializes");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("ablation_comm", "halo_exchange");

  const auto net = comm::tianhe3_network();
  TextTable t({"ranks (2-D grid)", "async / step", "centralized / step", "centralized penalty"});
  for (int side : {2, 4, 8, 16, 32}) {
    comm::CartDecomp dec({side, side}, {8192, 8192});
    const auto async = comm::halo_exchange_cost(net, dec, 2, 8, /*centralized=*/false);
    const auto central = comm::halo_exchange_cost(net, dec, 2, 8, /*centralized=*/true);
    t.add_row({strprintf("%d (%dx%d)", side * side, side, side),
               workload::fmt_seconds(async.seconds), workload::fmt_seconds(central.seconds),
               workload::fmt_ratio(central.seconds / async.seconds)});

    workload::Json row = workload::Json::object();
    row["ranks"] = workload::Json::integer(side * side);
    row["async_seconds"] = workload::Json::number(async.seconds);
    row["centralized_seconds"] = workload::Json::number(central.seconds);
    row["bytes_per_rank"] = workload::Json::integer(async.bytes_per_rank);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("halo width sensitivity (16x16 ranks): bytes/rank scale linearly\n");
  TextTable t2({"stencil radius", "bytes per rank", "async / step"});
  comm::CartDecomp dec({16, 16}, {8192, 8192});
  for (std::int64_t r : {1, 2, 4, 6}) {
    const auto cc = comm::halo_exchange_cost(net, dec, r, 8);
    t2.add_row({std::to_string(r), workload::fmt_bytes(static_cast<double>(cc.bytes_per_rank)),
                workload::fmt_seconds(cc.seconds)});
  }
  std::printf("%s\n", t2.render().c_str());

  // Measured (not modelled) halo traffic: a short simmpi distributed run
  // populates the comm.halo.* counters through the instrumented exchange.
  {
    const auto& info = workload::benchmark("2d9pt_box");
    auto prog = workload::make_program(info, ir::DataType::f64, {24, 24, 0});
    const auto& st = prog->stencil();
    comm::CartDecomp mdec({2, 2}, {24, 24});
    comm::SimWorld world(mdec.size());
    world.run([&](comm::RankCtx& ctx) {
      const int r = ctx.rank();
      auto local_tensor = ir::make_sp_tensor(
          "B", ir::DataType::f64, {mdec.local_extent(r, 0), mdec.local_extent(r, 1)},
          st.state()->halo(), st.state()->time_window());
      exec::GridStorage<double> local(local_tensor);
      for (int s = 0; s < local.slots(); ++s) local.fill_random(s, 11 + r);
      comm::run_distributed_overlapped(ctx, mdec, st, local, 1, 4);
    });
    std::printf("measured simmpi run (2d9pt_box, 24x24 over 2x2 ranks, 4 steps): "
                "%lld halo bytes in %lld messages\n",
                static_cast<long long>(prof::global_counters().value("comm.halo.bytes_sent")),
                static_cast<long long>(prof::global_counters().value("comm.halo.messages")));
  }

  report.set_config("measured_grid", "24x24");
  report.set_config("measured_ranks", "2x2");
  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
