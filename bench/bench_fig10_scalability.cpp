// Figure 10 — strong (a) and weak (b) scalability of MSC-generated code on
// Sunway TaihuLight (128 -> 1024 CGs) and the prototype Tianhe-3
// (32 -> 256 processors), per the Table-7 configurations.
//
// Paper results: near-ideal scaling everywhere except 2-D stencils under
// strong scaling on Tianhe-3 (halo-exchange congestion); max-scale average
// strong-scaling speedups 6.74x / 5.85x and weak 7.85x / 7.38x over the
// 8x core range.

// On top of the analytic curves, a *measured* section runs the real
// distributed runtime (simulated-MPI threads, 26-direction plan exchanger,
// comm/compute overlap) at 64 / 256 / 1024 ranks weak scaling and writes a
// per-rank phase timeline JSON per scale, plus a topology-mapping table
// comparing Linear vs Hierarchical rank placement in the alpha-beta model.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/network_model.hpp"
#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "machine/cost_model.hpp"
#include "prof/bench_report.hpp"
#include "prof/timeline.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

struct Platform {
  const char* name;
  machine::MachineModel m;
  machine::ImplProfile impl;
  comm::NetworkModel net;
  const char* target;
  int cores_per_rank;
  std::vector<std::vector<int>> grids2d;  // Table 7 MPI grids, 4 scales
  std::vector<std::vector<int>> grids3d;
};

Platform sunway_platform() {
  return {"Sunway TaihuLight",
          machine::sunway_cg(),
          machine::profile_msc_sunway(),
          comm::sunway_network(),
          "sunway",
          65,
          {{16, 8}, {16, 16}, {32, 16}, {32, 32}},
          {{8, 4, 4}, {8, 8, 4}, {8, 8, 8}, {16, 8, 8}}};
}

Platform tianhe3_platform() {
  return {"prototype Tianhe-3",
          machine::matrix_sn(),
          machine::profile_msc_matrix(),
          comm::tianhe3_network(),
          "matrix",
          32,
          {{8, 4}, {8, 8}, {16, 8}, {16, 16}},
          {{4, 4, 2}, {4, 4, 4}, {4, 8, 4}, {8, 8, 4}}};
}

/// Aggregate GFlop/s of one configuration.
double run_gflops(const Platform& plat, const workload::BenchmarkInfo& info,
                  const std::vector<int>& mpi, bool weak) {
  // Weak: every rank keeps the paper sub-grid (4096^2 / 256^3); strong: the
  // global domain of the *first* scale is split over this scale's ranks.
  std::vector<std::int64_t> global;
  const auto& first = (info.ndim == 2 ? (weak ? mpi : plat.grids2d.front())
                                      : (weak ? mpi : plat.grids3d.front()));
  for (int d = 0; d < info.ndim; ++d) {
    const std::int64_t base = info.ndim == 2 ? 4096 : 256;
    global.push_back(base * first[static_cast<std::size_t>(d)]);
  }
  comm::CartDecomp dec(mpi, global);
  std::array<std::int64_t, 3> local{1, 1, 1};
  for (int d = 0; d < info.ndim; ++d)
    local[static_cast<std::size_t>(d)] = dec.local_extent(0, d);

  auto prog = workload::make_program(info, ir::DataType::f64);
  workload::apply_msc_schedule(*prog, info, plat.target);
  const auto kc = machine::estimate_subgrid(plat.m, prog->stencil(), prog->primary_schedule(),
                                            plat.impl, local, 1, true);
  const auto cc = comm::halo_exchange_cost(plat.net, dec, info.radius, 8);
  const double step = kc.seconds_per_step + cc.seconds;
  return static_cast<double>(kc.flops_per_step) * dec.size() / step / 1e9;
}

void scaling_table(const Platform& plat, bool weak) {
  std::printf("-- %s, %s scaling --\n", plat.name, weak ? "weak" : "strong");
  std::vector<std::string> header = {"Benchmark"};
  for (const auto& mpi : plat.grids3d) {
    int ranks = 1;
    for (int d : mpi) ranks *= d;
    header.push_back(strprintf("%d cores", ranks * plat.cores_per_rank));
  }
  header.push_back("speedup@max");
  TextTable t(header);

  std::vector<double> max_speedups;
  for (const auto& info : workload::all_benchmarks()) {
    const auto& grids = info.ndim == 2 ? plat.grids2d : plat.grids3d;
    std::vector<std::string> row = {info.name};
    double first = 0.0, last = 0.0;
    for (const auto& mpi : grids) {
      const double gf = run_gflops(plat, info, mpi, weak);
      if (first == 0.0) first = gf;
      last = gf;
      row.push_back(workload::fmt_gflops(gf));
    }
    row.push_back(workload::fmt_ratio(last / first));
    max_speedups.push_back(last / first);
    t.add_row(row);
  }
  std::printf("%s", t.render().c_str());
  std::printf("average speedup at max scale: %s (ideal 8.00x)\n\n",
              workload::fmt_ratio(workload::geomean(max_speedups)).c_str());
}

/// Topology-mapping comparison in the plan-exchange alpha-beta model:
/// Linear placement (ranks land on nodes in rank order) vs Hierarchical
/// (compact sub-brick node blocks) at the platform's 3-D weak scales.
void mapping_table(const Platform& plat) {
  std::printf("-- %s, rank placement (26-direction plan exchange, 3d7pt weak) --\n",
              plat.name);
  const auto& info = workload::benchmark("3d7pt_star");
  TextTable t({"ranks", "off-node linear", "off-node hier", "t linear", "t hier", "gain"});
  for (const auto& mpi : plat.grids3d) {
    std::vector<std::int64_t> global;
    for (int d = 0; d < 3; ++d)
      global.push_back(256 * mpi[static_cast<std::size_t>(d)]);
    comm::CartDecomp dec(mpi, global);
    const comm::RankMap lin(dec, plat.net.topology, comm::MapStrategy::Linear);
    const comm::RankMap hier(dec, plat.net.topology, comm::MapStrategy::Hierarchical);
    const auto cl = comm::plan_exchange_cost(plat.net, dec, info.radius, 8, lin);
    const auto ch = comm::plan_exchange_cost(plat.net, dec, info.radius, 8, hier);
    t.add_row({std::to_string(dec.size()),
               strprintf("%.0f%%", 100.0 * cl.off_node_fraction),
               strprintf("%.0f%%", 100.0 * ch.off_node_fraction),
               strprintf("%.1f us", cl.seconds * 1e6),
               strprintf("%.1f us", ch.seconds * 1e6),
               workload::fmt_ratio(cl.seconds / ch.seconds)});
  }
  std::printf("%s\n", t.render().c_str());
}

/// Measured weak scaling: real simulated-MPI worlds stepping 3d7pt_star
/// through the overlapped plan-exchange driver, 6^3 points per rank.  Each
/// scale writes a per-rank phase timeline JSON next to the bench reports.
void measured_weak_scaling(prof::BenchReport& report) {
  std::printf("-- measured: simulated-MPI weak scaling, 3d7pt_star, 6^3/rank, "
              "overlapped plan exchange --\n");
  const auto& info = workload::benchmark("3d7pt_star");
  const std::vector<std::vector<int>> scales = {{4, 4, 4}, {8, 8, 4}, {16, 8, 8}};
  TextTable t({"ranks", "wall", "msgs/rank/step", "overlap eff", "timeline"});
  for (const auto& mpi : scales) {
    std::vector<std::int64_t> global;
    for (int d = 0; d < 3; ++d) global.push_back(6 * mpi[static_cast<std::size_t>(d)]);
    auto prog = workload::make_program(info, ir::DataType::f64,
                                       {global[0], global[1], global[2]});
    const auto& st = prog->stencil();
    comm::CartDecomp dec(mpi, global);

    auto& flight = prof::global_flight();
    flight.clear();
    std::atomic<std::int64_t> messages{0};
    comm::SimWorld world(dec.size());
    const auto wall0 = std::chrono::steady_clock::now();
    world.run([&](comm::RankCtx& ctx) {
      const int r = ctx.rank();
      std::vector<std::int64_t> local_ext;
      for (int d = 0; d < 3; ++d) local_ext.push_back(dec.local_extent(r, d));
      auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, local_ext,
                                       st.state()->halo(), st.state()->time_window());
      exec::GridStorage<double> local(tensor);
      for (int s = 0; s < local.slots(); ++s)
        local.fill_random(s, 11 + static_cast<std::uint64_t>(r * local.slots() + s));
      const auto stats = comm::run_distributed_overlapped(ctx, dec, st, local, 1, 2);
      messages.fetch_add(stats.exchange.messages_sent, std::memory_order_relaxed);
    });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
    const auto dumps = flight.drain();
    const auto spans = prof::phase_spans(dumps);
    const auto critical = prof::critical_path(spans);
    const std::string tl_path = prof::bench_report_dir() +
                                strprintf("/TIMELINE_fig10_r%d.json", dec.size());
    workload::write_file(tl_path,
                         prof::timeline_json(spans, prof::dropped_events(dumps)).dump() + "\n");

    const double msgs_per_rank_step =
        static_cast<double>(messages.load()) / dec.size() / 2.0;
    t.add_row({std::to_string(dec.size()), strprintf("%.2f s", wall),
               strprintf("%.1f", msgs_per_rank_step),
               strprintf("%.2f", critical.overlap_efficiency), tl_path});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(strprintf("weak_3d7pt.r%d", dec.size()));
    row["ranks"] = workload::Json::number(static_cast<double>(dec.size()));
    row["wall_seconds"] = workload::Json::number(wall);
    row["messages_per_rank_step"] = workload::Json::number(msgs_per_rank_step);
    row["overlap_efficiency"] = workload::Json::number(critical.overlap_efficiency);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
}

}  // namespace

int main() {
  workload::print_banner(
      "Figure 10 — strong (a) / weak (b) scalability (GFlop/s vs cores)",
      "near-ideal except 2-D strong scaling on Tianhe-3; strong avg "
      "6.74x|5.85x, weak avg 7.85x|7.38x over an 8x core range");
  for (const auto& plat : {sunway_platform(), tianhe3_platform()}) {
    scaling_table(plat, /*weak=*/false);
    scaling_table(plat, /*weak=*/true);
    mapping_table(plat);
  }

  prof::BenchReport report("fig10_measured", "weak_scaling_3d7pt");
  report.set_config("local_grid", "6x6x6");
  report.set_config("timesteps", 2);
  report.set_config("driver", "run_distributed_overlapped");
  const auto wall0 = std::chrono::steady_clock::now();
  measured_weak_scaling(report);
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
