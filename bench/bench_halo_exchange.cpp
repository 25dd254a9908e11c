// Halo exchanger ledger: the 26-direction plan exchange (persistent
// arenas, preposted receives, single phase covering faces, edges and
// corners) vs the legacy dimension-sequential exchanger (per-dimension
// barriers, per-point staging).  Same simulated-MPI transport, same ranks,
// same data.
//
// The gated metric is `exchange_speedup` — the median of interleaved
// wall-clock ratios over bursts of pure exchange rounds, so the number
// isolates the communication path from stencil compute.  Before any timing
// the two exchangers must produce bit-identical padded rings (halos and
// corners included) from identically seeded rings with every slot
// exchanged once; a wrong exchanger is never timed.  An overlap section
// reruns the plan path through the comm/compute-overlapped driver and
// reports the measured overlap efficiency (hidden comm / total comm) from a
// drain of its flight events.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "prof/timeline.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

using namespace msc;

constexpr int kReps = 7;     // interleaved repetitions, median-of-ratios
constexpr int kRounds = 40;  // exchange rounds per timed burst

struct Row {
  const char* label;
  const char* benchmark;
  std::array<std::int64_t, 3> grid;
  std::vector<int> proc;
  bool periodic;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Workload {
  std::unique_ptr<dsl::Program> prog;
  comm::CartDecomp dec;
};

Workload make_workload(const Row& r) {
  const auto& info = workload::benchmark(r.benchmark);
  auto prog = workload::make_program(info, ir::DataType::f64, r.grid);
  const auto& st = prog->stencil();
  const int ndim = st.state()->ndim();
  std::vector<std::int64_t> global_ext;
  for (int d = 0; d < ndim; ++d) global_ext.push_back(st.state()->extent(d));
  comm::CartDecomp dec(r.proc, global_ext,
                       std::vector<bool>(static_cast<std::size_t>(ndim), r.periodic));
  return {std::move(prog), std::move(dec)};
}

/// Seeds every rank's ring identically (random interior, zero halos),
/// exchanges each slot once with the plan exchanger (`plan`) or the
/// face-sequential one, and returns every rank's full padded ring bytes
/// (all slots) for the bitwise pre-timing gate.
std::vector<std::vector<std::byte>> exchanged_rings(const Workload& w, bool plan) {
  const auto& st = w.prog->stencil();
  const auto& dec = w.dec;
  const int ndim = st.state()->ndim();
  std::vector<std::vector<std::byte>> padded(static_cast<std::size_t>(dec.size()));
  comm::SimWorld world(dec.size());
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<std::int64_t> local_ext;
    for (int d = 0; d < ndim; ++d) local_ext.push_back(dec.local_extent(r, d));
    auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, local_ext, st.state()->halo(),
                                     st.state()->time_window());
    exec::GridStorage<double> local(tensor);
    const comm::ExchangePlan xplan(dec, r, local.halo());
    comm::PlanWorkspace<double> pws;
    comm::ExchangeWorkspace<double> fws;
    for (int s = 0; s < local.slots(); ++s) {
      local.fill_random(s, 7 + static_cast<std::uint64_t>(r * local.slots() + s));
      local.fill_halo(s, exec::Boundary::ZeroHalo);
      if (plan)
        comm::exchange_halo_plan(ctx, xplan, pws, local, s);
      else
        comm::exchange_halo(ctx, dec, local, s, fws);
    }
    auto& out = padded[static_cast<std::size_t>(r)];
    const std::size_t slot_bytes =
        static_cast<std::size_t>(local.padded_points()) * sizeof(double);
    out.resize(static_cast<std::size_t>(local.slots()) * slot_bytes);
    for (int s = 0; s < local.slots(); ++s)
      std::memcpy(out.data() + static_cast<std::size_t>(s) * slot_bytes, local.slot_data(s),
                  slot_bytes);
  });
  return padded;
}

void require_bit_identical(const Row& r, const Workload& w) {
  const auto seq = exchanged_rings(w, /*plan=*/false);
  const auto plan = exchanged_rings(w, /*plan=*/true);
  MSC_CHECK(seq.size() == plan.size()) << r.label << ": rank count mismatch";
  for (std::size_t rank = 0; rank < seq.size(); ++rank)
    MSC_CHECK(seq[rank].size() == plan[rank].size() &&
              std::memcmp(seq[rank].data(), plan[rank].data(), seq[rank].size()) == 0)
        << r.label << ": plan exchanger diverges from the sequential one on rank "
        << rank << "; refusing to time a wrong exchanger";
}

/// Wall time of one burst of `kRounds` pure exchange rounds with the plan
/// exchanger (`plan`) or the face-sequential one (thread spawn included on
/// both sides, so the ratio cancels it).
double time_burst(const Workload& w, bool plan) {
  const auto& st = w.prog->stencil();
  const auto& dec = w.dec;
  const int ndim = st.state()->ndim();
  comm::SimWorld world(dec.size());
  const double t0 = now_seconds();
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<std::int64_t> local_ext;
    for (int d = 0; d < ndim; ++d) local_ext.push_back(dec.local_extent(r, d));
    auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, local_ext, st.state()->halo(),
                                     st.state()->time_window());
    exec::GridStorage<double> local(tensor);
    local.fill_random(0, 7 + static_cast<std::uint64_t>(r));
    local.fill_halo(0, exec::Boundary::ZeroHalo);
    const comm::ExchangePlan xplan(dec, r, local.halo());
    comm::PlanWorkspace<double> pws;
    comm::ExchangeWorkspace<double> fws;
    auto exchange = [&] {
      if (plan)
        comm::exchange_halo_plan(ctx, xplan, pws, local, 0);
      else
        comm::exchange_halo(ctx, dec, local, 0, fws);
    };
    exchange();  // warm-up: size the arenas, fault the pages
    ctx.barrier();
    for (int round = 0; round < kRounds; ++round) exchange();
  });
  return now_seconds() - t0;
}

struct Measured {
  double exchange_speedup = 0.0;
  double seq_rounds_per_s = 0.0;
  double plan_rounds_per_s = 0.0;
  int plan_messages = 0;   ///< busiest rank, per round
  int seq_messages = 0;
  double overlap_efficiency = 0.0;
};

Measured measure(const Row& r) {
  const Workload w = make_workload(r);
  require_bit_identical(r, w);

  std::vector<double> ratios, seq_t, plan_t;
  for (int rep = 0; rep < kReps; ++rep) {
    const double ts = time_burst(w, /*plan=*/false);
    const double tp = time_burst(w, /*plan=*/true);
    ratios.push_back(ts / tp);
    seq_t.push_back(ts);
    plan_t.push_back(tp);
  }

  Measured m;
  m.exchange_speedup = median(ratios);
  m.seq_rounds_per_s = kRounds / median(seq_t);
  m.plan_rounds_per_s = kRounds / median(plan_t);

  const auto& dec = w.dec;
  const int ndim = w.prog->stencil().state()->ndim();
  int busiest = 0;
  for (int rank = 0; rank < dec.size(); ++rank) {
    comm::ExchangePlan plan(dec, rank, w.prog->stencil().state()->halo());
    busiest = std::max(busiest, plan.active_count());
  }
  m.plan_messages = busiest;
  for (int d = 0; d < ndim; ++d)
    if (dec.dims()[static_cast<std::size_t>(d)] > 1 || dec.periodic(d)) m.seq_messages += 2;

  // Overlap section: the overlapped driver's rank-phase flight events; the
  // efficiency is how much of the comm-span union hides under compute.
  auto& flight = prof::global_flight();
  flight.clear();
  {
    const auto& st = w.prog->stencil();
    comm::SimWorld world(dec.size());
    world.run([&](comm::RankCtx& ctx) {
      const int rank = ctx.rank();
      std::vector<std::int64_t> local_ext;
      for (int d = 0; d < ndim; ++d) local_ext.push_back(dec.local_extent(rank, d));
      auto tensor = ir::make_sp_tensor("B", ir::DataType::f64, local_ext,
                                       st.state()->halo(), st.state()->time_window());
      exec::GridStorage<double> local(tensor);
      for (int s = 0; s < local.slots(); ++s)
        local.fill_random(s, 7 + static_cast<std::uint64_t>(rank * local.slots() + s));
      comm::run_distributed_overlapped(ctx, dec, st, local, 1, 3);
    });
  }
  m.overlap_efficiency =
      prof::critical_path(prof::phase_spans(flight.drain())).overlap_efficiency;
  return m;
}

}  // namespace

int main() {
  using namespace msc;
  workload::print_banner(
      "halo exchange — dimension-sequential vs 26-direction plan exchanger",
      "same transport, same data (bit-checked); speedup = median of interleaved ratios");

  prof::global_counters().reset();
  const auto wall0 = std::chrono::steady_clock::now();
  prof::BenchReport report("halo_exchange", "sequential_vs_plan");
  report.set_config("reps", kReps);
  report.set_config("rounds", kRounds);
  report.set_config("dtype", "f64");
  report.set_config("metric", "median_of_interleaved_ratios");

  const Row rows[] = {
      // 3-D brick over 8 ranks: 26 directions vs 6 faces + 3 barriers.
      {"3d7pt_star.r8", "3d7pt_star", {24, 24, 24}, {2, 2, 2}, false},
      // Planar 9-rank grid, the interesting corner-heavy 2-D shape.
      {"2d9pt_box.r9", "2d9pt_box", {96, 96, 0}, {3, 3}, false},
      // Periodic wrap: self/coincident neighbors ride the same plan.
      {"2d9pt_star.r4.periodic", "2d9pt_star", {64, 64, 0}, {2, 2}, true},
  };

  TextTable t({"case", "msgs seq", "msgs plan", "seq rounds/s", "plan rounds/s",
               "exchange speedup", "overlap eff"});
  for (const auto& r : rows) {
    const Measured m = measure(r);
    char seqbuf[32], planbuf[32], ovbuf[32];
    std::snprintf(seqbuf, sizeof seqbuf, "%.1f", m.seq_rounds_per_s);
    std::snprintf(planbuf, sizeof planbuf, "%.1f", m.plan_rounds_per_s);
    std::snprintf(ovbuf, sizeof ovbuf, "%.2f", m.overlap_efficiency);
    t.add_row({r.label, std::to_string(m.seq_messages), std::to_string(m.plan_messages),
               seqbuf, planbuf, workload::fmt_ratio(m.exchange_speedup), ovbuf});

    workload::Json row = workload::Json::object();
    row["benchmark"] = workload::Json::string(r.label);
    row["exchange_speedup"] = workload::Json::number(m.exchange_speedup);
    row["seq_rounds_per_s"] = workload::Json::number(m.seq_rounds_per_s);
    row["plan_rounds_per_s"] = workload::Json::number(m.plan_rounds_per_s);
    row["plan_messages"] = workload::Json::number(static_cast<double>(m.plan_messages));
    row["overlap_efficiency"] = workload::Json::number(m.overlap_efficiency);
    report.add_result(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("the plan exchanger posts every receive up front, packs all directions as\n"
              "strided memcpy rows into one persistent arena, and needs no inter-dimension\n"
              "barriers; corner data arrives in the same phase as faces.\n");

  report.capture_global_counters();
  report.set_wall_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count());
  report.write();
  return 0;
}
