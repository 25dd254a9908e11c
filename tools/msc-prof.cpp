// msc-prof — workload profiler over the functional simulators.
//
// Runs a named Table-4 benchmark through the Sunway core-group simulator
// (and optionally a simulated-MPI distributed pass), then prints a
// roofline-style counter summary and dumps a chrome://tracing JSON file
// loadable at chrome://tracing or https://ui.perfetto.dev.  The trace and
// the per-rank timeline are derived from one drain of the always-on flight
// recorder plus the CG simulator's simulated-time spans.
//
//   $ msc-prof 3d7pt_star
//   $ msc-prof 2d9pt_box --grid 64x64 --steps 8 --ranks 2x2
//   $ msc-prof 3d7pt_star --trace trace.json --json
//
// --attribute switches to the *measured* host roofline: the named
// benchmarks (default 3d7pt_star, 2d9pt_star, 3d13pt_star) run for real on
// all three host engines (sweep, temporal, AOT) with the flight recorder
// armed, and every run is joined against the analytic FLOP/byte walk of
// its lowered plan plus the probed host roofs (machine/probe.hpp):
//
//   $ msc-prof --attribute
//   $ msc-prof --attribute 3d7pt_star --steps 8 --grid 96x96x96

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/network_model.hpp"
#include "comm/simmpi.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"
#include "machine/probe.hpp"
#include "prof/attribution.hpp"
#include "prof/bench_report.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/timeline.hpp"
#include "sunway/cg_sim.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "tune/tuner.hpp"
#include "workload/report.hpp"
#include "workload/stencils.hpp"

namespace {

void usage() {
  std::printf(
      "usage: msc-prof <benchmark> [options]\n"
      "       msc-prof --attribute [benchmarks...] [options]\n"
      "  --grid JxI[xK]   grid extents (default 64x64 / 32x32x32)\n"
      "  --steps <n>      timesteps to simulate (default 4)\n"
      "  --fp32           single-precision state (default fp64)\n"
      "  --ranks AxB[xC]  also run a simmpi distributed pass (halo counters)\n"
      "  --periodic       make the rank grid periodic in every dimension\n"
      "  --trace <file>   chrome://tracing output (default msc_prof_trace.json)\n"
      "  --timeline <file> write the per-rank phase timeline (msc-timeline-v1)\n"
      "  --json           also write BENCH_prof_<benchmark>.json\n"
      "  --explain-tune   run the auto-tuner instead and explain the winning\n"
      "                   schedule via the regression model's feature weights\n"
      "  --processes <n>  MPI process count for --explain-tune (default 8)\n"
      "  --attribute      measured host roofline: run the benchmarks on the\n"
      "                   sweep/temporal/AOT host engines with the flight\n"
      "                   recorder armed and attribute analytic FLOPs/bytes\n"
      "                   (default set: 3d7pt_star 2d9pt_star 3d13pt_star)\n"
      "  --attr-out <f>   markdown output for --attribute (attribution.md)\n"
      "  --attr-json <f>  msc-attr-v1 output for --attribute (attribution.json)\n"
      "  --time-depth <n> wedge depth for the temporal engine rows (default 4)\n"
      "  --list           list the benchmark names and exit\n");
}

std::vector<std::int64_t> parse_dims(const std::string& s) {
  std::vector<std::int64_t> out;
  for (const auto& part : msc::split(s, 'x')) out.push_back(std::atoll(part.c_str()));
  return out;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A wrapped flight ring means every analysis of the drain undercounts.
void warn_if_dropped(const std::vector<msc::prof::FlightThreadDump>& dumps,
                     const std::string& what) {
  if (const auto dropped = msc::prof::dropped_events(dumps))
    std::fprintf(stderr,
                 "msc-prof: warning: %s: %llu flight events dropped (a ring wrapped); "
                 "phase totals and the critical path undercount\n",
                 what.c_str(), static_cast<unsigned long long>(dropped));
}

/// One attributed run of `name` on one host engine: warm up (pool spin-up,
/// AOT compile), clear the flight recorder, run for real, drain, join.
msc::prof::AttributionRow attribute_one(const std::string& name, msc::exec::Route route,
                                        std::array<std::int64_t, 3> grid,
                                        std::int64_t steps, std::int64_t time_depth,
                                        const msc::machine::MachineModel& host) {
  using namespace msc;
  const auto& info = workload::benchmark(name);
  auto prog = workload::make_program(info, ir::DataType::f64, grid);
  workload::apply_msc_schedule(*prog, info, "cpu");
  if (route == exec::Route::Temporal) prog->primary_kernel().time_tile(time_depth);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  exec::GridStorage<double> g(st.state());
  for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 7);

  exec::ExecOptions opts;
  if (route == exec::Route::Aot) opts.backend = exec::HostBackend::Aot;
  exec::ExecInfo taken;
  const auto run = [&](std::int64_t tb, std::int64_t te) {
    exec::run_scheduled(st, sched, g, tb, te, exec::Boundary::ZeroHalo, {}, nullptr, opts,
                        &taken);
  };

  run(1, 1);  // warm-up step
  auto& flight = prof::global_flight();
  flight.clear();
  const double t0 = now_seconds();
  run(1, steps);
  const double wall = now_seconds() - t0;

  const auto dumps = flight.drain();
  warn_if_dropped(dumps, name + " (" + exec::route_name(route) + ")");
  const auto phases = prof::bucket_phases(dumps, wall);
  const auto cost = prof::attribute_plan(st, sched, route, sizeof(double), 1, steps);
  auto row = prof::attribute_run(name, route, cost, phases, host);
  row.ran = taken.route == route;
  row.note = taken.fallback_reason;
  return row;
}

int run_attribution(std::vector<std::string> names, const std::vector<std::int64_t>& grid_arg,
                    std::int64_t steps, std::int64_t time_depth, const std::string& md_path,
                    const std::string& json_path) {
  using namespace msc;
  if (names.empty()) names = {"3d7pt_star", "2d9pt_star", "3d13pt_star"};

  workload::print_banner(
      "msc-prof --attribute — measured host roofline",
      "analytic FLOPs/bytes from the lowered plan x flight-recorder phase time");
  std::printf("probing host roofs (triad bandwidth + muladd peak)...\n");
  const auto host = machine::host_measured_model();
  std::fflush(stdout);

  std::vector<prof::AttributionRow> rows;
  for (const auto& name : names) {
    const auto& info = workload::benchmark(name);
    std::array<std::int64_t, 3> grid = info.ndim == 2
                                           ? std::array<std::int64_t, 3>{512, 512, 0}
                                           : std::array<std::int64_t, 3>{64, 64, 64};
    for (std::size_t d = 0; d < grid_arg.size() && d < 3; ++d)
      if (grid_arg[d] > 0) grid[d] = grid_arg[d];
    for (const auto route : {exec::Route::Sweep, exec::Route::Temporal, exec::Route::Aot})
      rows.push_back(attribute_one(name, route, grid, steps, time_depth, host));
  }

  const std::string md = prof::attribution_markdown(rows, host);
  std::printf("\n%s", md.c_str());
  workload::write_file(md_path, md);
  workload::write_file(json_path, prof::attribution_json(rows, host).dump());
  std::printf("\nwrote %s and %s\n", md_path.c_str(), json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msc;

  std::string bench_name;
  std::vector<std::string> extra_names;
  std::vector<std::int64_t> grid_arg, ranks_arg;
  std::int64_t steps = 4;
  std::int64_t processes = 8;
  std::int64_t time_depth = 4;
  bool fp32 = false, periodic = false, want_json = false, explain_tune = false;
  bool attribute = false;
  std::string trace_path = "msc_prof_trace.json";
  std::string timeline_path;
  std::string attr_md_path = "attribution.md";
  std::string attr_json_path = "attribution.json";

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "msc-prof: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--grid") {
      grid_arg = parse_dims(next());
    } else if (arg == "--steps") {
      steps = std::atoll(next());
    } else if (arg == "--fp32") {
      fp32 = true;
    } else if (arg == "--ranks") {
      ranks_arg = parse_dims(next());
    } else if (arg == "--periodic") {
      periodic = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--timeline") {
      timeline_path = next();
    } else if (arg == "--json") {
      want_json = true;
    } else if (arg == "--explain-tune") {
      explain_tune = true;
    } else if (arg == "--processes") {
      processes = std::atoll(next());
    } else if (arg == "--attribute") {
      attribute = true;
    } else if (arg == "--attr-out") {
      attr_md_path = next();
    } else if (arg == "--attr-json") {
      attr_json_path = next();
    } else if (arg == "--time-depth") {
      time_depth = std::atoll(next());
    } else if (arg == "--list") {
      for (const auto& info : workload::all_benchmarks()) std::printf("%s\n", info.name.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "msc-prof: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else if (bench_name.empty()) {
      bench_name = arg;
    } else {
      extra_names.push_back(arg);  // --attribute takes any number of benchmarks
    }
  }
  if (!attribute && !extra_names.empty()) {
    std::fprintf(stderr, "msc-prof: more than one benchmark named\n");
    return 2;
  }
  if (bench_name.empty() && !attribute) {
    usage();
    return 2;
  }

  try {
    if (attribute) {
      std::vector<std::string> names;
      if (!bench_name.empty()) names.push_back(bench_name);
      names.insert(names.end(), extra_names.begin(), extra_names.end());
      return run_attribution(std::move(names), grid_arg, steps, time_depth, attr_md_path,
                             attr_json_path);
    }
    const auto& info = workload::benchmark(bench_name);
    std::array<std::int64_t, 3> grid = info.ndim == 2 ? std::array<std::int64_t, 3>{64, 64, 0}
                                                      : std::array<std::int64_t, 3>{32, 32, 32};
    for (std::size_t d = 0; d < grid_arg.size() && d < 3; ++d) grid[d] = grid_arg[d];

    // ---- --explain-tune: search explainability instead of profiling -----
    if (explain_tune) {
      const auto dtype = fp32 ? ir::DataType::f32 : ir::DataType::f64;
      auto prog = workload::make_program(info, dtype, grid);

      tune::TuneConfig tcfg;
      tcfg.processes = processes;
      tcfg.global = {1, 1, 1};
      for (int d = 0; d < info.ndim; ++d) tcfg.global[static_cast<std::size_t>(d)] =
          grid[static_cast<std::size_t>(d)];
      tcfg.train_samples = 32;
      tcfg.sa_iterations = 3000;
      tcfg.fp64 = !fp32;

      const auto result = tune::tune(prog->stencil(), machine::sunway_cg(),
                                     machine::profile_msc_sunway(), comm::sunway_network(), tcfg);

      workload::print_banner(
          strprintf("msc-prof --explain-tune — %s on %lld processes", bench_name.c_str(),
                    static_cast<long long>(processes)),
          "regression feature weights explain the tuned schedule (paper Fig. 11)");
      auto dims_str = [](const std::vector<int>& dims) {
        std::string s;
        for (std::size_t d = 0; d < dims.size(); ++d) s += (d ? "x" : "") + std::to_string(dims[d]);
        return s;
      };
      std::printf("initial: mpi=(%s) tile=(%lld,%lld,%lld) -> %s\n",
                  dims_str(result.initial.mpi_dims).c_str(),
                  static_cast<long long>(result.initial.tile[0]),
                  static_cast<long long>(result.initial.tile[1]),
                  static_cast<long long>(result.initial.tile[2]),
                  workload::fmt_seconds(result.initial_seconds).c_str());
      std::printf("tuned:   mpi=(%s) tile=(%lld,%lld,%lld) -> %s  (%s, model R^2 %.4f)\n",
                  dims_str(result.best.mpi_dims).c_str(),
                  static_cast<long long>(result.best.tile[0]),
                  static_cast<long long>(result.best.tile[1]),
                  static_cast<long long>(result.best.tile[2]),
                  workload::fmt_seconds(result.best_seconds).c_str(),
                  workload::fmt_ratio(result.speedup()).c_str(), result.model_r2);

      const auto explain = tune::explain_tune_json(result);
      std::printf("\npredicted-cost attribution of the winner:\n");
      std::printf("  %-14s %13s %13s %16s %7s\n", "feature", "weight", "value",
                  "contribution", "share");
      if (const auto* feats = explain.find("features")) {
        for (const auto& f : feats->elements()) {
          std::printf("  %-14s %13.4g %13.4g %16s %6.1f%%\n",
                      f.find("name")->as_string().c_str(), f.find("weight")->as_number(),
                      f.find("value")->as_number(),
                      workload::fmt_seconds(f.find("contribution_seconds")->as_number()).c_str(),
                      100.0 * f.find("share")->as_number());
        }
      }
      std::printf("\n%s", explain.dump().c_str());
      return 0;
    }

    prof::global_counters().reset();
    prof::global_flight().clear();
    const auto wall0 = std::chrono::steady_clock::now();

    // ---- Sunway CG simulation pass ------------------------------------
    const auto dt = fp32 ? ir::DataType::f32 : ir::DataType::f64;
    auto prog = workload::make_program(info, dt, grid);
    const std::array<std::int64_t, 3> tile = info.ndim == 2
                                                 ? std::array<std::int64_t, 3>{16, 32, 0}
                                                 : std::array<std::int64_t, 3>{2, 8, 16};
    workload::apply_msc_schedule(*prog, info, "sunway", tile);
    const auto m = machine::sunway_cg();

    auto run_sim = [&](auto tag) {
      using T = decltype(tag);
      exec::GridStorage<T> g(prog->stencil().state());
      for (int s = 0; s < g.slots(); ++s) g.fill_random(s, 7);
      return sunway::run_cg_sim(prog->stencil(), prog->primary_schedule(), g, 1, steps,
                                exec::Boundary::ZeroHalo, {}, m);
    };
    const sunway::CgSimResult sim = fp32 ? run_sim(float{}) : run_sim(double{});

    // ---- optional simmpi distributed pass (halo traffic) --------------
    if (!ranks_arg.empty()) {
      const auto& st = prog->stencil();
      const int nd = st.state()->ndim();
      MSC_CHECK(static_cast<int>(ranks_arg.size()) == nd)
          << "--ranks rank count must match the benchmark dimensionality (" << nd << ")";
      std::vector<int> proc_dims;
      std::vector<std::int64_t> global_ext;
      for (int d = 0; d < nd; ++d) {
        proc_dims.push_back(static_cast<int>(ranks_arg[static_cast<std::size_t>(d)]));
        global_ext.push_back(grid[static_cast<std::size_t>(d)]);
      }
      comm::CartDecomp dec(proc_dims, global_ext,
                           std::vector<bool>(static_cast<std::size_t>(nd), periodic));
      comm::SimWorld world(dec.size());
      world.run([&](comm::RankCtx& ctx) {
        const int r = ctx.rank();
        std::vector<std::int64_t> ext;
        for (int d = 0; d < nd; ++d) ext.push_back(dec.local_extent(r, d));
        auto local_tensor = ir::make_sp_tensor("B", ir::DataType::f64, ext,
                                               st.state()->halo(), st.state()->time_window());
        exec::GridStorage<double> local(local_tensor);
        for (int s = 0; s < local.slots(); ++s) local.fill_random(s, 7 + r);
        comm::run_distributed_overlapped(ctx, dec, st, local, 1, steps);
      });
    }
    const auto dumps = prof::global_flight().drain();
    warn_if_dropped(dumps, bench_name);
    const auto rank_spans = prof::phase_spans(dumps);
    const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
                            .count();

    // ---- roofline-style summary ---------------------------------------
    auto& reg = prof::global_counters();
    const auto lin = exec::linearize_stencil(prog->stencil(), {});
    std::int64_t points = 1;
    for (int d = 0; d < info.ndim; ++d) points *= grid[static_cast<std::size_t>(d)];
    const double flops = 2.0 * static_cast<double>(lin ? lin->terms.size() : 0) *
                         static_cast<double>(points) * static_cast<double>(steps);
    const double dma_bytes = static_cast<double>(reg.value("sunway.dma.bytes"));
    const double oi = dma_bytes > 0 ? flops / dma_bytes : 0.0;
    const double peak_gflops = m.freq_ghz * m.flops_per_cycle_fp64 * m.cores;
    const double bw_gbs = m.mem_bw_gbs;
    const double attainable = std::min(peak_gflops, oi * bw_gbs);
    const double achieved = sim.seconds > 0 ? flops / sim.seconds / 1e9 : 0.0;

    workload::print_banner(
        strprintf("msc-prof — %s on the Sunway CG simulator", bench_name.c_str()),
        "roofline position from counted DMA traffic (paper Figs. 7-11)");
    std::printf("grid %lldx%lld%s, %lld steps, %s\n", static_cast<long long>(grid[0]),
                static_cast<long long>(grid[1]),
                info.ndim == 3 ? strprintf("x%lld", static_cast<long long>(grid[2])).c_str() : "",
                static_cast<long long>(steps), fp32 ? "fp32" : "fp64");
    std::printf("\nroofline:\n");
    std::printf("  flops                 %.3g\n", flops);
    std::printf("  DMA bytes             %s\n", workload::fmt_bytes(dma_bytes).c_str());
    std::printf("  operational intensity %.3f flop/B\n", oi);
    std::printf("  attainable            %.1f GF/s (peak %.1f, %.0f GB/s roof)\n", attainable,
                peak_gflops, bw_gbs);
    std::printf("  achieved (simulated)  %.1f GF/s\n", achieved);
    std::printf("  SPM high water        %s of %s (reuse %.1fx)\n",
                workload::fmt_bytes(static_cast<double>(sim.spm_high_water_bytes)).c_str(),
                workload::fmt_bytes(static_cast<double>(m.spm_bytes_per_core)).c_str(),
                sim.reuse_factor);
    std::printf("\ncounters:\n");
    for (const auto& [name, value] : reg.snapshot())
      std::printf("  %-32s %lld\n", name.c_str(), static_cast<long long>(value));

    // ---- per-rank phase attribution -----------------------------------
    std::printf("\ntimeline (Sunway CG, simulated time):\n%s",
                prof::critical_path_summary(prof::critical_path(sim.spans)).c_str());
    if (!ranks_arg.empty()) {
      std::printf("\ntimeline (simmpi ranks, wall time):\n%s",
                  prof::critical_path_summary(prof::critical_path(rank_spans)).c_str());
    }
    if (!timeline_path.empty()) {
      // One time base per file: the distributed ranks' wall-clock spans
      // when --ranks was given, else the CG simulated spans.
      const bool ranks = !ranks_arg.empty();
      const auto& spans = ranks ? rank_spans : sim.spans;
      workload::write_file(
          timeline_path,
          prof::timeline_json(spans, ranks ? prof::dropped_events(dumps) : 0).dump() + "\n");
      std::printf("\ntimeline file: %s (%zu spans)\n", timeline_path.c_str(), spans.size());
    }

    const auto trace = prof::chrome_trace_json(dumps, sim.spans);
    workload::write_file(trace_path, trace.dump() + "\n");
    std::printf("\ntrace: %s (%zu events — load at chrome://tracing)\n", trace_path.c_str(),
                trace.find("traceEvents")->elements().size());

    if (want_json) {
      prof::BenchReport report("prof_" + bench_name, bench_name);
      report.set_config("grid", strprintf("%lldx%lldx%lld", static_cast<long long>(grid[0]),
                                          static_cast<long long>(grid[1]),
                                          static_cast<long long>(grid[2])));
      report.set_config("steps", static_cast<long long>(steps));
      report.set_config("dtype", fp32 ? "f32" : "f64");
      report.capture_global_counters();
      workload::Json row = workload::Json::object();
      row["simulated_seconds"] = workload::Json::number(sim.seconds);
      row["achieved_gflops"] = workload::Json::number(achieved);
      row["operational_intensity"] = workload::Json::number(oi);
      report.add_result(std::move(row));
      report.set_wall_seconds(wall);
      report.write();
    }
    return 0;
  } catch (const msc::Error& e) {
    std::fprintf(stderr, "msc-prof: %s\n", e.what());
    return 1;
  }
}
