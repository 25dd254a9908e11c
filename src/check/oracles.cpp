#include "check/oracles.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "codegen/codegen.hpp"
#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/simmpi.hpp"
#include "exec/aot_backend.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "machine/machine.hpp"
#include "resilience/fault_plan.hpp"
#include "support/error.hpp"
#include "support/shell.hpp"
#include "support/strings.hpp"
#include "sunway/cg_sim.hpp"

namespace msc::check {

namespace {

/// The seeding scheme shared by Program::input(seed=42) and the generated
/// mains' seed_grid(42u + 0x51ed2701u * slot).
constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kSlotStride = 0x51ed2701;

void seed_state(exec::GridStorage<double>& state) {
  for (int slot = 0; slot < state.slots(); ++slot)
    state.fill_random(slot, kSeed + static_cast<std::uint64_t>(slot) * kSlotStride);
}

struct Timer {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
};

void finish(OracleRun& run, const exec::GridStorage<double>& state, std::int64_t t) {
  const int slot = state.slot_for_time(t);
  run.values = state.interior_values(slot);
  run.checksum = state.interior_checksum(slot);
  run.ok = true;
}

// ---- in-process oracles --------------------------------------------------

OracleRun run_reference_oracle(const CaseSpec& spec) {
  OracleRun run;
  auto prog = build_program(spec);
  exec::GridStorage<double> state(prog->stencil().state());
  seed_state(state);
  exec::run_reference(prog->stencil(), state, 1, spec.timesteps, exec::Boundary::ZeroHalo);
  finish(run, state, spec.timesteps);
  return run;
}

OracleRun run_scheduled_oracle(const CaseSpec& spec) {
  OracleRun run;
  auto prog = build_program(spec);
  exec::GridStorage<double> state(prog->stencil().state());
  seed_state(state);
  exec::ExecInfo info;
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), state, 1, spec.timesteps,
                      exec::Boundary::ZeroHalo, prog->bindings(), nullptr, {}, &info);
  run.route = exec::route_name(info.route);
  // A run that fell back to another engine would vacuously match the
  // reference: the route is part of the verdict.
  const exec::Route asked =
      spec.time_tile.depth > 1 ? exec::Route::Temporal : exec::Route::Sweep;
  if (info.route != asked) {
    run.note = strprintf("took the %s route, the case asks for %s", run.route.c_str(),
                         exec::route_name(asked));
    if (!info.fallback_reason.empty()) run.note += ": " + info.fallback_reason;
    return run;
  }
  finish(run, state, spec.timesteps);
  return run;
}

OracleRun run_sunway_sim_oracle(const CaseSpec& spec) {
  OracleRun run;
  auto prog = build_program(spec);
  const auto m = machine::sunway_cg();
  if (!sunway::cg_sim_fits_spm(prog->stencil(), prog->primary_schedule(),
                               static_cast<std::int64_t>(sizeof(double)), m)) {
    run.skipped = true;
    run.note = strprintf(
        "staged tile needs %lld B, over the %lld B SPM budget",
        static_cast<long long>(sunway::cg_sim_spm_bytes(
            prog->stencil(), prog->primary_schedule(), sizeof(double))),
        static_cast<long long>(m.spm_bytes_per_core));
    return run;
  }
  exec::GridStorage<double> state(prog->stencil().state());
  seed_state(state);
  sunway::run_cg_sim(prog->stencil(), prog->primary_schedule(), state, 1, spec.timesteps,
                     exec::Boundary::ZeroHalo, {}, m);
  finish(run, state, spec.timesteps);
  return run;
}

OracleRun run_simmpi_oracle(const CaseSpec& spec, const OracleOptions& opts) {
  OracleRun run;
  auto prog = build_program(spec);
  const auto& st = prog->stencil();

  std::vector<int> proc_dims;
  std::vector<std::int64_t> global_ext;
  for (int d = 0; d < spec.ndim; ++d) {
    proc_dims.push_back(spec.ranks[static_cast<std::size_t>(d)]);
    global_ext.push_back(spec.extent[static_cast<std::size_t>(d)]);
  }
  comm::CartDecomp dec(proc_dims, global_ext);

  // Seed a global grid once, scatter the initial-window slots to the rank
  // sub-grids, run the distributed stepping with real halo exchanges, and
  // gather every rank's interior back into global row-major order.
  exec::GridStorage<double> global(st.state());
  seed_state(global);
  run.values.assign(static_cast<std::size_t>(st.state()->interior_points()), 0.0);

  // Global row-major strides of the interior (gather target).
  std::array<std::int64_t, 3> gstride{1, 1, 1};
  for (int d = spec.ndim - 2; d >= 0; --d)
    gstride[static_cast<std::size_t>(d)] = gstride[static_cast<std::size_t>(d) + 1] *
                                           global_ext[static_cast<std::size_t>(d) + 1];

  comm::SimWorld world(dec.size());
  std::optional<resilience::FaultInjector> injector;
  if (opts.fault_plan != nullptr) {
    injector.emplace(*opts.fault_plan);
    world.set_fault_injector(&*injector);
    auto cfg = comm::comm_config_from_env();
    if (cfg.timeout_ms <= 0.0) cfg.timeout_ms = 30.0;  // keep drop recovery snappy
    cfg.seed = opts.fault_plan->seed;
    world.set_comm_config(cfg);
  }
  double* gathered = run.values.data();
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<std::int64_t> local_ext;
    for (int d = 0; d < spec.ndim; ++d) local_ext.push_back(dec.local_extent(r, d));
    auto local_tensor = ir::make_sp_tensor(st.state()->name(), st.state()->dtype(), local_ext,
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);

    std::array<std::int64_t, 3> off{0, 0, 0};
    for (int d = 0; d < spec.ndim; ++d)
      off[static_cast<std::size_t>(d)] = dec.local_offset(r, d);

    // Scatter/gather move whole contiguous rows: the local grid, the global
    // grid, and the flat gather target are all row-major with a stride-1
    // last dimension.
    const int nd = spec.ndim;
    const std::int64_t row = local.extent(nd - 1);
    const auto each_row = [&](auto&& fn) {
      std::array<std::int64_t, 3> c{0, 0, 0};
      if (nd == 1) {
        fn(c);
      } else if (nd == 2) {
        for (c[0] = 0; c[0] < local.extent(0); ++c[0]) fn(c);
      } else {
        for (c[0] = 0; c[0] < local.extent(0); ++c[0])
          for (c[1] = 0; c[1] < local.extent(1); ++c[1]) fn(c);
      }
    };
    const auto global_of = [&](std::array<std::int64_t, 3> c) {
      for (int d = 0; d < nd; ++d)
        c[static_cast<std::size_t>(d)] += off[static_cast<std::size_t>(d)];
      return c;
    };

    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int gslot = global.slot_for_time(-back);
      const int lslot = local.slot_for_time(-back);
      double* ldata = local.slot_data(lslot);
      const double* gdata = global.slot_data(gslot);
      each_row([&](std::array<std::int64_t, 3> c) {
        std::copy_n(gdata + global.index(global_of(c)), row, ldata + local.index(c));
      });
    }

    comm::run_distributed_overlapped(ctx, dec, st, local, 1, spec.timesteps);

    // Disjoint global regions per rank: no synchronization needed.
    const int fslot = local.slot_for_time(spec.timesteps);
    const double* fdata = local.slot_data(fslot);
    each_row([&](std::array<std::int64_t, 3> c) {
      const auto g = global_of(c);
      std::int64_t idx = 0;
      for (int d = 0; d < nd; ++d)
        idx += g[static_cast<std::size_t>(d)] * gstride[static_cast<std::size_t>(d)];
      std::copy_n(fdata + local.index(c), row, gathered + idx);
    });
  });

  if (injector.has_value()) run.faults_injected = injector->total_injected();
  run.checksum = 0.0;
  for (double v : run.values) run.checksum += v;
  run.ok = true;
  return run;
}

// ---- the AOT dlopen oracle ------------------------------------------------

OracleRun run_aot_oracle(const CaseSpec& spec, const OracleOptions& opts) {
  OracleRun run;
  if (!compiler_available(opts.cc)) {
    run.skipped = true;
    run.note = "no host C compiler ('" + opts.cc + "') on PATH";
    return run;
  }
  auto prog = build_program(spec);
  exec::GridStorage<double> state(prog->stencil().state());
  seed_state(state);

  exec::ExecOptions eopts;
  eopts.backend = exec::HostBackend::Aot;
  eopts.aot.cc = opts.cc;
  if (!opts.work_dir.empty())
    eopts.aot.cache_dir = (std::filesystem::path(opts.work_dir) / "aot_cache").string();
  exec::ExecInfo info;
  exec::run_scheduled(prog->stencil(), prog->primary_schedule(), state, 1, spec.timesteps,
                      exec::Boundary::ZeroHalo, prog->bindings(), nullptr, eopts, &info);
  // A fallback result would vacuously match the scheduled oracle — the AOT
  // oracle only passes when the dlopen'd module actually ran.  A quarantined
  // plan (the circuit breaker tripped on an earlier compile crash/timeout)
  // is called out separately: it means the compiler is broken for this plan,
  // not merely absent.
  run.route = exec::route_name(info.route);
  if (info.route != exec::Route::Aot) {
    run.note = std::string(info.aot.quarantined ? "aot quarantined: " : "aot fallback: ") +
               info.fallback_reason;
    return run;
  }
  finish(run, state, spec.timesteps);
  if (spec.time_tile.depth > 1) {
    // run_scheduled drives the module one step at a time (msc_aot_rows);
    // the same module's msc_aot_run unrolls time_tile blocks and must land
    // on the same bits.
    std::string why;
    const auto mod = exec::detail::load_aot_module(prog->stencil(), prog->primary_schedule(),
                                                   prog->bindings(), eopts.aot, nullptr, &why);
    if (mod == nullptr) {
      run.ok = false;
      run.note = "aot reload for msc_aot_run failed: " + why;
      return run;
    }
    exec::GridStorage<double> whole(prog->stencil().state());
    seed_state(whole);
    std::vector<void*> slots;
    for (int s = 0; s < whole.slots(); ++s) {
      whole.fill_halo(s, exec::Boundary::ZeroHalo);
      slots.push_back(whole.slot_data(s));
    }
    mod->run(slots.data(), 1, static_cast<long>(spec.timesteps));
    const auto unrolled = whole.interior_values(whole.slot_for_time(spec.timesteps));
    for (std::size_t n = 0; n < unrolled.size(); ++n) {
      if (std::memcmp(&unrolled[n], &run.values[n], sizeof(double)) == 0) continue;
      run.ok = false;
      run.note = strprintf("msc_aot_run (time_tile depth %lld) differs from the stepped run "
                           "at element %zu: %.17g vs %.17g",
                           static_cast<long long>(spec.time_tile.depth), n, unrolled[n],
                           run.values[n]);
      return run;
    }
  }
  return run;
}

// ---- compiled-backend oracles --------------------------------------------

/// Parses "checksum X" + one value per line, as printed with the
/// emit_grid_dump hook enabled.
bool parse_dump(const std::string& text, OracleRun& run, std::int64_t expected_points,
                std::string* error) {
  std::istringstream in(text);
  std::string tag;
  if (!(in >> tag >> run.checksum) || tag != "checksum") {
    *error = "no checksum line in backend output";
    return false;
  }
  run.values.reserve(static_cast<std::size_t>(expected_points));
  double v = 0.0;
  while (in >> v) run.values.push_back(v);
  if (static_cast<std::int64_t>(run.values.size()) != expected_points) {
    *error = strprintf("grid dump has %zu values, expected %lld", run.values.size(),
                       static_cast<long long>(expected_points));
    return false;
  }
  return true;
}

OracleRun run_compiled_oracle(const CaseSpec& spec, Oracle o, const OracleOptions& opts) {
  OracleRun run;
  if (!compiler_available(opts.cc)) {
    run.skipped = true;
    run.note = "no host C compiler ('" + opts.cc + "') on PATH";
    return run;
  }
  auto prog = build_program(spec);
  auto ctx = codegen::make_context(*prog);
  ctx.emit_grid_dump = true;
  if (opts.coeff_perturb != 0.0 && !ctx.linear.terms.empty())
    ctx.linear.terms.front().coeff += opts.coeff_perturb;

  const char* target = o == Oracle::GenC ? "c" : o == Oracle::GenOpenMp ? "openmp" : "sunway";
  const auto result = codegen::generate_files(ctx, target);

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(opts.work_dir.empty() ? fs::temp_directory_path().string()
                                                      : opts.work_dir) /
                       strprintf("%s_%s", prog->name().c_str(), target);
  std::error_code ec;
  fs::create_directories(dir, ec);
  for (const auto& [name, text] : result.files) {
    std::FILE* f = std::fopen((dir / name).string().c_str(), "w");
    MSC_CHECK(f != nullptr) << "cannot write " << (dir / name).string();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  // Every filesystem path is shell-quoted: work dirs (and the system temp
  // dir) legitimately contain spaces and shell metacharacters.
  std::string sources, flags;
  if (o == Oracle::GenC) {
    sources = shell_quote((dir / result.main_file).string());
  } else if (o == Oracle::GenOpenMp) {
    sources = shell_quote((dir / result.main_file).string());
    flags = "-fopenmp";
  } else {  // athread host-sim: master + slave against the emitted shim
    sources = shell_quote((dir / (prog->name() + "_master.c")).string()) + " " +
              shell_quote((dir / (prog->name() + "_slave.c")).string());
    flags = "-DMSC_HOST_SIM -pthread";
  }
  const std::string exe = (dir / "prog").string();

  // Compile and run are separate stages so their diagnostics stay apart:
  // the compile captures its own stderr inline, the run redirects stderr to
  // a file (its stdout is the grid dump the parser needs clean).
  const auto compiled = run_shell(shell_quote(opts.cc) + " -O2 -std=c99 " + flags + " -o " +
                                  shell_quote(exe) + " " + sources + " -lm 2>&1");
  if (!compiled.ok) {
    run.note = "compile failed (" + compiled.describe() + "): " + compiled.output;
    return run;
  }

  // `exec` replaces the popen shell with the program, so pclose sees the
  // program's own wait status: a signal death decodes as a signal instead
  // of being laundered into the shell's 128+N exit convention.
  const fs::path errfile = dir / "run.stderr";
  const auto ran = run_shell("exec " + shell_quote(exe) + " " +
                             std::to_string(spec.timesteps) + " --dump 2>" +
                             shell_quote(errfile.string()));
  if (!ran.ok) {
    run.note = (ran.signaled ? "run crashed (" : "run failed (") + ran.describe() + ")";
    std::ifstream errs(errfile);
    std::ostringstream captured;
    captured << errs.rdbuf();
    if (!captured.str().empty()) run.note += ": " + captured.str();
    return run;
  }
  std::string err;
  if (!parse_dump(ran.output, run, prog->stencil().state()->interior_points(), &err)) {
    run.note = err;
    return run;
  }
  run.ok = true;
  return run;
}

}  // namespace

const char* oracle_name(Oracle o) {
  switch (o) {
    case Oracle::Reference: return "reference";
    case Oracle::Scheduled: return "scheduled";
    case Oracle::GenC: return "c";
    case Oracle::GenOpenMp: return "openmp";
    case Oracle::AthreadSim: return "athread";
    case Oracle::SunwaySim: return "sunway-sim";
    case Oracle::SimMpi: return "simmpi";
    case Oracle::Aot: return "aot";
  }
  return "?";
}

const std::vector<Oracle>& all_oracles() {
  static const std::vector<Oracle> all = {
      Oracle::Reference, Oracle::Scheduled, Oracle::GenC,   Oracle::GenOpenMp,
      Oracle::AthreadSim, Oracle::SunwaySim, Oracle::SimMpi, Oracle::Aot,
  };
  return all;
}

std::optional<Oracle> oracle_from_name(const std::string& name) {
  for (Oracle o : all_oracles())
    if (name == oracle_name(o)) return o;
  return std::nullopt;
}

bool oracle_needs_cc(Oracle o) {
  return o == Oracle::GenC || o == Oracle::GenOpenMp || o == Oracle::AthreadSim ||
         o == Oracle::Aot;
}

bool compiler_available(const std::string& cc) {
  // One probe cache for the whole process: the AOT backend (src/exec) and
  // the oracles gate on the same host_cc_available result.
  return host_cc_available(cc);
}

OracleRun run_oracle(const CaseSpec& spec, Oracle o, const OracleOptions& opts) {
  Timer timer;
  OracleRun run;
  try {
    switch (o) {
      case Oracle::Reference: run = run_reference_oracle(spec); break;
      case Oracle::Scheduled: run = run_scheduled_oracle(spec); break;
      case Oracle::SunwaySim: run = run_sunway_sim_oracle(spec); break;
      case Oracle::SimMpi: run = run_simmpi_oracle(spec, opts); break;
      case Oracle::Aot: run = run_aot_oracle(spec, opts); break;
      default: run = run_compiled_oracle(spec, o, opts); break;
    }
  } catch (const std::exception& e) {
    run.ok = false;
    run.note = std::string("exception: ") + e.what();
  }
  run.seconds = timer.seconds();
  return run;
}

std::int64_t ulp_distance(double a, double b) {
  if (a == b) return 0;  // covers +0/-0
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  // Map to a monotonic integer line (two's-complement ordering trick).
  const auto order = [](double v) {
    std::int64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() + 1 - bits : bits;
  };
  const std::int64_t oa = order(a), ob = order(b);
  if ((oa < 0) != (ob < 0)) return INT64_MAX;  // saturate across the sign gap
  const std::int64_t d = oa - ob;
  return d < 0 ? -d : d;
}

Comparison compare_runs(const OracleRun& baseline, const OracleRun& candidate,
                        std::int64_t max_ulps) {
  Comparison cmp;
  if (baseline.values.size() != candidate.values.size()) {
    cmp.match = false;
    cmp.detail = strprintf("grid size mismatch: %zu vs %zu", baseline.values.size(),
                           candidate.values.size());
    return cmp;
  }
  for (std::size_t n = 0; n < baseline.values.size(); ++n) {
    const double a = baseline.values[n], b = candidate.values[n];
    const std::int64_t ulp = ulp_distance(a, b);
    if (ulp > cmp.worst_ulp && std::abs(a - b) > 1e-13) {
      cmp.worst_ulp = ulp;
      if (ulp > max_ulps && cmp.match) {
        cmp.match = false;
        cmp.detail = strprintf("element %zu: %.17g vs %.17g (%lld ulps)", n, a, b,
                               static_cast<long long>(ulp));
      }
    }
  }
  const double csum_tol = 1e-9 * std::max(1.0, std::abs(baseline.checksum));
  if (cmp.match && std::abs(baseline.checksum - candidate.checksum) > csum_tol) {
    cmp.match = false;
    cmp.detail = strprintf("checksum mismatch: %.17g vs %.17g", baseline.checksum,
                           candidate.checksum);
  }
  return cmp;
}

}  // namespace msc::check
