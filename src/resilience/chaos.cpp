#include "resilience/chaos.hpp"

#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "comm/decompose.hpp"
#include "comm/halo_exchange.hpp"
#include "comm/simmpi.hpp"
#include "dsl/program.hpp"
#include "exec/aot_backend.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "frontend/spec.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/log.hpp"
#include "resilience/driver.hpp"
#include "resilience/watchdog.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "workload/stencils.hpp"

namespace msc::resilience {

namespace {

/// Seeding scheme shared with the conformance oracles (check/oracles.cpp),
/// so a chaos grid is comparable against any other lowering if needed.
constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kSlotStride = 0x51ed2701;

/// Restart budget per scenario: one crash rule fires once, so two attempts
/// suffice; the third absorbs an unlucky schedule.
constexpr int kMaxAttempts = 3;

/// heat2d is a frontend workload (not in workload::all_benchmarks()); pin a
/// chaos-sized spec here, mirroring the golden-snapshot one at 128x128.
constexpr const char* kHeat2dChaosSpec = R"(# 2-D explicit heat equation, chaos-sized.
name  heat2d
grid  32 32
halo  1
point  0 0   0.2
point  0 -1  0.2
point  0 1   0.2
point -1 0   0.2
point  1 0   0.2
)";

std::unique_ptr<dsl::Program> chaos_program(const std::string& workload) {
  if (workload == "heat2d") return frontend::program_from_spec(kHeat2dChaosSpec);
  const auto& info = msc::workload::benchmark(workload);
  return msc::workload::make_program(info, ir::DataType::f64, {16, 16, 16});
}

struct Timer {
  std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
};

/// The fault plan of one scenario.  Message kinds use the canonical bounded
/// burst; stall/crash target a fixed (rank, step) so the run is identical
/// for every seed of the same shape.
FaultPlan scenario_plan(const ChaosScenario& sc) {
  switch (sc.kind) {
    case FaultKind::Stall: {
      FaultPlan plan;
      plan.seed = sc.seed;
      FaultRule r;
      r.kind = FaultKind::Stall;
      r.rank = sc.nranks - 1;
      r.at_step = 2;
      r.delay_ms = 8.0;
      plan.rules.push_back(r);
      return plan;
    }
    case FaultKind::Crash: {
      FaultPlan plan;
      plan.seed = sc.seed;
      FaultRule r;
      r.kind = FaultKind::Crash;
      r.rank = 1 % sc.nranks;
      // First step after the first checkpoint: recovery restores that cut
      // and replays, exercising the full restart path.
      r.at_step = sc.ckpt_every + 1;
      plan.rules.push_back(r);
      return plan;
    }
    case FaultKind::Hang: {
      // A compute thread wedges after the first checkpoint; only the
      // watchdog's cancel converts it into a restartable rank failure.
      FaultPlan plan;
      plan.seed = sc.seed;
      FaultRule r;
      r.kind = FaultKind::Hang;
      r.rank = sc.nranks - 1;
      r.at_step = sc.ckpt_every + 1;
      plan.rules.push_back(r);
      return plan;
    }
    case FaultKind::CcHang: {
      FaultPlan plan;
      plan.seed = sc.seed;
      FaultRule r;
      r.kind = FaultKind::CcHang;
      r.delay_ms = 30000.0;  // far past the compile budget; killed, not awaited
      plan.rules.push_back(r);
      return plan;
    }
    default:
      if (sc.diagonal) {
        const int ndim = sc.workload == "heat2d" ? 2 : 3;
        return make_diagonal_fault_plan(sc.kind, sc.seed, ndim);
      }
      return make_message_fault_plan(sc.kind, sc.seed, 3);
  }
}

/// One distributed execution (scatter, step, gather); `store` non-null
/// switches on the checkpointed driver.  Returns the gathered global grid.
void run_world(comm::SimWorld& world, const comm::CartDecomp& dec, const ir::StencilDef& st,
               int ndim, const exec::GridStorage<double>& global, std::int64_t timesteps,
               CheckpointStore* store, std::int64_t ckpt_every, std::vector<double>* gathered) {
  std::array<std::int64_t, 3> gstride{1, 1, 1};
  for (int d = ndim - 2; d >= 0; --d)
    gstride[static_cast<std::size_t>(d)] =
        gstride[static_cast<std::size_t>(d) + 1] * st.state()->extent(d + 1);

  double* out = gathered->data();
  world.run([&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<std::int64_t> local_ext;
    for (int d = 0; d < ndim; ++d) local_ext.push_back(dec.local_extent(r, d));
    auto local_tensor = ir::make_sp_tensor(st.state()->name(), st.state()->dtype(), local_ext,
                                           st.state()->halo(), st.state()->time_window());
    exec::GridStorage<double> local(local_tensor);

    std::array<std::int64_t, 3> off{0, 0, 0};
    for (int d = 0; d < ndim; ++d) off[static_cast<std::size_t>(d)] = dec.local_offset(r, d);

    for (int back = 0; back < st.time_window() - 1; ++back) {
      const int gslot = global.slot_for_time(-back);
      const int lslot = local.slot_for_time(-back);
      local.for_each_interior([&](std::array<std::int64_t, 3> c) {
        std::array<std::int64_t, 3> g = c;
        for (int d = 0; d < ndim; ++d)
          g[static_cast<std::size_t>(d)] += off[static_cast<std::size_t>(d)];
        local.at(lslot, c) = global.at(gslot, g);
      });
    }

    if (store != nullptr)
      run_distributed_checkpointed(ctx, dec, st, local, 1, timesteps, *store, ckpt_every);
    else
      comm::run_distributed_overlapped(ctx, dec, st, local, 1, timesteps);

    const int fslot = local.slot_for_time(timesteps);
    local.for_each_interior([&](std::array<std::int64_t, 3> c) {
      std::int64_t idx = 0;
      for (int d = 0; d < ndim; ++d)
        idx += (c[static_cast<std::size_t>(d)] + off[static_cast<std::size_t>(d)]) *
               gstride[static_cast<std::size_t>(d)];
      out[idx] = local.at(fslot, c);
    });
  });
}

/// The cc_hang scenario is host-only: no ranks, no transport.  It proves
/// the AOT compile budget + circuit breaker chain end to end — a hanging
/// host compiler is killed at the budget, the run degrades to the sweep
/// engine bit-exactly, and the second attempt is routed around the
/// compiler entirely by the quarantine.
ChaosResult run_cc_hang_scenario(const ChaosScenario& sc) {
  namespace fs = std::filesystem;
  ChaosResult res;
  res.scenario = sc;

  auto prog = chaos_program(sc.workload);
  const auto& st = prog->stencil();
  const auto& sched = prog->primary_schedule();

  exec::GridStorage<double> oracle(st.state());
  exec::GridStorage<double> degraded(st.state());
  exec::GridStorage<double> quarantined(st.state());
  for (int s = 0; s < oracle.slots(); ++s) {
    const std::uint64_t seed = kSeed + static_cast<std::uint64_t>(s) * kSlotStride;
    oracle.fill_random(s, seed);
    degraded.fill_random(s, seed);
    quarantined.fill_random(s, seed);
  }

  Timer oracle_timer;
  exec::run_scheduled(st, sched, oracle, 1, sc.timesteps, exec::Boundary::ZeroHalo,
                      prog->bindings());
  res.fault_free_seconds = oracle_timer.seconds();

  // The "fault injector" here is a fake host cc that answers the bounded
  // availability/flag probes instantly but sleeps far past the compile
  // budget (the plan's cc_hang delay) on a real compile — standing in for
  // a compiler that wedges under load, not one that is absent.
  const double hang_ms = scenario_plan(sc).cc_hang_ms();
  const auto dir = fs::temp_directory_path() /
                   strprintf("msc_chaos_cc_hang_%llu",
                             static_cast<unsigned long long>(sc.seed));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const auto cc = dir / "hanging_cc.sh";
  {
    std::ofstream out(cc.string());
    out << "#!/bin/sh\ncase \"$*\" in *-o*) sleep " << hang_ms / 1000.0
        << ";; esac\nexit 0\n";
  }
  fs::permissions(cc, fs::perms::owner_all, ec);

  exec::aot_breaker_reset();
  exec::ExecOptions opts;
  opts.backend = exec::HostBackend::Aot;
  opts.aot.cc = cc.string();
  opts.aot.cache_dir = (dir / "cache").string();
  opts.aot.compile_timeout_ms = 150.0;

  Timer chaos_timer;
  exec::ExecInfo first, second;
  res.attempts = 2;
  exec::run_scheduled(st, sched, degraded, 1, sc.timesteps, exec::Boundary::ZeroHalo,
                      prog->bindings(), nullptr, opts, &first);
  exec::run_scheduled(st, sched, quarantined, 1, sc.timesteps, exec::Boundary::ZeroHalo,
                      prog->bindings(), nullptr, opts, &second);
  res.chaos_seconds = chaos_timer.seconds();
  fs::remove_all(dir, ec);

  const bool killed = first.fallback_reason.find("timed out") != std::string::npos;
  res.faults_injected = killed ? 1 : 0;
  if (!killed) {
    res.note = strprintf("vacuous: hanging cc was not killed at the budget "
                         "(fallback: '%s')",
                         first.fallback_reason.c_str());
    return res;
  }
  if (!second.aot.quarantined || exec::aot_quarantined_count() < 1) {
    res.note = "second attempt was not quarantined by the circuit breaker";
    return res;
  }
  for (int s = 0; s < oracle.slots(); ++s) {
    const std::size_t bytes =
        static_cast<std::size_t>(oracle.padded_points()) * sizeof(double);
    if (std::memcmp(oracle.slot_data(s), degraded.slot_data(s), bytes) != 0 ||
        std::memcmp(oracle.slot_data(s), quarantined.slot_data(s), bytes) != 0) {
      res.note = "degraded run diverges from the sweep-engine oracle";
      return res;
    }
  }
  res.bit_exact = true;
  res.ok = true;
  return res;
}

}  // namespace

std::string ChaosScenario::label() const {
  return strprintf("%s.r%d.%s%s", workload.c_str(), nranks, fault_kind_name(kind),
                   diagonal ? ".diag" : "");
}

std::vector<ChaosScenario> chaos_matrix(bool smoke, std::uint64_t seed) {
  const std::vector<std::string> workloads = {"3d7pt_star", "heat2d"};
  const std::vector<int> rank_counts = smoke ? std::vector<int>{2} : std::vector<int>{2, 4};
  const std::vector<FaultKind> kinds =
      smoke ? std::vector<FaultKind>{FaultKind::Drop, FaultKind::Corrupt,
                                     FaultKind::Crash, FaultKind::Hang}
            : std::vector<FaultKind>{FaultKind::Drop,    FaultKind::Duplicate,
                                     FaultKind::Delay,   FaultKind::Corrupt,
                                     FaultKind::Stall,   FaultKind::Crash,
                                     FaultKind::Hang};
  std::vector<ChaosScenario> matrix;
  for (const auto& w : workloads)
    for (int r : rank_counts)
      for (FaultKind k : kinds) {
        ChaosScenario sc;
        sc.workload = w;
        sc.nranks = r;
        sc.kind = k;
        sc.seed = seed;
        matrix.push_back(sc);
      }
  // Diagonal-envelope variants: the same message kinds aimed exclusively at
  // the plan exchanger's corner tags (full matrix only; smoke stays lean).
  if (!smoke) {
    for (const auto& w : workloads)
      for (int r : rank_counts)
        for (FaultKind k : {FaultKind::Drop, FaultKind::Corrupt, FaultKind::Delay}) {
          ChaosScenario sc;
          sc.workload = w;
          sc.nranks = r;
          sc.kind = k;
          sc.seed = seed;
          sc.diagonal = true;
          matrix.push_back(sc);
        }
  }
  // cc_hang is host-only (no ranks, no transport): one scenario covers it.
  ChaosScenario cc;
  cc.workload = "3d7pt_star";
  cc.nranks = 1;
  cc.kind = FaultKind::CcHang;
  cc.seed = seed;
  matrix.push_back(cc);
  return matrix;
}

ChaosResult run_chaos_scenario(const ChaosScenario& sc) {
  if (sc.kind == FaultKind::CcHang) return run_cc_hang_scenario(sc);

  ChaosResult res;
  res.scenario = sc;

  auto prog = chaos_program(sc.workload);
  const auto& st = prog->stencil();
  const int ndim = st.state()->ndim();

  std::vector<int> proc_dims(static_cast<std::size_t>(ndim), 1);
  proc_dims[0] = sc.nranks;
  std::vector<std::int64_t> global_ext;
  for (int d = 0; d < ndim; ++d) global_ext.push_back(st.state()->extent(d));
  // Diagonal scenarios wrap the trailing (1-rank) dims so the plan
  // exchanger's corner directions are active — self-messages on corner
  // tags, which is exactly the traffic the fault plan targets.
  std::vector<bool> periodic;
  if (sc.diagonal) {
    periodic.assign(static_cast<std::size_t>(ndim), true);
    periodic[0] = false;
  }
  comm::CartDecomp dec(proc_dims, global_ext, periodic);

  exec::GridStorage<double> global(st.state());
  for (int slot = 0; slot < global.slots(); ++slot)
    global.fill_random(slot, kSeed + static_cast<std::uint64_t>(slot) * kSlotStride);

  const std::size_t points = static_cast<std::size_t>(st.state()->interior_points());
  std::vector<double> oracle(points, 0.0), chaotic(points, 0.0);

  // Fault-free oracle: plain driver, no injector, default (off) timeouts.
  {
    Timer t;
    comm::SimWorld world(dec.size());
    run_world(world, dec, st, ndim, global, sc.timesteps, nullptr, 0, &oracle);
    res.fault_free_seconds = t.seconds();
  }

  const auto counter_base = [&] {
    std::array<std::int64_t, 6> v{};
    v[0] = prof::counter("resilience.retries").value();
    v[1] = prof::counter("resilience.retransmits").value();
    v[2] = prof::counter("resilience.corrupt_detected").value();
    v[3] = prof::counter("resilience.duplicates_discarded").value();
    v[4] = prof::counter("resilience.checkpoints").value();
    v[5] = prof::counter("resilience.restores").value();
    return v;
  };
  const auto before = counter_base();

  FaultInjector injector(scenario_plan(sc));
  CheckpointStore store(/*keep_per_rank=*/2);
  comm::CommConfig cfg;
  // A hung rank makes no comm progress at all; the watchdog (not the
  // retry/abort ladder) must be the recovery mechanism, so push the comm
  // timeout past the watchdog's cancel threshold.
  const bool hang = sc.kind == FaultKind::Hang;
  cfg.timeout_ms = hang ? std::max(sc.timeout_ms, 1000.0) : sc.timeout_ms;
  cfg.seed = sc.seed;

  Timer chaos_timer;
  bool completed = false;
  for (int attempt = 1; attempt <= kMaxAttempts && !completed; ++attempt) {
    res.attempts = attempt;
    comm::SimWorld world(dec.size());
    world.set_comm_config(cfg);
    world.set_fault_injector(&injector);
    // Hang scenarios get a fresh token per attempt (a fired token stays
    // latched) and a watchdog that cancels on flight-heartbeat stagnation.
    CancelToken token;
    std::unique_ptr<Watchdog> dog;
    if (hang) {
      world.set_cancel_token(&token);
      WatchdogConfig wcfg;
      wcfg.poll_ms = 5.0;
      wcfg.stall_ms = 80.0;
      wcfg.cancel_ms = 160.0;
      wcfg.dump_ms = 0.0;  // the RankCrashed catch below captures the dump
      dog = std::make_unique<Watchdog>(wcfg, &token);
    }
    try {
      run_world(world, dec, st, ndim, global, sc.timesteps, &store, sc.ckpt_every, &chaotic);
      completed = true;
    } catch (const comm::RankCrashed& e) {
      // Black-box dump: what every thread was doing in the instants before
      // the crash.  First crash wins — that is the interesting one.
      if (res.flight_dump.is_null()) res.flight_dump = prof::flight_dump_json();
      prof::LogEvent(prof::LogLevel::Info, "resilience.chaos", "restarting after crash")
          .str("scenario", sc.label())
          .integer("attempt", attempt);
      if (attempt == kMaxAttempts) res.note = std::string("still crashing: ") + e.what();
    } catch (const std::exception& e) {
      res.note = std::string("unrecoverable: ") + e.what();
      break;
    }
  }
  res.chaos_seconds = chaos_timer.seconds();

  const auto after = counter_base();
  res.retries = after[0] - before[0];
  res.retransmits = after[1] - before[1];
  res.corrupt_detected = after[2] - before[2];
  res.duplicates_discarded = after[3] - before[3];
  res.checkpoints = after[4] - before[4];
  res.restores = after[5] - before[5];
  res.faults_injected = injector.total_injected();

  if (!completed) return res;
  if (res.faults_injected == 0) {
    res.note = "vacuous: the fault plan injected nothing";
    return res;
  }
  res.bit_exact =
      std::memcmp(oracle.data(), chaotic.data(), points * sizeof(double)) == 0;
  if (!res.bit_exact) {
    res.note = "recovered grid diverges from the fault-free run";
    return res;
  }
  res.ok = true;
  return res;
}

workload::Json chaos_report(const std::vector<ChaosResult>& results) {
  using workload::Json;
  Json root = Json::object();
  root["schema"] = Json::string("msc-chaos-v1");
  int passed = 0;
  Json& list = root["scenarios"];
  list = Json::array();
  for (const ChaosResult& r : results) {
    passed += r.ok ? 1 : 0;
    Json e = Json::object();
    e["label"] = Json::string(r.scenario.label());
    e["workload"] = Json::string(r.scenario.workload);
    e["nranks"] = Json::integer(r.scenario.nranks);
    e["fault"] = Json::string(fault_kind_name(r.scenario.kind));
    e["seed"] = Json::integer(static_cast<std::int64_t>(r.scenario.seed));
    e["timesteps"] = Json::integer(r.scenario.timesteps);
    e["ckpt_every"] = Json::integer(r.scenario.ckpt_every);
    e["ok"] = Json::boolean(r.ok);
    e["bit_exact"] = Json::boolean(r.bit_exact);
    e["attempts"] = Json::integer(r.attempts);
    e["faults_injected"] = Json::integer(r.faults_injected);
    e["retries"] = Json::integer(r.retries);
    e["retransmits"] = Json::integer(r.retransmits);
    e["corrupt_detected"] = Json::integer(r.corrupt_detected);
    e["duplicates_discarded"] = Json::integer(r.duplicates_discarded);
    e["checkpoints"] = Json::integer(r.checkpoints);
    e["restores"] = Json::integer(r.restores);
    e["fault_free_seconds"] = Json::number(r.fault_free_seconds);
    e["chaos_seconds"] = Json::number(r.chaos_seconds);
    if (!r.note.empty()) e["note"] = Json::string(r.note);
    if (!r.flight_dump.is_null()) e["flight"] = r.flight_dump;
    list.push_back(std::move(e));
  }
  root["total"] = Json::integer(static_cast<std::int64_t>(results.size()));
  root["passed"] = Json::integer(passed);
  root["failed"] = Json::integer(static_cast<std::int64_t>(results.size()) - passed);
  return root;
}

}  // namespace msc::resilience
