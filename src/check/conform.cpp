#include "check/conform.hpp"

#include <chrono>
#include <cstdio>

#include "prof/counters.hpp"
#include "resilience/fault_plan.hpp"
#include "support/strings.hpp"
#include "workload/report.hpp"

namespace msc::check {

namespace {

/// Re-runs one oracle pair on a (possibly mutated) spec and reports whether
/// the same oracle still diverges from the reference — the shrink predicate.
bool oracle_still_fails(const CaseSpec& spec, Oracle failing, const OracleOptions& oopts,
                        std::int64_t max_ulps) {
  try {
    const OracleRun ref = run_oracle(spec, Oracle::Reference, oopts);
    if (!ref.ok) return false;
    const OracleRun cand = run_oracle(spec, failing, oopts);
    if (cand.skipped) return false;
    if (!cand.ok) return true;  // hard error counts as the same failure class
    return !compare_runs(ref, cand, max_ulps).match;
  } catch (const std::exception&) {
    return true;
  }
}

workload::Json spec_json(const CaseSpec& s) {
  auto j = workload::Json::object();
  j["seed"] = workload::Json::integer(static_cast<long long>(s.seed));
  j["ndim"] = workload::Json::integer(s.ndim);
  auto ext = workload::Json::array();
  for (int d = 0; d < s.ndim; ++d)
    ext.push_back(workload::Json::integer(
        static_cast<long long>(s.extent[static_cast<std::size_t>(d)])));
  j["extent"] = std::move(ext);
  j["radius"] = workload::Json::integer(static_cast<long long>(s.radius));
  j["time_window"] = workload::Json::integer(s.time_deps + 1);
  j["neighbors"] = workload::Json::integer(static_cast<long long>(s.neighbors.size()));
  j["timesteps"] = workload::Json::integer(static_cast<long long>(s.timesteps));
  j["tiled"] = workload::Json::boolean(s.tiled());
  j["reorder"] = workload::Json::boolean(s.reorder);
  j["parallel_threads"] = workload::Json::integer(s.parallel_threads);
  j["spm_pipeline"] = workload::Json::boolean(s.spm_pipeline);
  j["time_tile_depth"] = workload::Json::integer(static_cast<long long>(s.time_tile.depth));
  j["time_tile_width"] = workload::Json::integer(static_cast<long long>(s.time_tile.width));
  j["ranks"] = workload::Json::integer(s.rank_count());
  return j;
}

void write_report(const ConformOptions& opts, const ConformReport& report) {
  auto root = workload::Json::object();
  root["tool"] = workload::Json::string("msc-conform");
  root["seed"] = workload::Json::integer(static_cast<long long>(opts.seed));
  root["cases"] = workload::Json::integer(opts.cases);
  root["max_ulps"] = workload::Json::integer(static_cast<long long>(opts.max_ulps));
  root["passed"] = workload::Json::integer(report.cases_passed);
  root["failed"] = workload::Json::integer(report.cases_failed);
  root["faults_injected"] =
      workload::Json::integer(static_cast<long long>(report.faults_injected));
  root["seconds"] = workload::Json::number(report.seconds);

  // Per-oracle tallies across the sweep: verdicts, the cases per host
  // engine taken (oracles that go through run_scheduled), and the cases
  // run with a time_tile depth > 1.
  auto oracles = workload::Json::object();
  for (Oracle o : all_oracles()) {
    int pass = 0, fail = 0, skip = 0, time_tiled = 0;
    double secs = 0.0;
    auto routes = workload::Json::object();
    for (const auto& c : report.cases)
      for (const auto& r : c.oracles) {
        if (r.oracle != o) continue;
        (r.skipped ? skip : r.passed ? pass : fail) += 1;
        secs += r.seconds;
        if (r.skipped) continue;
        if (c.time_depth > 1) ++time_tiled;
        if (r.route.empty()) continue;
        const workload::Json* seen = routes.find(r.route);
        routes[r.route] = workload::Json::integer(seen != nullptr ? seen->as_integer() + 1 : 1);
      }
    if (pass + fail + skip == 0) continue;
    auto entry = workload::Json::object();
    entry["passed"] = workload::Json::integer(pass);
    entry["failed"] = workload::Json::integer(fail);
    entry["skipped"] = workload::Json::integer(skip);
    entry["seconds"] = workload::Json::number(secs);
    entry["time_tiled"] = workload::Json::integer(time_tiled);
    if (!routes.members().empty()) entry["routes"] = std::move(routes);
    oracles[oracle_name(o)] = std::move(entry);
  }
  root["oracles"] = std::move(oracles);

  auto failures = workload::Json::array();
  for (const auto& rep : report.reproducers) {
    auto f = workload::Json::object();
    f["seed"] = workload::Json::integer(static_cast<long long>(rep.seed));
    f["oracle"] = workload::Json::string(rep.failing_oracle);
    f["detail"] = workload::Json::string(rep.detail);
    f["shrunk_case"] = spec_json(rep.shrunk);
    auto steps = workload::Json::array();
    for (const auto& s : rep.shrink_steps) steps.push_back(workload::Json::string(s));
    f["shrink_steps"] = std::move(steps);
    failures.push_back(std::move(f));
  }
  root["failures"] = std::move(failures);

  workload::write_file(opts.report_path, root.dump() + "\n");
}

}  // namespace

std::string format_reproducer(const Reproducer& rep) {
  std::string out;
  out += strprintf("---- reproducer (seed %llu, oracle %s) ----\n",
                   static_cast<unsigned long long>(rep.seed), rep.failing_oracle.c_str());
  out += "mismatch: " + rep.detail + "\n";
  out += describe(rep.shrunk);
  if (!rep.shrink_steps.empty()) {
    out += strprintf("shrunk in %zu steps:\n", rep.shrink_steps.size());
    for (const auto& s : rep.shrink_steps) out += "  - " + s + "\n";
  }
  out += strprintf("replay: msc-conform --cases 1 --seed %llu --oracles reference,%s\n",
                   static_cast<unsigned long long>(rep.seed), rep.failing_oracle.c_str());
  return out;
}

ConformReport run_conformance(const ConformOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  ConformReport report;

  std::vector<Oracle> matrix = opts.oracles.empty() ? all_oracles() : opts.oracles;
  OracleOptions oopts;
  oopts.work_dir = opts.work_dir;
  oopts.coeff_perturb = opts.coeff_perturb;

  // Transport fault injection rides inside the simmpi oracle; a fault kind
  // name becomes a canned message-fault plan, anything else is a plan file.
  resilience::FaultPlan fault_plan;
  if (!opts.fault_inject.empty()) {
    if (const auto kind = resilience::fault_kind_from_name(opts.fault_inject))
      fault_plan = resilience::make_message_fault_plan(*kind, opts.seed, 3);
    else
      fault_plan = resilience::FaultPlan::load_file(opts.fault_inject);
    oopts.fault_plan = &fault_plan;
  }

  for (int n = 0; n < opts.cases; ++n) {
    const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(n);
    const CaseSpec spec = random_case(seed);
    CaseOutcome outcome;
    outcome.seed = seed;
    outcome.time_depth = spec.time_tile.depth;

    OracleRun ref = run_oracle(spec, Oracle::Reference, oopts);
    if (!ref.ok) {
      // The anchor itself failing is a harness bug, not a backend bug.
      outcome.passed = false;
      outcome.oracles.push_back(
          {Oracle::Reference, false, false, "reference oracle failed: " + ref.note, 0,
           ref.seconds, ref.route});
      std::printf("case %4d seed %llu: FAIL (reference: %s)\n", n,
                  static_cast<unsigned long long>(seed), ref.note.c_str());
    }

    for (Oracle o : matrix) {
      if (!ref.ok) break;
      if (o == Oracle::Reference) continue;
      const OracleRun run = run_oracle(spec, o, oopts);
      report.faults_injected += run.faults_injected;
      OracleOutcome oo;
      oo.oracle = o;
      oo.seconds = run.seconds;
      oo.route = run.route;
      if (run.skipped) {
        oo.skipped = true;
        oo.note = run.note;
      } else if (!run.ok) {
        oo.note = run.note;
      } else {
        const Comparison cmp = compare_runs(ref, run, opts.max_ulps);
        oo.passed = cmp.match;
        oo.worst_ulp = cmp.worst_ulp;
        oo.note = cmp.detail;
      }
      if (!oo.passed && !oo.skipped) {
        outcome.passed = false;
        std::printf("case %4d seed %llu: FAIL (%s: %s)\n", n,
                    static_cast<unsigned long long>(seed), oracle_name(o), oo.note.c_str());
        if (o == Oracle::Aot) {
          // Which way the AOT pipeline has been failing so far this run:
          // the labelled fallback counters say whether this is a missing
          // compiler, a codegen bug, or a loader problem at a glance.
          for (const auto& [cname, value] : prof::global_counters().snapshot())
            if (cname.rfind("aot.fallback.", 0) == 0)
              std::printf("  %-28s %lld\n", cname.c_str(), static_cast<long long>(value));
        }

        Reproducer rep;
        rep.seed = seed;
        rep.failing_oracle = oracle_name(o);
        rep.detail = oo.note;
        rep.shrunk = spec;
        if (opts.shrink) {
          const auto shrunk = shrink_case(spec, [&](const CaseSpec& s) {
            return oracle_still_fails(s, o, oopts, opts.max_ulps);
          });
          rep.shrunk = shrunk.spec;
          rep.shrink_steps = shrunk.steps;
        }
        std::fputs(format_reproducer(rep).c_str(), stdout);
        report.reproducers.push_back(std::move(rep));
      }
      outcome.oracles.push_back(std::move(oo));
    }

    if (outcome.passed) {
      ++report.cases_passed;
      if (opts.verbose) {
        std::string line = strprintf("case %4d seed %llu: ok (", n,
                                     static_cast<unsigned long long>(seed));
        std::vector<std::string> parts;
        for (const auto& oo : outcome.oracles)
          parts.push_back(std::string(oracle_name(oo.oracle)) + (oo.skipped ? ":skip" : ""));
        line += join(parts, " ") + ")";
        std::printf("%s\n", line.c_str());
      }
    } else {
      ++report.cases_failed;
    }
    report.cases.push_back(std::move(outcome));
  }

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::printf("conformance: %d/%d cases passed (%.2fs)\n", report.cases_passed, opts.cases,
              report.seconds);
  if (!opts.fault_inject.empty())
    std::printf("fault injection: %lld transport faults injected into simmpi\n",
                static_cast<long long>(report.faults_injected));
  if (!opts.report_path.empty()) {
    write_report(opts, report);
    std::printf("report: %s\n", opts.report_path.c_str());
  }
  return report;
}

int conform_exit_code(const ConformOptions& opts, const ConformReport& report) {
  if (!report.ok()) {
    // Genuine mismatches gate — unless this was a deliberate fault-injection
    // self-test, in which case failing cases are exactly what proves the
    // harness can detect the fault.  Transport faults (--fault-inject) are
    // the opposite self-test: the resilient transport must ABSORB them, so
    // mismatches gate there like anywhere else.
    return opts.coeff_perturb != 0.0 ? 0 : 1;
  }
  if (opts.coeff_perturb != 0.0) {
    // Fault injection that trips nothing is itself a failure: the chosen
    // oracle subset never compared the perturbed code against the
    // reference, so a green exit here would be vacuous.
    std::printf(
        "conformance: FAULT-INJECTION SELF-TEST FAILED — coeff perturbation %g "
        "was not detected by any oracle\n",
        opts.coeff_perturb);
    return 1;
  }
  if (!opts.fault_inject.empty() && report.faults_injected == 0) {
    // Same vacuous-pass policy for transport faults: a sweep that never
    // actually injected anything (e.g. simmpi not in the oracle subset, or
    // a plan whose filters match no message) proves nothing about recovery.
    std::printf(
        "conformance: FAULT-INJECTION SELF-TEST FAILED — transport fault plan "
        "'%s' injected no faults across the sweep\n",
        opts.fault_inject.c_str());
    return 1;
  }
  return 0;
}

}  // namespace msc::check
