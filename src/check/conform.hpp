#pragma once

// The differential conformance driver behind tools/msc-conform: draws
// random cases, fans each one across the oracle matrix, compares every
// oracle against the reference grid, shrinks failures to minimal
// reproducers and writes an optional machine-readable JSON report.

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "check/shrink.hpp"

namespace msc::check {

struct ConformOptions {
  std::uint64_t seed = 1;        ///< seed of the first case (case n: seed+n)
  int cases = 25;
  std::vector<Oracle> oracles;   ///< empty = the full matrix
  std::int64_t max_ulps = 16;    ///< per-element comparison budget
  bool shrink = true;
  std::string work_dir;          ///< scratch dir for compiled backends
  std::string report_path;       ///< empty = no conform_report.json
  double coeff_perturb = 0.0;    ///< fault injection (see OracleOptions)
  /// Transport fault injection: a fault kind ("drop", "corrupt", "duplicate",
  /// "delay") or a path to a msc-fault-plan-v1 JSON file.  The plan runs
  /// inside the simmpi oracle, which must STILL match the reference (the
  /// resilient transport absorbs the faults); a sweep that injects nothing
  /// is vacuous and exits nonzero.
  std::string fault_inject;
  bool verbose = false;
};

/// One oracle-vs-reference verdict of one case.
struct OracleOutcome {
  Oracle oracle = Oracle::Reference;
  bool passed = false;
  bool skipped = false;
  std::string note;              ///< skip reason or mismatch detail
  std::int64_t worst_ulp = 0;
  double seconds = 0.0;
  std::string route;             ///< engine run_scheduled took (OracleRun::route)
};

struct CaseOutcome {
  std::uint64_t seed = 0;
  bool passed = true;
  std::int64_t time_depth = 1;   ///< the case's time_tile depth
  std::vector<OracleOutcome> oracles;
};

/// A shrunk failing case with its replay instructions.
struct Reproducer {
  std::uint64_t seed = 0;
  CaseSpec shrunk;
  std::string failing_oracle;
  std::string detail;
  std::vector<std::string> shrink_steps;
};

struct ConformReport {
  std::vector<CaseOutcome> cases;
  std::vector<Reproducer> reproducers;
  int cases_passed = 0;
  int cases_failed = 0;
  std::int64_t faults_injected = 0;  ///< transport faults across the sweep
  double seconds = 0.0;

  bool ok() const { return cases_failed == 0; }
};

/// Runs the conformance sweep.  Progress and reproducers go to stdout;
/// the JSON report (when requested) lands at `opts.report_path`.
ConformReport run_conformance(const ConformOptions& opts);

/// Exit-status policy shared by tools/msc-conform and the tests: nonzero
/// when any case failed — and also when fault injection was requested but
/// nothing tripped, since a vacuously "passing" self-test means the chosen
/// oracle subset never exercised the injected fault and must gate CI.
int conform_exit_code(const ConformOptions& opts, const ConformReport& report);

/// Formats a reproducer block (spec dump + replay command line).
std::string format_reproducer(const Reproducer& rep);

}  // namespace msc::check
