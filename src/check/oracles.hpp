#pragma once

// The conformance oracle matrix (paper's central equivalence claim, §5.1):
// one CaseSpec is executed through every available lowering of the same
// MSC program and the final grids are compared element-wise.
//
//   reference    — serial full-row sweep (exec::run_reference), the anchor
//   scheduled    — the scheduled host executor (exec::run_scheduled);
//                  fails unless it took the route the case asks for (the
//                  wedges for a time_tile depth > 1, else the row sweep)
//   c            — AOT-generated serial C, compiled with the host cc and run
//   openmp       — AOT-generated OpenMP (Matrix) source, compiled and run
//   athread      — AOT-generated Sunway master/slave pair under the pthread
//                  host-sim shim (-DMSC_HOST_SIM)
//   sunway-sim   — the functional SW26010 core-group simulator (SPM + DMA)
//   simmpi       — cartesian decomposition over the simulated MPI runtime
//                  with real halo exchanges, gathered back to the global grid
//   aot          — the AOT dlopen host backend (exec/aot_backend): the plan
//                  is emitted as specialized C, compiled with the host cc,
//                  dlopen'd and dispatched in-process; skipped when no cc.
//                  With a time_tile depth > 1 the module's time-unrolled
//                  msc_aot_run must also reproduce the stepped run's bits
//
// All oracles seed the state grid identically (seed 42 + 0x51ed2701 * slot,
// the scheme shared by Program::input and the generated mains), so agreeing
// backends produce bit-identical grids; comparisons still allow a small ULP
// budget for backends that accumulate in a different association order.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/case_gen.hpp"

namespace msc::resilience {
struct FaultPlan;
}

namespace msc::check {

enum class Oracle {
  Reference,
  Scheduled,
  GenC,
  GenOpenMp,
  AthreadSim,
  SunwaySim,
  SimMpi,
  Aot,
};

/// CLI name of an oracle ("reference", "c", "athread", ...).
const char* oracle_name(Oracle o);

/// Every oracle, reference first.
const std::vector<Oracle>& all_oracles();

/// Parses a CLI oracle name; nullopt on unknown names.
std::optional<Oracle> oracle_from_name(const std::string& name);

/// True when this oracle shells out to the host C compiler.
bool oracle_needs_cc(Oracle o);

/// One oracle execution of one case.
struct OracleRun {
  bool ok = false;            ///< produced a grid (false: error or skipped)
  bool skipped = false;       ///< precondition unmet (no cc, SPM overflow)
  std::string note;           ///< skip / error reason
  std::vector<double> values; ///< row-major interior of the final timestep
  double checksum = 0.0;      ///< row-major interior sum
  double seconds = 0.0;       ///< wall time of this oracle run
  std::string route;          ///< host engine run_scheduled took (exec::route_name);
                              ///< empty for oracles that do not go through it
  std::int64_t faults_injected = 0;  ///< transport faults (simmpi + fault_plan)
};

struct OracleOptions {
  std::string work_dir;       ///< scratch dir for compiled backends
  std::string cc = "cc";      ///< host C compiler driver
  /// Fault-injection hook: added to the first emitted coefficient of the
  /// popen'd compiled backends (c / openmp / athread) before code
  /// generation.  Simulates an emitter bug so the harness (and its tests)
  /// can prove divergence is actually caught.
  double coeff_perturb = 0.0;
  /// Transport fault plan for the simmpi oracle (not owned; nullptr = off).
  /// Message faults are expected to be absorbed by the resilient transport,
  /// so the oracle still matches the reference; the injection count lands in
  /// OracleRun::faults_injected for the vacuous-pass gate.
  const resilience::FaultPlan* fault_plan = nullptr;
};

/// Probes once whether `cc` exists on PATH (result cached per compiler).
bool compiler_available(const std::string& cc = "cc");

/// Runs `spec` through one oracle.
OracleRun run_oracle(const CaseSpec& spec, Oracle o, const OracleOptions& opts);

/// Ordered-bit ULP distance between two doubles (large for sign mismatch).
std::int64_t ulp_distance(double a, double b);

/// Element-wise grid comparison verdict.
struct Comparison {
  bool match = true;
  std::int64_t worst_ulp = 0;
  std::string detail;  ///< first mismatching element, for diagnostics
};

/// Compares two oracle grids element-wise: values agree when within
/// `max_ulps` ordered-bit steps or an absolute 1e-13 floor (cancellation
/// near zero), and the checksums must agree to 1e-9 relative.
Comparison compare_runs(const OracleRun& baseline, const OracleRun& candidate,
                        std::int64_t max_ulps);

}  // namespace msc::check
