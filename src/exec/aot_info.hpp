#pragma once

// Lightweight AOT backend types shared with the DSL layer.
//
// exec::ExecOptions carries the AotOptions and exec::ExecInfo the
// AotExecInfo of a run, so executor.hpp (and through it the DSL) includes
// just these plain-data types — pulling the full exec/aot_backend.hpp
// (dlopen module machinery) into every consumer measurably perturbed code
// generation of unrelated hot kernels.

#include <string>

namespace msc::exec {

struct AotOptions {
  std::string cc = "cc";        ///< host C compiler driver
  std::string cache_dir;        ///< empty = <tmp>/msc_aot_cache
  bool force_recompile = false; ///< ignore (and overwrite) cached objects
  /// Compile budget in ms: on expiry the cc process group is killed, the
  /// plan is quarantined by the circuit breaker, and the run degrades to
  /// the in-process engines.  0 = take MSC_AOT_COMPILE_TIMEOUT_MS (default
  /// 120000); negative = wait forever.
  double compile_timeout_ms = 0.0;
};

/// Cache provenance of one AOT attempt (ExecInfo::fallback_reason says
/// why a failed attempt fell back).
struct AotExecInfo {
  bool aot = false;             ///< compiled module ran
  bool cache_hit = false;       ///< reused an on-disk .so (no cc invocation)
  bool quarantined = false;     ///< circuit breaker routed this plan around AOT
  int lanes = 0;                ///< the module's vector width (msc_aot_lanes); 0 = none loaded
  std::string plan_hash;        ///< cache key of the emitted kernel
  std::string module_path;      ///< the dlopen'd shared object
};

}  // namespace msc::exec
