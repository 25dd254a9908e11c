#pragma once

// The AOT dlopen host backend: per lowered plan, emit a specialized C
// kernel (codegen/aot_kernel.hpp, a driver of the shared C emitter),
// compile it with the host cc into a shared object, dlopen it, and
// dispatch timesteps through the compiled entry point.  The pipeline is
//
//   linearize -> make_aot_spec -> gen_aot_kernel     (emit)
//   -> <cache_dir>/<hash>.c -> cc -shared -> <hash>.so  (compile, cached)
//   -> dlopen + symbol/ABI checks                    (load)
//   -> msc_aot_rows(slot_ptrs, t, r0, r1)            (dispatch, in run_scheduled:
//                                                     per step, the schedule's
//                                                     dim-0 bands over the pool)
//
// The compile cache is keyed by an FNV-1a hash over the *generated source
// text*, the compile command flags, and the emitter ABI version — so any
// change to the codegen output, the flags, or the ABI lands on a new key
// and stale shared objects are never reused.  A cached .so that fails to
// dlopen or fails its ABI checks is deleted and rebuilt once.
//
// exec::run_scheduled (executor.hpp) takes this route under
// HostBackend::Aot.  Boundaries other than ZeroHalo, a missing host cc, or
// a failed compile fall back to the in-process engines and report why
// through ExecInfo — never silently.

#include <cstdint>
#include <memory>
#include <string>

#include "exec/aot_info.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "ir/stencil.hpp"
#include "schedule/schedule.hpp"

namespace msc::exec {

/// Stable slug classifying a fallback reason string — the suffix of the
/// labelled counter `aot.fallback.<slug>` (boundary, no_cc, not_affine,
/// compile_failed, compile_timeout, quarantined, dlopen_failed,
/// missing_symbols, abi_mismatch, cache_io, other).  msc-conform prints
/// these counters when an AOT oracle fails.
const char* aot_fallback_slug(const std::string& reason);

/// Circuit breaker over the AOT pipeline, keyed by plan hash.  A plan whose
/// compile crashed or exceeded its time budget is quarantined: every later
/// attempt skips the pipeline entirely and degrades to the sweep engine
/// with a counted `aot.fallback.quarantined` reason (re-running a compiler
/// that just hung would stall every request touching the plan).
/// Returns the quarantine reason, or empty when the plan is clear.
std::string aot_quarantine_reason(const std::string& plan_hash);

/// Number of quarantined plans (tests / ops visibility).
int aot_quarantined_count();

/// Clears the breaker (tests; a fixed compiler deserves a fresh chance).
void aot_breaker_reset();

namespace detail {

/// RAII over one dlopen'd kernel module; dlclose on destruction.  The
/// live() count exists so tests can pin the teardown contract (no handle
/// leaks across runs).
class AotModule {
 public:
  AotModule(void* handle, std::string path);
  ~AotModule();
  AotModule(const AotModule&) = delete;
  AotModule& operator=(const AotModule&) = delete;

  using RunFn = void (*)(void* const*, long, long);
  using RowsFn = void (*)(void* const*, long, long, long);
  RunFn run = nullptr;    ///< msc_aot_run: steps [t_begin, t_end], serial
  RowsFn rows = nullptr;  ///< msc_aot_rows: step t over dim-0 rows [r0, r1)
  std::int64_t padded_points = 0;
  int window = 0;
  const std::string& path() const { return path_; }

  /// Number of AotModule instances currently holding a dlopen handle.
  static int live();

 private:
  void* handle_ = nullptr;
  std::string path_;
};

/// Emits, compiles (or reuses), and loads the module for one stencil +
/// schedule.  Returns nullptr with `why` set on any failure — callers
/// decide whether that means skip, fallback, or error.  `cancel` is polled
/// between pipeline stages (probe / emit / compile / dlopen); the compile
/// itself runs under min(compile budget, remaining deadline) so a hung cc
/// cannot outlive either.  A fired token throws Cancelled.
std::shared_ptr<AotModule> load_aot_module(const ir::StencilDef& st,
                                           const schedule::Schedule& sched,
                                           const Bindings& bindings, const AotOptions& opts,
                                           AotExecInfo* info, std::string* why,
                                           const CancelToken* cancel = nullptr);

}  // namespace detail

}  // namespace msc::exec
