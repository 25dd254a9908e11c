#include "exec/aot_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>

#include <dlfcn.h>
#include <unistd.h>

#include "codegen/aot_kernel.hpp"
#include "prof/counters.hpp"
#include "prof/flight.hpp"
#include "prof/log.hpp"
#include "support/env.hpp"
#include "support/shell.hpp"
#include "support/strings.hpp"

namespace msc::exec {

/// Stable slug for a fallback reason, used as the counter suffix
/// `aot.fallback.<slug>` so failure modes are countable individually (a
/// CI run where every fallback is `no_cc` reads very differently from one
/// where they are `compile_failed`).
const char* aot_fallback_slug(const std::string& reason) {
  const auto has = [&](const char* needle) {
    return reason.find(needle) != std::string::npos;
  };
  if (has("halo exchange")) return "boundary";
  if (has("C compiler")) return "no_cc";
  if (has("not affine")) return "not_affine";
  if (has("quarantined")) return "quarantined";
  if (has("compile timed out")) return "compile_timeout";
  if (has("compile failed")) return "compile_failed";
  if (has("dlopen failed")) return "dlopen_failed";
  if (has("missing msc_aot_")) return "missing_symbols";
  if (has("ABI")) return "abi_mismatch";
  if (has("cannot write") || has("short write") || has("cannot publish"))
    return "cache_io";
  return "other";
}

namespace {

// Circuit breaker state: plan hash -> why its compile was condemned.
std::mutex g_breaker_mutex;
std::map<std::string, std::string>& breaker() {
  static std::map<std::string, std::string> b;
  return b;
}

void quarantine_plan(const std::string& hash, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(g_breaker_mutex);
    breaker()[hash] = reason;
  }
  prof::counter("aot.breaker.quarantined").add(1);
  prof::LogEvent(prof::LogLevel::Warn, "exec.aot", "plan quarantined")
      .str("plan_hash", hash)
      .str("reason", reason);
}

}  // namespace

std::string aot_quarantine_reason(const std::string& plan_hash) {
  std::lock_guard<std::mutex> lock(g_breaker_mutex);
  const auto it = breaker().find(plan_hash);
  return it != breaker().end() ? it->second : std::string();
}

int aot_quarantined_count() {
  std::lock_guard<std::mutex> lock(g_breaker_mutex);
  return static_cast<int>(breaker().size());
}

void aot_breaker_reset() {
  std::lock_guard<std::mutex> lock(g_breaker_mutex);
  breaker().clear();
}

namespace detail {

namespace fs = std::filesystem;

namespace {

std::atomic<int> g_live_modules{0};

/// FNV-1a 64 over the cache-key material.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Probes (once per cc, cached) which optional flags the driver accepts.
/// The AOT module is compiled in the same numerics environment as the
/// sweep engine TU: -ffp-contract=off always, plus the host-ISA flags
/// when the driver knows them.
std::string compile_flags(const std::string& cc) {
  static std::mutex m;
  static std::map<std::string, std::string> cache;
  std::lock_guard<std::mutex> lock(m);
  auto it = cache.find(cc);
  if (it != cache.end()) return it->second;
  std::string flags = "-O2 -std=c99 -fPIC -shared -ffp-contract=off";
  for (const char* probe : {"-march=native", "-mprefer-vector-width=256"}) {
    // Bounded like host_cc_available: a wedged driver must cost a flag,
    // not stall the pipeline ahead of the budgeted compile.
    const auto r = run_shell(shell_quote(cc) + " " + probe +
                                 " -E -x c /dev/null >/dev/null 2>&1",
                             10000.0);
    if (r.ok) flags += std::string(" ") + probe;
  }
  cache.emplace(cc, flags);
  return flags;
}

fs::path default_cache_dir() { return fs::temp_directory_path() / "msc_aot_cache"; }

/// In-memory registry so concurrent users of the same plan share one
/// dlopen handle.  Weak: a module is dlclose'd as soon as the last
/// exec::ExecPlan holding it is dropped (a one-shot run_scheduled on return,
/// a dsl::Program when it re-lowers or is destroyed), which tests pin via
/// AotModule::live().
std::mutex g_registry_mutex;
std::map<std::string, std::weak_ptr<AotModule>>& registry() {
  static std::map<std::string, std::weak_ptr<AotModule>> r;
  return r;
}

std::shared_ptr<AotModule> open_module(const std::string& path, std::string* why) {
  void* handle = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    *why = strprintf("dlopen failed: %s", err != nullptr ? err : "unknown error");
    return nullptr;
  }
  auto mod = std::make_shared<AotModule>(handle, path);
  const auto sym = [&](const char* name) { return dlsym(handle, name); };
  auto* abi_fn = reinterpret_cast<int (*)()>(sym("msc_aot_abi"));
  auto* run_fn = reinterpret_cast<AotModule::RunFn>(sym("msc_aot_run"));
  auto* rows_fn = reinterpret_cast<AotModule::RowsFn>(sym("msc_aot_rows"));
  auto* pp_fn = reinterpret_cast<long (*)()>(sym("msc_aot_padded_points"));
  auto* win_fn = reinterpret_cast<int (*)()>(sym("msc_aot_window"));
  if (abi_fn == nullptr || run_fn == nullptr || rows_fn == nullptr || pp_fn == nullptr ||
      win_fn == nullptr) {
    *why = "module is missing msc_aot_* symbols";
    return nullptr;  // mod dtor dlcloses
  }
  if (abi_fn() != codegen::kMscAotAbiVersion) {
    *why = strprintf("module ABI %d != expected %d", abi_fn(), codegen::kMscAotAbiVersion);
    return nullptr;
  }
  mod->run = run_fn;
  mod->rows = rows_fn;
  mod->padded_points = static_cast<std::int64_t>(pp_fn());
  mod->window = win_fn();
  return mod;
}

bool write_file(const fs::path& p, const std::string& text, std::string* why) {
  std::FILE* f = std::fopen(p.string().c_str(), "w");
  if (f == nullptr) {
    *why = "cannot write " + p.string();
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) *why = "short write to " + p.string();
  return ok;
}

}  // namespace

AotModule::AotModule(void* handle, std::string path)
    : handle_(handle), path_(std::move(path)) {
  ++g_live_modules;
}

AotModule::~AotModule() {
  if (handle_ != nullptr) dlclose(handle_);
  --g_live_modules;
}

int AotModule::live() { return g_live_modules.load(); }

std::shared_ptr<AotModule> load_aot_module(const ir::StencilDef& st,
                                           const schedule::Schedule& sched,
                                           const Bindings& bindings, const AotOptions& opts,
                                           AotExecInfo* info, std::string* why,
                                           const CancelToken* cancel) {
  const auto lin = linearize_stencil(st, bindings);
  if (!lin.has_value()) {
    *why = "stencil is not affine (no linear form to specialize)";
    return nullptr;
  }
  return load_aot_module(st, sched, *lin, opts, info, why, cancel);
}

std::shared_ptr<AotModule> load_aot_module(const ir::StencilDef& st,
                                           const schedule::Schedule& sched,
                                           const LinearKernel& lin, const AotOptions& opts,
                                           AotExecInfo* info, std::string* why,
                                           const CancelToken* cancel) {
  if (cancel != nullptr) cancel->checkpoint("aot.emit");
  std::string source;
  std::string flags;
  std::string hash;
  {
    prof::FlightScope emit_flight(prof::FlightKind::AotEmit);
    source = codegen::gen_aot_kernel(codegen::make_aot_spec(st, sched, lin));
    flags = compile_flags(opts.cc);
    hash = strprintf("%016llx", static_cast<unsigned long long>(fnv1a(
                                    source + "\n" + flags + "\nabi " +
                                    std::to_string(codegen::kMscAotAbiVersion))));
    emit_flight.set_a(static_cast<std::int64_t>(source.size()));
  }
  if (info != nullptr) info->plan_hash = hash;

  // Circuit breaker gate: a plan whose compile already crashed or timed out
  // must not re-enter the pipeline — even its disk cache is suspect, and a
  // hung cc would stall every request touching the plan.
  const std::string condemned = aot_quarantine_reason(hash);
  if (!condemned.empty()) {
    if (info != nullptr) info->quarantined = true;
    *why = "plan quarantined (" + condemned + ")";
    return nullptr;
  }

  const fs::path dir = opts.cache_dir.empty() ? default_cache_dir() : fs::path(opts.cache_dir);
  const fs::path src = dir / (hash + ".c");
  const fs::path so = dir / (hash + ".so");
  if (info != nullptr) info->module_path = so.string();

  std::error_code ec;
  if (cancel != nullptr) cancel->checkpoint("aot.cache_probe");
  {
    // Cache probe phase: the in-memory registry (shared dlopen handle for
    // bench loops and parallel oracles), then the on-disk object.  A stale
    // or corrupt .so (failed dlopen / ABI check) is deleted and rebuilt
    // below instead of erroring.
    prof::FlightScope probe_flight(prof::FlightKind::AotCacheProbe);
    if (!opts.force_recompile) {
      std::lock_guard<std::mutex> lock(g_registry_mutex);
      if (auto mod = registry()[hash].lock()) {
        if (info != nullptr) info->cache_hit = true;
        prof::counter("aot.cache.mem_hit").add(1);
        probe_flight.set_a(1);
        return mod;
      }
    }
    fs::create_directories(dir, ec);
    if (!opts.force_recompile && fs::exists(so)) {
      std::string stale_why;
      if (auto mod = open_module(so.string(), &stale_why)) {
        if (info != nullptr) info->cache_hit = true;
        prof::counter("aot.cache.disk_hit").add(1);
        probe_flight.set_a(1);
        std::lock_guard<std::mutex> lock(g_registry_mutex);
        registry()[hash] = mod;
        return mod;
      }
      prof::counter("aot.cache.stale_evicted").add(1);
      fs::remove(so, ec);
    }
  }

  if (!write_file(src, source, why)) return nullptr;
  if (cancel != nullptr) cancel->checkpoint("aot.compile");

  // Compile budget: the option (0 = MSC_AOT_COMPILE_TIMEOUT_MS, default
  // 120 s; negative = unbounded) clamped by the token's remaining deadline
  // so a hung cc can outlive neither.  run_shell kills the whole process
  // group on expiry.
  double budget_ms = opts.compile_timeout_ms;
  if (budget_ms == 0.0)
    budget_ms = env_double("MSC_AOT_COMPILE_TIMEOUT_MS", 120000.0, 1.0);
  if (budget_ms < 0.0) budget_ms = 0.0;  // run_shell: 0 = no timeout
  if (cancel != nullptr) {
    const double remain = cancel->budget_ms(budget_ms);
    if (std::isfinite(remain)) budget_ms = std::max(1.0, remain);
  }

  const fs::path tmp = so.string() + strprintf(".tmp.%d", static_cast<int>(::getpid()));
  const auto r = [&] {
    prof::FlightScope compile_flight(prof::FlightKind::AotCompile,
                                     static_cast<std::int64_t>(source.size()));
    return run_shell(shell_quote(opts.cc) + " " + flags + " -o " +
                     shell_quote(tmp.string()) + " " + shell_quote(src.string()) +
                     " -lm 2>&1",
                     budget_ms);
  }();
  prof::counter("aot.compile").add(1);
  if (!r.ok) {
    fs::remove(tmp, ec);
    if (r.timed_out) {
      // Deadline-driven kill cancels the run; budget-driven kill condemns
      // the plan and degrades.  Either way the cc process group is dead.
      if (cancel != nullptr) cancel->checkpoint("aot.compile");
      *why = strprintf("compile timed out after %.0f ms", budget_ms);
      quarantine_plan(hash, *why);
      return nullptr;
    }
    *why = "compile failed (" + r.describe() + "): " + r.output;
    if (r.signaled) quarantine_plan(hash, *why);
    return nullptr;
  }
  fs::rename(tmp, so, ec);  // atomic publish: concurrent compiles both win
  if (ec) {
    fs::remove(tmp, ec);
    *why = "cannot publish " + so.string();
    return nullptr;
  }

  if (cancel != nullptr) cancel->checkpoint("aot.dlopen");
  auto mod = [&] {
    prof::FlightScope dlopen_flight(prof::FlightKind::AotDlopen);
    return open_module(so.string(), why);
  }();
  if (mod == nullptr) return nullptr;
  prof::counter("aot.dlopen").add(1);
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  registry()[hash] = mod;
  return mod;
}

}  // namespace detail

}  // namespace msc::exec
