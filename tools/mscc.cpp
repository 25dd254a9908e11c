// mscc — the MSC command-line compiler driver.
//
// Reads a textual stencil spec (src/frontend/spec.hpp documents the
// format), then any combination of:
//   * AOT code generation for a backend target,
//   * host execution of a time range with §5.1 validation,
//   * a dump of the built IR/schedule.
//
//   $ mscc stencil.msc --target sunway --out gen/
//   $ mscc stencil.msc --run 50 --validate
//   $ mscc stencil.msc --dump

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "frontend/spec.hpp"
#include "support/error.hpp"
#include "workload/report.hpp"

namespace {

void usage() {
  std::printf(
      "usage: mscc <spec-file> [options]\n"
      "  --target <c|openmp|sunway|openacc>   AOT-generate sources for a backend\n"
      "  --out <dir>                          output directory (default: msc_out)\n"
      "  --run <steps>                        execute on the host and report stats\n"
      "  --backend <sweep|aot>                host engine for --run: the in-process\n"
      "                                       sweep executor (default) or the AOT\n"
      "                                       dlopen backend (specialized C compiled\n"
      "                                       with the host cc; falls back to sweep\n"
      "                                       when no compiler is available)\n"
      "  --validate                           compare against the serial reference\n"
      "  --dump                               print the built program IR\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }

  std::string spec_path = argv[1];
  std::string target, out_dir = "msc_out", backend = "sweep";
  long run_steps = 0;
  bool validate = false, dump = false;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "mscc: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--target") {
      target = next();
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--run") {
      run_steps = std::atol(next());
    } else if (arg == "--backend") {
      backend = next();
      if (backend != "sweep" && backend != "aot") {
        std::fprintf(stderr, "mscc: unknown backend '%s' (sweep, aot)\n", backend.c_str());
        return 2;
      }
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "mscc: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  try {
    std::ifstream in(spec_path);
    if (!in.good()) {
      std::fprintf(stderr, "mscc: cannot read spec file '%s'\n", spec_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();

    auto prog = msc::frontend::program_from_spec(text.str());
    std::printf("mscc: built program '%s'\n", prog->name().c_str());

    if (dump) std::printf("%s", prog->dump().c_str());

    if (!target.empty()) {
      prog->compile_to_source_code(target, out_dir);
      std::printf("mscc: generated %s sources under %s/\n", target.c_str(), out_dir.c_str());
    }

    if (run_steps > 0) {
      if (backend == "aot") prog->set_backend(msc::dsl::HostBackend::Aot);
      prog->input(msc::dsl::GridRef(prog->stencil().state()), 42);
      const auto result = prog->run(1, run_steps);
      std::printf("mscc: ran %ld steps over %lld points in %s\n", run_steps,
                  static_cast<long long>(result.stats.points_updated),
                  msc::workload::fmt_seconds(result.seconds).c_str());
      if (backend == "aot") {
        const auto& info = prog->last_exec_info();
        if (info.route == msc::exec::Route::Aot) {
          std::printf("mscc: aot backend: plan %s (%s, %d lanes) from %s\n",
                      info.aot.plan_hash.c_str(), info.aot.cache_hit ? "cache hit" : "compiled",
                      info.aot.lanes, info.aot.module_path.c_str());
        } else {
          std::printf("mscc: aot backend fell back to %s: %s\n",
                      msc::exec::route_name(info.route), info.fallback_reason.c_str());
        }
      }
      if (validate) {
        msc::exec::ExecInfo checked;
        const double err = prog->relative_error_vs_reference(1, run_steps,
                                                             msc::exec::Boundary::ZeroHalo, &checked);
        std::printf("mscc: max relative error vs serial reference: %.3g (route %s)\n", err,
                    msc::exec::route_name(checked.route));
        const double bound = prog->stencil().state()->dtype() == msc::ir::DataType::f64
                                 ? 1e-10
                                 : 1e-5;
        if (err >= bound) {
          std::fprintf(stderr, "mscc: VALIDATION FAILED (bound %.0e)\n", bound);
          return 1;
        }
        std::printf("mscc: validation passed (bound %.0e)\n", bound);
      }
    } else if (validate) {
      std::fprintf(stderr, "mscc: --validate requires --run\n");
      return 2;
    }
  } catch (const msc::Error& e) {
    std::fprintf(stderr, "mscc: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
