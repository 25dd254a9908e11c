#pragma once

// AOT code generation (paper §3 "backend" + §4.3 Listing 2).
//
// MSC generates standard C sources plus a Makefile so the native compilers
// on the target machines build the final binary (the paper's AOT rationale:
// Sunway has no JIT).  Targets:
//
//   "c"       — portable serial C (always compilable; used as the
//               correctness anchor in integration tests)
//   "openmp"  — homogeneous many-core (Matrix MT2000+): OpenMP pragmas on
//               the parallel axis, vectorization hint on the inner axis
//   "sunway"  — heterogeneous many-core (SW26010): a master (MPE) source
//               and a slave (CPE) source using the Athread paradigm with
//               SPM buffers and DMA get/put at the compute_at level
//   "openacc" — annotated serial C in the style of the paper's Sunway
//               OpenACC baseline (used for the Table-6 LoC comparison)
//
// When the program declares an MPI grid, every generated main carries the
// halo-exchange calls (pack / MPI_Isend / MPI_Irecv / unpack), guarded by
// MSC_WITH_MPI so the source still compiles without an MPI toolchain.

#include <map>
#include <string>

#include "exec/linearize.hpp"
#include "ir/stencil.hpp"
#include "schedule/schedule.hpp"

namespace msc::dsl {
class Program;
struct MpiShape;
}  // namespace msc::dsl

namespace msc::codegen {

/// Everything a backend needs to emit code for one stencil program.
struct GenContext {
  const ir::StencilDef* stencil = nullptr;
  const schedule::Schedule* sched = nullptr;
  exec::LinearKernel linear;       ///< combined affine form of the stencil
  std::string prog_name;
  std::vector<int> mpi_dims;       ///< empty = single node
  std::int64_t timesteps = 10;     ///< default time range emitted in main()

  /// Conformance hook (src/check): when set, the generated main() accepts a
  /// second CLI argument after the timestep count and then prints every
  /// interior value of the final slot ("%.17g", row-major) so oracles can
  /// compare grids element-wise, not just by checksum.  Off by default so
  /// normal AOT output (and the golden snapshots) stays unchanged.
  bool emit_grid_dump = false;
};

/// All files generated for one target, keyed by file name.
struct GenResult {
  std::map<std::string, std::string> files;
  std::string main_file;  ///< key of the primary source file
};

/// The one (stencil, schedule, linear form) -> GenContext constructor.
/// `lin` must be the stencil's linearization; it is passed in so callers
/// that already linearized don't pay it twice.  The context points at
/// `st` and `sched`, which must outlive it.
GenContext make_aot_spec(const ir::StencilDef& st, const schedule::Schedule& sched,
                         const exec::LinearKernel& lin);

/// Builds a GenContext from a DSL program (linearizes the stencil; throws
/// if the stencil leaves the affine fragment) through make_aot_spec.
GenContext make_context(const dsl::Program& prog);

/// Generates all files for `target`; writes them under `out_dir` when
/// non-empty and returns the primary source text.
std::string generate(const dsl::Program& prog, const std::string& target,
                     const std::string& out_dir);

/// File-set variant used by tests and the Table-6 bench.
GenResult generate_files(const GenContext& ctx, const std::string& target);

// Per-backend entry points (exposed for tests).
GenResult gen_c(const GenContext& ctx);
GenResult gen_openmp(const GenContext& ctx);
GenResult gen_athread(const GenContext& ctx);
GenResult gen_openacc(const GenContext& ctx);

/// Makefile matching the target's toolchain.
std::string gen_makefile(const GenContext& ctx, const std::string& target);

/// The pthread host-simulation header emitted next to Sunway sources
/// (build with -DMSC_HOST_SIM to run the athread target on any host).
std::string athread_shim_source();

}  // namespace msc::codegen
