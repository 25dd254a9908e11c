#pragma once

// The MSC program builder — the DSL entry point (paper §4.2, Listing 1).
//
// A Program collects grid declarations, kernels (with their schedules),
// one Stencil composition, and the MPI-grid specification, then either
// executes on the host (run / run_reference, with §5.1-style relative-error
// validation) or AOT-generates C source + a Makefile for a backend target
// (compile_to_source_code).
//
//   Program prog("3d7pt");
//   Var k = prog.var("k"), j = prog.var("j"), i = prog.var("i");
//   GridRef B = prog.def_tensor_3d_timewin("B", 2, 1, ir::DataType::f64,
//                                          256, 256, 256);
//   KernelHandle& S = prog.kernel("S_3d7pt", {k, j, i},
//       c0*B(k,j,i) + c1*B(k,j,i-1) + ... );
//   S.tile({8, 8, 32})
//    .reorder({"k_outer","j_outer","i_outer","k_inner","j_inner","i_inner"})
//    .cache_read("B", "buf_in").cache_write("buf_out")
//    .compute_at("buf_in", "i_outer").compute_at("buf_out", "i_outer")
//    .parallel("k_outer", 64);
//   prog.def_stencil("st", B, S[prog.t() - 1] + S[prog.t() - 2]);
//   prog.def_shape_mpi({4, 4, 4});
//   prog.input(B, /*seed=*/42);
//   prog.run(1, 10);

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "dsl/expr.hpp"
#include "exec/executor.hpp"
#include "exec/grid.hpp"
#include "ir/kernel.hpp"
#include "ir/stencil.hpp"
#include "schedule/schedule.hpp"

namespace msc::dsl {

class Program;

/// The symbolic time variable (paper's `Stencil::t`); `t - n` selects the
/// output of a kernel n steps back.
struct TimeTag {};
struct TimeShift {
  int offset;
};
inline TimeShift operator-(TimeTag, int n) { return {-n}; }

/// One weighted kernel-at-time term, e.g. `0.5 * S[t-1]`.
struct TermH {
  ir::KernelPtr kernel;
  int time_offset = -1;
  double weight = 1.0;
};
/// Sum of terms forming a Stencil's temporal combination.
struct TermSum {
  std::vector<TermH> terms;
};
TermSum operator+(TermH a, TermH b);
TermSum operator+(TermSum s, TermH b);
TermH operator*(double w, TermH term);

/// Handle over a defined kernel exposing the schedule primitives with the
/// paper's names.  All primitives return *this for chaining.
class KernelHandle {
 public:
  KernelHandle(ir::KernelPtr kernel, schedule::SchedulePtr sched)
      : kernel_(std::move(kernel)), sched_(std::move(sched)) {}

  const ir::Kernel& ir() const { return *kernel_; }
  ir::KernelPtr ptr() const { return kernel_; }
  schedule::Schedule& sched() { return *sched_; }
  const schedule::Schedule& sched() const { return *sched_; }
  schedule::SchedulePtr sched_ptr() const { return sched_; }

  // Schedule primitives (paper §4.3).
  KernelHandle& tile(const std::vector<std::int64_t>& taus);
  KernelHandle& split(const std::string& axis, std::int64_t tau, const std::string& outer,
                      const std::string& inner);
  KernelHandle& reorder(const std::vector<std::string>& order);
  KernelHandle& parallel(const std::string& axis, int num_threads);
  KernelHandle& vectorize(const std::string& axis);
  KernelHandle& unroll(const std::string& axis, int factor);
  KernelHandle& time_tile(std::int64_t depth, std::int64_t width = 0);
  KernelHandle& cache_read(const std::string& tensor, const std::string& buffer,
                           const std::string& scope = "global");
  KernelHandle& cache_write(const std::string& buffer, const std::string& scope = "global");
  KernelHandle& compute_at(const std::string& buffer, const std::string& axis);

  /// Kernel applied at a previous timestep: S[t-1].
  TermH operator[](TimeShift shift) const;

 private:
  ir::KernelPtr kernel_;
  schedule::SchedulePtr sched_;
};

/// The MPI process-grid specification (paper's DefShapeMPI2D/3D).
struct MpiShape {
  std::vector<int> dims;
  int processes() const {
    int p = 1;
    for (int d : dims) p *= d;
    return p;
  }
};

/// Per-run execution summary returned by Program::run.
struct RunResult {
  exec::ExecStats stats;
  double seconds = 0.0;  ///< host wall-clock of the sweep loop
};

/// Host engine family Program::run asks exec::run_scheduled for.
using HostBackend = exec::HostBackend;

class Program {
 public:
  explicit Program(std::string name);
  ~Program();

  const std::string& name() const { return name_; }

  // ---- declarations ----------------------------------------------------
  Var var(const std::string& name);

  /// Grids without time windows (single-timestep stencils).
  GridRef def_tensor_2d(const std::string& name, std::int64_t halo, ir::DataType dt,
                        std::int64_t ny, std::int64_t nx);
  GridRef def_tensor_3d(const std::string& name, std::int64_t halo, ir::DataType dt,
                        std::int64_t nz, std::int64_t ny, std::int64_t nx);

  /// Grids with a sliding time window; `time_deps` is the number of
  /// previous timesteps the stencil reads (window = time_deps + 1 slots,
  /// paper Listing 1 + Fig. 5).
  GridRef def_tensor_2d_timewin(const std::string& name, int time_deps, std::int64_t halo,
                                ir::DataType dt, std::int64_t ny, std::int64_t nx);
  GridRef def_tensor_3d_timewin(const std::string& name, int time_deps, std::int64_t halo,
                                ir::DataType dt, std::int64_t nz, std::int64_t ny,
                                std::int64_t nx);

  /// Defines a kernel over the interior of its (single) input grid; `axes`
  /// order is outermost-first and must match subscript use.
  KernelHandle& kernel(const std::string& name, const std::vector<Var>& axes, const ExprH& rhs);

  /// The symbolic time variable for composing terms.
  TimeTag t() const { return {}; }

  /// Defines the stencil: result grid + temporal combination.
  void def_stencil(const std::string& name, const GridRef& result, TermSum combination);
  void def_stencil(const std::string& name, const GridRef& result, TermH single_term);

  /// MPI grid for large-scale code generation (paper's DefShapeMPI3D).
  void def_shape_mpi(const std::vector<int>& dims);

  // ---- execution ---------------------------------------------------------
  /// Allocates storage (if needed) and fills every initial window slot of
  /// the state grid with deterministic random values.
  void input(const GridRef& grid, std::uint64_t seed);

  /// Sets initial conditions analytically: fn(timestep, coord) -> value is
  /// invoked for the pre-run slots (timestep <= 0).
  void set_initial(const std::function<double(std::int64_t, std::array<std::int64_t, 3>)>& fn);

  /// Fills an auxiliary (read-only coefficient) grid used by the stencil's
  /// kernels: fn(coord) -> value over the interior; halos follow `bc`.
  /// The §5.6 multi-grid extension (e.g. WRF advection velocity fields).
  void set_aux(const GridRef& grid,
               const std::function<double(std::array<std::int64_t, 3>)>& fn,
               exec::Boundary bc = exec::Boundary::ZeroHalo);

  /// Executes timesteps t_begin..t_end with exec::run_scheduled, which
  /// picks the sweep, wedge (time_tile) or AOT engine; non-affine kernels
  /// run the reference executor.
  RunResult run(std::int64_t t_begin, std::int64_t t_end,
                exec::Boundary bc = exec::Boundary::ZeroHalo);

  /// Selects the host engine run() asks for on affine stencils.  The Aot
  /// backend compiles a specialized kernel with the host cc and falls back
  /// to the in-process engines (recorded in last_exec_info()) when it
  /// cannot run.
  void set_backend(HostBackend b) { backend_ = b; }
  HostBackend backend() const { return backend_; }

  /// What the most recent run() executed: the route taken, any fallback
  /// reason, and the wedge shape.  Reset by every run().
  const exec::ExecInfo& last_exec_info() const { return last_info_; }

  /// AOT cache provenance of the most recent run(): whether the dlopen'd
  /// module ran, the compile-cache verdict, plan hash and module path.
  const exec::AotExecInfo& last_aot_info() const { return last_info_.aot; }

  /// Executes with the serial reference executor into a *separate* copy of
  /// the state, then reports the max relative error of the last scheduled
  /// run — the paper's §5.1 correctness check.
  double relative_error_vs_reference(std::int64_t t_begin, std::int64_t t_end,
                                     exec::Boundary bc = exec::Boundary::ZeroHalo);

  /// Bind a coefficient variable used in kernel expressions to a value.
  void bind(const std::string& var, double value);

  // ---- code generation -----------------------------------------------
  /// AOT-generates backend source + Makefile; `target` is "c", "openmp"
  /// (Matrix) or "sunway".  Returns the generated main source text and
  /// writes files under `out_dir` when non-empty.
  std::string compile_to_source_code(const std::string& target,
                                     const std::string& out_dir = "");

  // ---- introspection ---------------------------------------------------
  const ir::StencilDef& stencil() const;
  bool has_stencil() const { return stencil_ != nullptr; }
  const MpiShape& mpi_shape() const { return mpi_shape_; }
  const exec::Bindings& bindings() const { return bindings_; }
  const schedule::Schedule& primary_schedule() const;

  /// Mutable handle of the first defined kernel (schedule access after the
  /// kernel() call returned, e.g. from workload helpers).
  KernelHandle& primary_kernel();

  /// Host grid value access for examples/tests (state grid, timestep t).
  double value_at(std::int64_t t, std::array<std::int64_t, 3> coord) const;

  /// Human-readable dump of the whole program.
  std::string dump() const;

 private:
  template <typename T>
  exec::GridStorage<T>& storage();
  void ensure_storage();

  std::string name_;
  std::map<std::string, ir::Tensor> tensors_;
  std::vector<std::unique_ptr<KernelHandle>> kernels_;
  ir::StencilPtr stencil_;
  MpiShape mpi_shape_;
  exec::Bindings bindings_;

  // Runtime state (allocated on demand).
  using StorageVariant =
      std::variant<std::monostate, exec::GridStorage<float>, exec::GridStorage<double>>;
  StorageVariant state_;
  std::map<std::string, StorageVariant> aux_storage_;
  std::int64_t last_t_end_ = 0;
  HostBackend backend_ = HostBackend::Sweep;
  exec::ExecInfo last_info_;
};

}  // namespace msc::dsl
