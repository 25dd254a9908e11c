#include "dsl/program.hpp"

#include <chrono>
#include <sstream>

#include "codegen/codegen.hpp"
#include "ir/printer.hpp"
#include "ir/simplify.hpp"
#include "ir/verifier.hpp"
#include "support/error.hpp"

namespace msc::dsl {

TermSum operator+(TermH a, TermH b) { return {{std::move(a), std::move(b)}}; }
TermSum operator+(TermSum s, TermH b) {
  s.terms.push_back(std::move(b));
  return s;
}
TermH operator*(double w, TermH term) {
  term.weight *= w;
  return term;
}

KernelHandle& KernelHandle::tile(const std::vector<std::int64_t>& taus) {
  sched_->tile(taus);
  return *this;
}
KernelHandle& KernelHandle::split(const std::string& axis, std::int64_t tau,
                                  const std::string& outer, const std::string& inner) {
  sched_->split(axis, tau, outer, inner);
  return *this;
}
KernelHandle& KernelHandle::reorder(const std::vector<std::string>& order) {
  sched_->reorder(order);
  return *this;
}
KernelHandle& KernelHandle::parallel(const std::string& axis, int num_threads) {
  sched_->parallel(axis, num_threads);
  return *this;
}
KernelHandle& KernelHandle::vectorize(const std::string& axis) {
  sched_->vectorize(axis);
  return *this;
}
KernelHandle& KernelHandle::unroll(const std::string& axis, int factor) {
  sched_->unroll(axis, factor);
  return *this;
}
KernelHandle& KernelHandle::time_tile(std::int64_t depth, std::int64_t width) {
  sched_->time_tile(depth, width);
  return *this;
}
KernelHandle& KernelHandle::cache_read(const std::string& tensor, const std::string& buffer,
                                       const std::string& scope) {
  sched_->cache_read(tensor, buffer, scope);
  return *this;
}
KernelHandle& KernelHandle::cache_write(const std::string& buffer, const std::string& scope) {
  sched_->cache_write(buffer, scope);
  return *this;
}
KernelHandle& KernelHandle::compute_at(const std::string& buffer, const std::string& axis) {
  sched_->compute_at(buffer, axis);
  return *this;
}

TermH KernelHandle::operator[](TimeShift shift) const {
  MSC_CHECK(shift.offset < 0) << "kernel '" << kernel_->name()
                              << "' can only be applied at a previous timestep (use t-1, t-2)";
  return {kernel_, shift.offset, 1.0};
}

Program::Program(std::string name) : name_(std::move(name)) {
  MSC_CHECK(!name_.empty()) << "program needs a name";
}
Program::~Program() = default;

Var Program::var(const std::string& name) {
  MSC_CHECK(!name.empty()) << "variable needs a name";
  return Var(name);
}

GridRef Program::def_tensor_2d(const std::string& name, std::int64_t halo, ir::DataType dt,
                               std::int64_t ny, std::int64_t nx) {
  MSC_CHECK(!tensors_.contains(name)) << "tensor '" << name << "' already declared";
  auto t = ir::make_sp_tensor(name, dt, {ny, nx}, halo, /*time_window=*/1);
  tensors_[name] = t;
  return GridRef(t);
}
GridRef Program::def_tensor_3d(const std::string& name, std::int64_t halo, ir::DataType dt,
                               std::int64_t nz, std::int64_t ny, std::int64_t nx) {
  MSC_CHECK(!tensors_.contains(name)) << "tensor '" << name << "' already declared";
  auto t = ir::make_sp_tensor(name, dt, {nz, ny, nx}, halo, /*time_window=*/1);
  tensors_[name] = t;
  return GridRef(t);
}

GridRef Program::def_tensor_2d_timewin(const std::string& name, int time_deps, std::int64_t halo,
                                       ir::DataType dt, std::int64_t ny, std::int64_t nx) {
  MSC_CHECK(!tensors_.contains(name)) << "tensor '" << name << "' already declared";
  MSC_CHECK(time_deps >= 1) << "time window must cover at least one previous step";
  auto t = ir::make_sp_tensor(name, dt, {ny, nx}, halo, time_deps + 1);
  tensors_[name] = t;
  return GridRef(t);
}
GridRef Program::def_tensor_3d_timewin(const std::string& name, int time_deps, std::int64_t halo,
                                       ir::DataType dt, std::int64_t nz, std::int64_t ny,
                                       std::int64_t nx) {
  MSC_CHECK(!tensors_.contains(name)) << "tensor '" << name << "' already declared";
  MSC_CHECK(time_deps >= 1) << "time window must cover at least one previous step";
  auto t = ir::make_sp_tensor(name, dt, {nz, ny, nx}, halo, time_deps + 1);
  tensors_[name] = t;
  return GridRef(t);
}

KernelHandle& Program::kernel(const std::string& name, const std::vector<Var>& axes,
                              const ExprH& rhs) {
  MSC_CHECK(rhs.valid()) << "kernel '" << name << "' has an empty RHS";
  // The kernel writes a TeNode temporary shaped like its input grid; the
  // Stencil combination later aggregates temporaries into the result.
  auto accesses = ir::collect_accesses(rhs.ir());
  MSC_CHECK(!accesses.empty()) << "kernel '" << name << "' reads no grid";
  const ir::Tensor& input = accesses.front()->tensor;
  MSC_CHECK(static_cast<int>(axes.size()) == input->ndim())
      << "kernel '" << name << "': " << axes.size() << " axes for a " << input->ndim()
      << "-D grid";

  ir::AxisList axis_list;
  for (std::size_t d = 0; d < axes.size(); ++d) {
    ir::Axis ax;
    ax.id_var = axes[d].name();
    ax.order = static_cast<int>(d);
    ax.start = 0;
    ax.end = input->extent(static_cast<int>(d));
    ax.stride = 1;
    ax.dim = static_cast<int>(d);
    axis_list.push_back(ax);
  }
  auto output = ir::make_te_tensor(name + "_out", input);
  // Fold trivial algebra the operator overloading produced (x*1, +0, ...).
  auto k = ir::make_kernel(name, std::move(output), std::move(axis_list),
                           ir::simplify(rhs.ir()));
  ir::verify_or_throw(*k);
  kernels_.push_back(std::make_unique<KernelHandle>(k, schedule::default_schedule(k)));
  return *kernels_.back();
}

void Program::def_stencil(const std::string& name, const GridRef& result, TermSum combination) {
  MSC_CHECK(stencil_ == nullptr) << "program '" << name_ << "' already defines a stencil";
  std::vector<ir::TimeTerm> terms;
  for (auto& t : combination.terms) terms.push_back({t.kernel, t.time_offset, t.weight});
  stencil_ = ir::make_stencil(name, result.tensor(), std::move(terms));
  ir::verify_or_throw(*stencil_);
}
void Program::def_stencil(const std::string& name, const GridRef& result, TermH single_term) {
  def_stencil(name, result, TermSum{{std::move(single_term)}});
}

void Program::def_shape_mpi(const std::vector<int>& dims) {
  MSC_CHECK(!dims.empty() && dims.size() <= 3) << "MPI grid must be 1-D/2-D/3-D";
  for (int d : dims) MSC_CHECK(d >= 1) << "MPI grid extents must be positive";
  mpi_shape_.dims = dims;
}

const ir::StencilDef& Program::stencil() const {
  MSC_CHECK(stencil_ != nullptr) << "program '" << name_ << "' defines no stencil yet";
  return *stencil_;
}

const schedule::Schedule& Program::primary_schedule() const {
  MSC_CHECK(!kernels_.empty()) << "program '" << name_ << "' defines no kernel yet";
  return kernels_.front()->sched();
}

KernelHandle& Program::primary_kernel() {
  MSC_CHECK(!kernels_.empty()) << "program '" << name_ << "' defines no kernel yet";
  return *kernels_.front();
}

template <typename T>
exec::GridStorage<T>& Program::storage() {
  auto* s = std::get_if<exec::GridStorage<T>>(&state_);
  MSC_ASSERT(s != nullptr) << "state storage has the wrong element type";
  return *s;
}

void Program::ensure_storage() {
  if (!std::holds_alternative<std::monostate>(state_)) return;
  const auto& grid = stencil().state();
  if (grid->dtype() == ir::DataType::f32) {
    state_.emplace<exec::GridStorage<float>>(grid);
  } else if (grid->dtype() == ir::DataType::f64) {
    state_.emplace<exec::GridStorage<double>>(grid);
  } else {
    MSC_FAIL() << "state grids must be f32 or f64";
  }
}

void Program::input(const GridRef& grid, std::uint64_t seed) {
  MSC_CHECK(grid.tensor()->name() == stencil().state()->name())
      << "input() must target the stencil state grid '" << stencil().state()->name() << "'";
  ensure_storage();
  std::visit(
      [&](auto& s) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(s)>, std::monostate>) {
          for (int slot = 0; slot < s.slots(); ++slot)
            s.fill_random(slot, seed + static_cast<std::uint64_t>(slot) * 0x51ed2701);
        }
      },
      state_);
}

void Program::set_initial(
    const std::function<double(std::int64_t, std::array<std::int64_t, 3>)>& fn) {
  ensure_storage();
  const int window = stencil().time_window();
  std::visit(
      [&](auto& s) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(s)>, std::monostate>) {
          using T = std::decay_t<decltype(*s.slot_data(0))>;
          for (std::int64_t ts = 0; ts > -window; --ts) {
            const int slot = s.slot_for_time(ts);
            s.for_each_interior([&](std::array<std::int64_t, 3> c) {
              s.at(slot, c) = static_cast<T>(fn(ts, c));
            });
          }
        }
      },
      state_);
}

void Program::set_aux(const GridRef& grid,
                      const std::function<double(std::array<std::int64_t, 3>)>& fn,
                      exec::Boundary bc) {
  MSC_CHECK(grid.tensor() != nullptr) << "set_aux on an undeclared grid";
  bool is_aux = false;
  for (const auto& aux : stencil().aux_inputs()) is_aux |= aux->name() == grid.name();
  MSC_CHECK(is_aux) << "grid '" << grid.name() << "' is not an auxiliary input of the stencil";
  MSC_CHECK(grid.tensor()->dtype() == stencil().state()->dtype())
      << "auxiliary grid '" << grid.name() << "' must match the state dtype";

  auto& slot = aux_storage_[grid.name()];
  auto fill = [&](auto& storage) {
    using T = std::decay_t<decltype(*storage.slot_data(0))>;
    storage.for_each_interior(
        [&](std::array<std::int64_t, 3> c) { storage.at(0, c) = static_cast<T>(fn(c)); });
    storage.fill_halo(0, bc);
  };
  if (grid.tensor()->dtype() == ir::DataType::f32) {
    slot.emplace<exec::GridStorage<float>>(grid.tensor());
    fill(std::get<exec::GridStorage<float>>(slot));
  } else {
    slot.emplace<exec::GridStorage<double>>(grid.tensor());
    fill(std::get<exec::GridStorage<double>>(slot));
  }
}

void Program::bind(const std::string& var, double value) { bindings_[var] = value; }

RunResult Program::run(std::int64_t t_begin, std::int64_t t_end, exec::Boundary bc) {
  ensure_storage();
  for (const auto& aux : stencil().aux_inputs())
    MSC_CHECK(aux_storage_.contains(aux->name()))
        << "auxiliary grid '" << aux->name() << "' was never filled (call set_aux first)";

  RunResult result;
  const bool affine = exec::linearize_stencil(stencil(), bindings_).has_value();
  last_info_ = {};

  const auto start = std::chrono::steady_clock::now();
  std::visit(
      [&](auto& s) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(s)>, std::monostate>) {
          using T = std::decay_t<decltype(*s.slot_data(0))>;
          if (affine) {
            exec::ExecOptions opts;
            opts.backend = backend_;
            exec::run_scheduled(stencil(), primary_schedule(), s, t_begin, t_end, bc,
                                bindings_, &result.stats, opts, &last_info_);
          } else {
            exec::AuxGrids<T> aux;
            for (const auto& [name, var] : aux_storage_)
              aux[name] = &std::get<exec::GridStorage<T>>(var);
            exec::run_reference(stencil(), s, t_begin, t_end, bc, bindings_, &result.stats,
                                aux);
          }
        }
      },
      state_);
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  last_t_end_ = t_end;
  return result;
}

double Program::relative_error_vs_reference(std::int64_t t_begin, std::int64_t t_end,
                                            exec::Boundary bc) {
  ensure_storage();
  // Only affine single-grid stencils have a distinct scheduled execution
  // path to compare; generic/multi-grid stencils already run the reference.
  if (!exec::linearize_stencil(stencil(), bindings_).has_value()) return 0.0;
  double err = 0.0;
  std::visit(
      [&](auto& s) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(s)>, std::monostate>) {
          // Copy the *current* state (including seeded slots), then rewind
          // both copies through the same time range with the two executors.
          auto scheduled = s;
          auto reference = s;
          exec::run_scheduled(stencil(), primary_schedule(), scheduled, t_begin, t_end, bc,
                              bindings_);
          exec::run_reference(stencil(), reference, t_begin, t_end, bc, bindings_);
          err = exec::max_relative_error(scheduled, scheduled.slot_for_time(t_end), reference,
                                         reference.slot_for_time(t_end));
        }
      },
      state_);
  return err;
}

double Program::value_at(std::int64_t t, std::array<std::int64_t, 3> coord) const {
  double v = 0.0;
  std::visit(
      [&](const auto& s) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(s)>, std::monostate>) {
          v = static_cast<double>(s.at(s.slot_for_time(t), coord));
        } else {
          MSC_FAIL() << "program has no allocated state (call input/set_initial first)";
        }
      },
      state_);
  return v;
}

std::string Program::compile_to_source_code(const std::string& target,
                                            const std::string& out_dir) {
  return codegen::generate(*this, target, out_dir);
}

std::string Program::dump() const {
  std::ostringstream out;
  out << "Program '" << name_ << "'\n";
  for (const auto& [name, t] : tensors_) {
    out << "  tensor " << name << " " << ir::dtype_name(t->dtype()) << " [";
    for (std::size_t d = 0; d < t->shape().size(); ++d)
      out << (d ? "," : "") << t->shape()[d];
    out << "] halo=" << t->halo() << " window=" << t->time_window() << "\n";
  }
  for (const auto& k : kernels_) out << ir::to_string(k->ir());
  if (stencil_ != nullptr) out << ir::to_string(*stencil_);
  if (!mpi_shape_.dims.empty()) {
    out << "  mpi grid [";
    for (std::size_t d = 0; d < mpi_shape_.dims.size(); ++d)
      out << (d ? "," : "") << mpi_shape_.dims[d];
    out << "]\n";
  }
  return out.str();
}

}  // namespace msc::dsl
