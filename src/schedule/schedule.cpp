#include "schedule/schedule.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>

#include "ir/printer.hpp"
#include "ir/type.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc::schedule {

CacheScope parse_scope(const std::string& s) {
  if (s == "global") return CacheScope::Global;
  if (s == "local") return CacheScope::Local;
  MSC_FAIL() << "unknown cache scope '" << s << "' (expected \"global\" or \"local\")";
}

Schedule::Schedule(ir::KernelPtr kernel) : kernel_(std::move(kernel)) {
  MSC_CHECK(kernel_ != nullptr) << "schedule needs a kernel";
  axes_ = kernel_->axes();
  touch();
}

void Schedule::touch() {
  static std::atomic<std::uint64_t> next{1};
  revision_ = next.fetch_add(1, std::memory_order_relaxed);
}

int Schedule::require_axis(const std::string& name) const {
  const int idx = ir::find_axis(axes_, name);
  MSC_CHECK(idx >= 0) << "kernel '" << kernel_->name() << "': no axis named '" << name
                      << "' in current nest";
  return idx;
}

const CacheBuffer* Schedule::find_cache(const std::string& buffer) const {
  for (const auto& c : caches_)
    if (c.name == buffer) return &c;
  return nullptr;
}

Schedule& Schedule::split(const std::string& axis, std::int64_t tau,
                          const std::string& outer_name, const std::string& inner_name) {
  touch();
  MSC_CHECK(tau >= 1) << "split factor must be >= 1, got " << tau;
  const int idx = require_axis(axis);
  ir::Axis& src = axes_[static_cast<std::size_t>(idx)];
  MSC_CHECK(src.role == ir::AxisRole::Original)
      << "axis '" << axis << "' was already produced by a split; re-splitting is unsupported";
  MSC_CHECK(ir::find_axis(axes_, outer_name) < 0) << "axis '" << outer_name << "' already exists";
  MSC_CHECK(ir::find_axis(axes_, inner_name) < 0) << "axis '" << inner_name << "' already exists";
  MSC_CHECK(!src.parallel) << "cannot split axis '" << axis << "' after parallel()";

  const std::int64_t extent = src.end - src.start;
  MSC_CHECK(tau <= extent) << "split factor " << tau << " exceeds extent " << extent
                           << " of axis '" << axis << "'";

  ir::Axis outer;
  outer.id_var = outer_name;
  outer.start = 0;
  outer.end = (extent + tau - 1) / tau;  // ceil-div so remainders are covered
  outer.stride = 1;
  outer.role = ir::AxisRole::Outer;
  outer.dim = src.dim;
  outer.tile_size = tau;

  ir::Axis inner;
  inner.id_var = inner_name;
  inner.start = 0;
  inner.end = tau;
  inner.stride = 1;
  inner.role = ir::AxisRole::Inner;
  inner.dim = src.dim;

  axes_.erase(axes_.begin() + idx);
  axes_.insert(axes_.begin() + idx, inner);
  axes_.insert(axes_.begin() + idx, outer);
  ir::renumber(axes_);
  return *this;
}

Schedule& Schedule::tile(const std::vector<std::int64_t>& taus) {
  MSC_CHECK(taus.size() == kernel_->axes().size())
      << "tile() expects one factor per original axis (" << kernel_->axes().size() << "), got "
      << taus.size();
  // Tile from outermost to innermost, using each original axis's name as
  // the "<name>_outer"/"<name>_inner" pair, matching the paper's Fig. 4(b).
  const auto original = kernel_->axes();
  for (std::size_t d = 0; d < original.size(); ++d) {
    const auto& name = original[d].id_var;
    split(name, taus[d], name + "_outer", name + "_inner");
  }
  return *this;
}

Schedule& Schedule::reorder(const std::vector<std::string>& order) {
  touch();
  MSC_CHECK(order.size() == axes_.size())
      << "reorder() must name all " << axes_.size() << " axes, got " << order.size();
  ir::AxisList next;
  std::set<std::string> seen;
  for (const auto& name : order) {
    MSC_CHECK(seen.insert(name).second) << "reorder() names axis '" << name << "' twice";
    next.push_back(axes_[static_cast<std::size_t>(require_axis(name))]);
  }
  axes_ = std::move(next);
  ir::renumber(axes_);
  return *this;
}

Schedule& Schedule::parallel(const std::string& axis, int num_threads) {
  touch();
  MSC_CHECK(num_threads >= 1) << "parallel() thread count must be >= 1";
  const int idx = require_axis(axis);
  for (const auto& ax : axes_)
    MSC_CHECK(!ax.parallel) << "axis '" << ax.id_var << "' is already parallel; only one "
                            << "parallel axis is supported";
  axes_[static_cast<std::size_t>(idx)].parallel = true;
  axes_[static_cast<std::size_t>(idx)].num_threads = num_threads;
  return *this;
}

Schedule& Schedule::vectorize(const std::string& axis) {
  touch();
  const int idx = require_axis(axis);
  MSC_CHECK(idx == static_cast<int>(axes_.size()) - 1)
      << "vectorize() applies to the innermost axis only; '" << axis << "' is at depth " << idx;
  axes_[static_cast<std::size_t>(idx)].vectorize = true;
  return *this;
}

Schedule& Schedule::unroll(const std::string& axis, int factor) {
  touch();
  MSC_CHECK(factor >= 2) << "unroll factor must be >= 2, got " << factor;
  const int idx = require_axis(axis);
  auto& ax = axes_[static_cast<std::size_t>(idx)];
  MSC_CHECK(ax.unroll == 0) << "axis '" << axis << "' is already unrolled";
  MSC_CHECK(factor <= ax.trip_count())
      << "unroll factor " << factor << " exceeds trip count " << ax.trip_count();
  ax.unroll = factor;
  return *this;
}

Schedule& Schedule::time_tile(std::int64_t depth, std::int64_t width) {
  touch();
  MSC_CHECK(depth >= 1) << "time_tile depth must be >= 1, got " << depth;
  MSC_CHECK(width >= 0) << "time_tile width must be >= 0, got " << width;
  time_depth_ = depth;
  time_width_ = width;
  return *this;
}

Schedule& Schedule::cache_read(const std::string& tensor, const std::string& buffer,
                               const std::string& scope) {
  touch();
  bool reads_tensor = false;
  for (const auto& in : kernel_->inputs())
    if (in->name() == tensor) reads_tensor = true;
  MSC_CHECK(reads_tensor) << "cache_read: kernel '" << kernel_->name() << "' never reads tensor '"
                          << tensor << "'";
  MSC_CHECK(find_cache(buffer) == nullptr) << "cache buffer '" << buffer << "' already bound";
  caches_.push_back({buffer, tensor, /*is_read=*/true, parse_scope(scope), ""});
  return *this;
}

Schedule& Schedule::cache_write(const std::string& buffer, const std::string& scope) {
  touch();
  MSC_CHECK(find_cache(buffer) == nullptr) << "cache buffer '" << buffer << "' already bound";
  for (const auto& c : caches_)
    MSC_CHECK(c.is_read) << "only one write buffer is supported ('" << c.name
                         << "' is already bound)";
  caches_.push_back({buffer, kernel_->output()->name(), /*is_read=*/false, parse_scope(scope), ""});
  return *this;
}

Schedule& Schedule::compute_at(const std::string& buffer, const std::string& axis) {
  touch();
  require_axis(axis);
  for (auto& c : caches_) {
    if (c.name == buffer) {
      MSC_CHECK(c.compute_at.empty())
          << "buffer '" << buffer << "' already positioned at '" << c.compute_at << "'";
      c.compute_at = axis;
      return *this;
    }
  }
  MSC_FAIL() << "compute_at: unknown cache buffer '" << buffer
             << "' (bind it with cache_read/cache_write first)";
}

std::int64_t Schedule::tile_extent(int dim) const {
  for (const auto& ax : axes_)
    if (ax.dim == dim && ax.role == ir::AxisRole::Outer) return ax.tile_size;
  // Never split: the tile covers the whole dimension.
  for (const auto& ax : axes_)
    if (ax.dim == dim && ax.role == ir::AxisRole::Original) return ax.end - ax.start;
  MSC_FAIL() << "tile_extent: kernel '" << kernel_->name() << "' has no dimension " << dim;
}

int Schedule::parallel_axis_index() const {
  for (std::size_t n = 0; n < axes_.size(); ++n)
    if (axes_[n].parallel) return static_cast<int>(n);
  return -1;
}

int Schedule::parallel_threads() const {
  const int idx = parallel_axis_index();
  return idx < 0 ? 1 : axes_[static_cast<std::size_t>(idx)].num_threads;
}

int Schedule::compute_at_depth(const CacheBuffer& buf) const {
  if (buf.compute_at.empty()) return -1;
  return ir::find_axis(axes_, buf.compute_at);
}

bool Schedule::has_spm_pipeline() const {
  bool has_read = false, has_write = false;
  for (const auto& c : caches_) {
    if (c.is_read && !c.compute_at.empty()) has_read = true;
    if (!c.is_read && !c.compute_at.empty()) has_write = true;
  }
  return has_read && has_write;
}

std::vector<std::int64_t> Schedule::spm_tile_shape() const {
  const CacheBuffer* read = nullptr;
  for (const auto& c : caches_)
    if (c.is_read && !c.compute_at.empty()) read = &c;
  if (read == nullptr) return {};
  const int at = compute_at_depth(*read);

  const int ndim = kernel_->output()->ndim();
  std::vector<std::int64_t> shape(static_cast<std::size_t>(ndim), 1);
  for (int d = 0; d < ndim; ++d) {
    for (std::size_t n = 0; n < axes_.size(); ++n) {
      if (axes_[n].dim != d || static_cast<int>(n) <= at) continue;
      auto& s = shape[static_cast<std::size_t>(d)];
      if (axes_[n].role == ir::AxisRole::Inner)
        s = std::max(s, axes_[n].end - axes_[n].start);
      else
        s = std::max<std::int64_t>(s, axes_[n].trip_count());
    }
  }
  return shape;
}

std::int64_t Schedule::spm_tile_elements() const {
  // Dimensions iterated *inside* the compute_at level contribute their tile
  // extent (+ halo for the read side); dimensions whose loops are outside
  // contribute a single plane.
  const auto shape = spm_tile_shape();
  if (shape.empty()) return 0;
  const auto& radius = kernel_->stats().radius;
  std::int64_t elems = 1;
  for (std::size_t d = 0; d < shape.size(); ++d) elems *= shape[d] + 2 * radius[d];
  return elems;
}

std::int64_t Schedule::spm_bytes() const {
  const auto esz = static_cast<std::int64_t>(ir::dtype_size(kernel_->output()->dtype()));
  std::int64_t bytes = 0;
  for (const auto& c : caches_) {
    if (c.compute_at.empty()) continue;
    if (c.is_read) {
      bytes += spm_tile_elements() * esz;
    } else {
      // Write buffer holds the interior tile only (no halo).
      std::int64_t elems = 1;
      for (int d = 0; d < kernel_->output()->ndim(); ++d) elems *= tile_extent(d);
      bytes += elems * esz;
    }
  }
  return bytes;
}

std::string Schedule::to_string() const {
  std::ostringstream out;
  out << "schedule of kernel '" << kernel_->name() << "':\n" << ir::to_string(axes_);
  for (const auto& c : caches_) {
    out << (c.is_read ? "cache_read " : "cache_write ") << c.name << " <- " << c.tensor
        << " scope=" << (c.scope == CacheScope::Global ? "global" : "local");
    if (!c.compute_at.empty()) out << " compute_at=" << c.compute_at;
    out << "\n";
  }
  if (time_depth_ > 1)
    out << "time_tile depth=" << time_depth_ << " width=" << time_width_ << "\n";
  return out.str();
}

SchedulePtr default_schedule(ir::KernelPtr kernel) {
  return std::make_shared<Schedule>(std::move(kernel));
}

}  // namespace msc::schedule
