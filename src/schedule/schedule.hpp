#pragma once

// Schedule primitives (paper §4.3): tile, reorder, parallel, cache_read,
// cache_write, compute_at, plus a vectorize hint for homogeneous many-core
// backends.
//
// A Schedule owns a rewritable copy of the kernel's loop nest.  Primitives
// rewrite the Axis IR; the executor interprets the result and the code
// generators emit it.  Illegal rewrites (unknown axis, re-splitting an
// already-split axis, caching a tensor the kernel never reads, ...) throw
// msc::Error at primitive-application time so DSL users get errors at
// schedule construction, not at code generation.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/axis.hpp"
#include "ir/kernel.hpp"

namespace msc::schedule {

/// Scope of a cache buffer: `global` hoists the SPM allocation outside the
/// whole nest (allocated once, paper Fig. 4e); `local` re-allocates at the
/// compute_at level.
enum class CacheScope { Global, Local };
CacheScope parse_scope(const std::string& s);

/// A read or write staging buffer bound by cache_read / cache_write and
/// positioned by compute_at (paper's CacheRead/CacheWrite + compute_at).
struct CacheBuffer {
  std::string name;            ///< DSL buffer identifier
  std::string tensor;          ///< tensor bound to the buffer
  bool is_read = true;         ///< read buffer (DMA get) vs write buffer (DMA put)
  CacheScope scope = CacheScope::Global;
  std::string compute_at;      ///< axis whose body stages this buffer ("" = unset)
};

class Schedule {
 public:
  explicit Schedule(ir::KernelPtr kernel);

  const ir::Kernel& kernel() const { return *kernel_; }
  const ir::AxisList& axes() const { return axes_; }
  const std::vector<CacheBuffer>& caches() const { return caches_; }

  // ---- loop primitives -----------------------------------------------

  /// Splits `axis` into `outer_name` (trip = ceil(extent / tau)) and
  /// `inner_name` (trip = tau); the pair initially occupies the split
  /// axis's position (outer then inner).
  Schedule& split(const std::string& axis, std::int64_t tau, const std::string& outer_name,
                  const std::string& inner_name);

  /// Convenience matching the paper's tile(tx, ty, [tz], xo, xi, ...):
  /// splits every original axis at once.  `taus[d]` applies to dimension d
  /// (slowest first).  Axis names get the "_outer"/"_inner" suffix; the
  /// nest becomes (d0_outer, d0_inner, d1_outer, d1_inner, ...), which a
  /// subsequent reorder() typically rearranges.
  Schedule& tile(const std::vector<std::int64_t>& taus);

  /// Permutes the nest to the given order (must name every current axis
  /// exactly once).
  Schedule& reorder(const std::vector<std::string>& order);

  /// Marks `axis` for multi-threaded execution across `num_threads`
  /// workers.  Only one axis can be parallel, and no enclosing axis may
  /// already be parallel.
  Schedule& parallel(const std::string& axis, int num_threads);

  /// SIMD hint on the innermost axis (used by the OpenMP/Matrix backend).
  Schedule& vectorize(const std::string& axis);

  /// Unroll hint: the backends emit an unroll pragma on `axis`'s loop
  /// (classic stencil optimization next to vectorization, §1/§2.1).
  Schedule& unroll(const std::string& axis, int factor);

  /// Temporal wedge blocking for the host sweep engine: fuse `depth`
  /// timesteps per pass over time-skewed wedges of `width` rows of
  /// dimension 0 (0 = derive the width from the dim-0 tile at lowering).
  /// depth == 1 disables temporal blocking (the default).  Re-applying
  /// overrides the previous setting, so the tuner can search the knob.
  Schedule& time_tile(std::int64_t depth, std::int64_t width = 0);

  // ---- caching primitives ----------------------------------------------

  /// Binds input tensor `tensor` to an SPM read buffer.
  Schedule& cache_read(const std::string& tensor, const std::string& buffer,
                       const std::string& scope = "global");

  /// Binds the kernel output staging to an SPM write buffer.
  Schedule& cache_write(const std::string& buffer, const std::string& scope = "global");

  /// Positions buffer `buffer`'s DMA transfer at the start (reads) or end
  /// (writes) of the `axis` loop body.
  Schedule& compute_at(const std::string& buffer, const std::string& axis);

  // ---- queries used by executor, simulators and codegen ---------------

  /// Tile size applied to dimension `dim`, or the full extent when the
  /// dimension was never split.
  std::int64_t tile_extent(int dim) const;

  /// Temporal wedge parameters set by time_tile(); depth 1 / width 0 when
  /// the schedule carries no temporal blocking.
  std::int64_t time_tile_depth() const { return time_depth_; }
  std::int64_t time_tile_width() const { return time_width_; }

  /// Index of the parallel axis in the current nest, or -1.
  int parallel_axis_index() const;
  int parallel_threads() const;

  /// Nest depth (index) at which a buffer's compute_at sits, or -1.
  int compute_at_depth(const CacheBuffer& buf) const;

  /// True when both a read and a write buffer are bound (the Sunway-style
  /// SPM/DMA pipeline is fully specified).
  bool has_spm_pipeline() const;

  /// Per-tile element count of the read buffer incl. halo ("SPM working
  /// set"); dims never covered by a compute_at-enclosed loop count fully.
  std::int64_t spm_tile_elements() const;

  /// Per-dimension extent of the staged tile (halo excluded): the span of
  /// the loops *inside* the read buffer's compute_at level; 1 for
  /// dimensions whose coordinate is fixed at that level.  Empty when no
  /// positioned read buffer exists.
  std::vector<std::int64_t> spm_tile_shape() const;

  /// Bytes of SPM needed for all global-scope buffers of one CPE.
  std::int64_t spm_bytes() const;

  /// Human-readable dump of the scheduled nest.
  std::string to_string() const;

  /// Changes whenever a primitive is applied: a process-wide counter
  /// stamped by every primitive call, so a revision names one state of
  /// one schedule (copies carry it along with the state they copy).
  /// dsl::Program keys its cached lowered plan on it.
  std::uint64_t revision() const { return revision_; }

 private:
  void touch();
  int require_axis(const std::string& name) const;
  const CacheBuffer* find_cache(const std::string& buffer) const;

  ir::KernelPtr kernel_;
  ir::AxisList axes_;
  std::vector<CacheBuffer> caches_;
  std::int64_t time_depth_ = 1;
  std::int64_t time_width_ = 0;
  std::uint64_t revision_ = 0;
};

using SchedulePtr = std::shared_ptr<Schedule>;

/// The default schedule used when the user provides no primitives: the
/// kernel's original nest, no tiling, no caching.
SchedulePtr default_schedule(ir::KernelPtr kernel);

}  // namespace msc::schedule
