#pragma once

// Runtime grid storage: one aligned, halo-padded buffer per sliding-window
// slot of a tensor.  Rank-generic (1-3 D) via precomputed strides; the hot
// sweep loops in the executors use raw pointers + these strides.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/tensor.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

#ifdef __linux__
#include <sys/mman.h>
#ifndef MADV_COLLAPSE
#define MADV_COLLAPSE 25  // kernel ≥ 6.1; absent from older glibc headers
#endif
#endif

namespace msc::exec {

/// Halo boundary handling between timesteps.
enum class Boundary {
  ZeroHalo,  ///< Dirichlet zero: halo cells stay 0
  Periodic,  ///< wrap-around copy from the opposite interior face
  External,  ///< halos are managed externally (distributed halo exchange)
};

template <typename T>
class GridStorage {
 public:
  /// Per-slot base-address stagger: ring slots of the same tensor must not
  /// be congruent modulo the 4 KiB page, or every term's load stream and
  /// the output store stream of a sweep land in the same L1 cache sets
  /// (4K aliasing) and throughput halves.  Five cache lines keeps 64-byte
  /// alignment while decorrelating the page offsets.  Slot bases are
  /// rounded up to a page boundary first so the page offsets are exactly
  /// `slot * kSlotStaggerBytes` — deterministic, not at the mercy of
  /// whatever the allocator hands back after earlier churn.
  static constexpr std::size_t kSlotStaggerBytes = 320;
  static constexpr std::size_t kPageBytes = 4096;
  explicit GridStorage(ir::Tensor tensor) : tensor_(std::move(tensor)) {
    MSC_CHECK(tensor_ != nullptr) << "GridStorage needs a tensor";
    MSC_CHECK(sizeof(T) == ir::dtype_size(tensor_->dtype()))
        << "GridStorage element type does not match tensor dtype "
        << ir::dtype_name(tensor_->dtype());
    ndim_ = tensor_->ndim();
    halo_ = tensor_->halo();
    std::int64_t padded = 1;
    for (int d = ndim_ - 1; d >= 0; --d) {
      extent_[static_cast<std::size_t>(d)] = tensor_->extent(d);
      stride_[static_cast<std::size_t>(d)] = padded;
      padded *= tensor_->extent(d) + 2 * halo_;
    }
    padded_points_ = padded;
    slots_.reserve(static_cast<std::size_t>(tensor_->time_window()));
    for (int s = 0; s < tensor_->time_window(); ++s)
      slots_.emplace_back(static_cast<std::size_t>(padded) * sizeof(T) +
                          static_cast<std::size_t>(s) * kSlotStaggerBytes +
                          kPageBytes);
    for (int s = 0; s < slots(); ++s) advise_hugepages(s);
  }

  // Payload lives at a page-aligned offset that depends on each buffer's
  // own address, so a byte-for-byte buffer copy would land the data at the
  // wrong offset in the new allocation — copy slot payloads explicitly.
  GridStorage(const GridStorage& other)
      : tensor_(other.tensor_),
        ndim_(other.ndim_),
        halo_(other.halo_),
        extent_(other.extent_),
        stride_(other.stride_),
        padded_points_(other.padded_points_) {
    slots_.reserve(other.slots_.size());
    for (const auto& buf : other.slots_) slots_.emplace_back(buf.size());
    for (int s = 0; s < slots(); ++s) {
      advise_hugepages(s);
      std::copy_n(other.slot_data(s), padded_points_, slot_data(s));
    }
  }
  GridStorage& operator=(const GridStorage& other) {
    if (this != &other) {
      GridStorage tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }
  GridStorage(GridStorage&&) noexcept = default;
  GridStorage& operator=(GridStorage&&) noexcept = default;

  const ir::Tensor& tensor() const { return tensor_; }
  int ndim() const { return ndim_; }
  std::int64_t halo() const { return halo_; }
  int slots() const { return static_cast<int>(slots_.size()); }
  std::int64_t extent(int d) const { return extent_[static_cast<std::size_t>(d)]; }
  std::int64_t stride(int d) const { return stride_[static_cast<std::size_t>(d)]; }
  std::int64_t padded_points() const { return padded_points_; }

  /// Ring slot that holds timestep `t` (t may be negative for initial data).
  int slot_for_time(std::int64_t t) const {
    const auto w = static_cast<std::int64_t>(slots_.size());
    return static_cast<int>(((t % w) + w) % w);
  }

  T* slot_data(int slot) {
    MSC_CHECK(slot >= 0 && slot < slots()) << "bad slot " << slot;
    return reinterpret_cast<T*>(slot_base(slot));
  }
  const T* slot_data(int slot) const {
    MSC_CHECK(slot >= 0 && slot < slots()) << "bad slot " << slot;
    return reinterpret_cast<const T*>(slot_base(slot));
  }

  /// Linear index of interior coordinate (coords exclude the halo shift).
  std::int64_t index(std::array<std::int64_t, 3> coord) const {
    std::int64_t idx = 0;
    for (int d = 0; d < ndim_; ++d)
      idx += (coord[static_cast<std::size_t>(d)] + halo_) * stride_[static_cast<std::size_t>(d)];
    return idx;
  }

  T& at(int slot, std::array<std::int64_t, 3> coord) { return slot_data(slot)[index(coord)]; }
  const T& at(int slot, std::array<std::int64_t, 3> coord) const {
    return slot_data(slot)[index(coord)];
  }

  /// Fills the interior of `slot` with deterministic pseudo-random values
  /// in [-1, 1] (substitute for the paper's /data/rand.data).  Row-based:
  /// rows are visited row-major, so the Rng consumes draws in exactly the
  /// per-point order and the values stay bit-identical.
  void fill_random(int slot, std::uint64_t seed) {
    Rng rng(seed);
    T* data = slot_data(slot);
    for_each_interior_row([&](std::int64_t base, std::int64_t len) {
      T* row = data + base;
      for (std::int64_t i = 0; i < len; ++i) row[i] = static_cast<T>(rng.next_real(-1.0, 1.0));
    });
  }

  /// Applies the boundary policy to the halo cells of `slot`, one
  /// contiguous slab at a time (for_each_halo_slab).  A periodic wrap needs
  /// halo <= extent in every dimension, or it would read halo cells.
  void fill_halo(int slot, Boundary bc) {
    if (halo_ == 0 || bc == Boundary::External) return;
    T* data = slot_data(slot);
    if (bc == Boundary::ZeroHalo) {
      for_each_halo_slab([&](std::int64_t dst, std::int64_t, std::int64_t len) {
        std::fill_n(data + dst, len, T{});
      });
      return;
    }
    for (int d = 0; d < ndim_; ++d)
      MSC_CHECK(halo_ <= extent(d)) << "periodic halo " << halo_ << " exceeds extent "
                                    << extent(d) << " of dim " << d;
    for_each_halo_slab([&](std::int64_t dst, std::int64_t src, std::int64_t len) {
      std::copy_n(data + src, len, data + dst);
    });
  }

  /// Interior values of `slot` as doubles, row-major (last dim fastest) —
  /// the canonical layout the conformance oracles compare element-wise and
  /// the generated mains dump/checksum in.
  std::vector<double> interior_values(int slot) const {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(tensor_->interior_points()));
    const T* data = slot_data(slot);
    for_each_interior_row([&](std::int64_t base, std::int64_t len) {
      const T* row = data + base;
      for (std::int64_t i = 0; i < len; ++i) out.push_back(static_cast<double>(row[i]));
    });
    return out;
  }

  /// Row-major interior sum of `slot` — matches the checksum accumulation
  /// order of the generated backends bit for bit (row sweep preserves the
  /// exact per-point summation order).
  double interior_checksum(int slot) const {
    double sum = 0.0;
    const T* data = slot_data(slot);
    for_each_interior_row([&](std::int64_t base, std::int64_t len) {
      const T* row = data + base;
      for (std::int64_t i = 0; i < len; ++i) sum += static_cast<double>(row[i]);
    });
    return sum;
  }

  /// Invokes fn(base, len) on every contiguous interior row: `base` is the
  /// linear index of the row's first element, `len` the last-dim extent.
  /// Rows are visited row-major, so a per-element loop inside fn touches
  /// the interior in exactly for_each_interior order (stride(ndim-1) == 1).
  template <typename Fn>
  void for_each_interior_row(Fn&& fn) const {
    const std::int64_t len = extent_[static_cast<std::size_t>(ndim_ - 1)];
    std::array<std::int64_t, 3> c{0, 0, 0};
    if (ndim_ == 1) {
      fn(index(c), len);
    } else if (ndim_ == 2) {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0]) fn(index(c), len);
    } else {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0])
        for (c[1] = 0; c[1] < extent_[1]; ++c[1]) fn(index(c), len);
    }
  }

  /// Invokes fn on every interior coordinate (row-major, last dim fastest).
  template <typename Fn>
  void for_each_interior(Fn&& fn) const {
    std::array<std::int64_t, 3> c{0, 0, 0};
    if (ndim_ == 1) {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0]) fn(c);
    } else if (ndim_ == 2) {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0])
        for (c[1] = 0; c[1] < extent_[1]; ++c[1]) fn(c);
    } else {
      for (c[0] = 0; c[0] < extent_[0]; ++c[0])
        for (c[1] = 0; c[1] < extent_[1]; ++c[1])
          for (c[2] = 0; c[2] < extent_[2]; ++c[2]) fn(c);
    }
  }

 private:
  /// Large slots want 2 MiB TLB entries: a sweep streams several planes from
  /// every ring slot at once, and when the allocator hands back recycled
  /// 4 KiB-paged memory the page walks cost ~25% of sweep throughput.
  /// MADV_HUGEPAGE covers pages not yet faulted, MADV_COLLAPSE converts
  /// recycled ones; both are best-effort and free to fail (old kernels,
  /// THP disabled) — correctness never depends on them.
  void advise_hugepages(int slot) {
#ifdef __linux__
    constexpr std::size_t kHugeBytes = std::size_t{2} << 20;
    auto& buf = slots_[static_cast<std::size_t>(slot)];
    if (buf.size() < kHugeBytes) return;
    auto lo = reinterpret_cast<std::uintptr_t>(buf.data());
    auto hi = lo + buf.size();
    lo = (lo + kPageBytes - 1) & ~(kPageBytes - 1);
    hi &= ~(kPageBytes - 1);
    if (lo >= hi) return;
    void* base = reinterpret_cast<void*>(lo);
    (void)::madvise(base, hi - lo, MADV_HUGEPAGE);
    (void)::madvise(base, hi - lo, MADV_COLLAPSE);
#endif
  }

  std::byte* slot_base(int slot) const {
    const auto s = static_cast<std::size_t>(slot);
    auto base = reinterpret_cast<std::uintptr_t>(slots_[s].data());
    base = (base + kPageBytes - 1) & ~(kPageBytes - 1);
    return reinterpret_cast<std::byte*>(base + s * kSlotStaggerBytes);
  }

  /// Invokes fn(dst, src, len) on every halo slab, innermost dimension
  /// first.  For dimension d and each interior coordinate of the dimensions
  /// outside it, the low and high slabs are `halo` consecutive hyperplanes
  /// of d — `halo * stride(d)` contiguous elements, inner dimensions' halos
  /// included — and `src` is the opposite interior slab a periodic wrap
  /// copies.  Every halo cell lies in exactly one slab: the one of the
  /// outermost dimension it is halo in.  The order makes the wrap exact:
  /// when d's slabs are copied, the inner halos of their sources are
  /// already final, so edges and corners come out wrapped in every
  /// dimension.
  template <typename Fn>
  void for_each_halo_slab(Fn&& fn) const {
    for (int d = ndim_ - 1; d >= 0; --d) {
      const auto u = static_cast<std::size_t>(d);
      const std::int64_t len = halo_ * stride_[u], span = extent_[u] * stride_[u];
      const std::int64_t n0 = d > 0 ? extent_[0] : 1, n1 = d > 1 ? extent_[1] : 1;
      for (std::int64_t i0 = 0; i0 < n0; ++i0)
        for (std::int64_t i1 = 0; i1 < n1; ++i1) {
          const std::int64_t base = (d > 0 ? (i0 + halo_) * stride_[0] : 0) +
                                    (d > 1 ? (i1 + halo_) * stride_[1] : 0);
          fn(base, base + span, len);
          fn(base + span + len, base + len, len);
        }
    }
  }

  ir::Tensor tensor_;
  int ndim_ = 0;
  std::int64_t halo_ = 0;
  std::array<std::int64_t, 3> extent_{1, 1, 1};
  std::array<std::int64_t, 3> stride_{0, 0, 0};
  std::int64_t padded_points_ = 0;
  std::vector<AlignedBuffer> slots_;
};

/// Maximum relative error between the interiors of two grids' slots, the
/// correctness metric of paper §5.1 (|a-b| / max(|b|, eps)).
template <typename T>
double max_relative_error(const GridStorage<T>& a, int slot_a, const GridStorage<T>& b,
                          int slot_b) {
  MSC_CHECK(a.ndim() == b.ndim()) << "rank mismatch";
  double worst = 0.0;
  a.for_each_interior([&](std::array<std::int64_t, 3> c) {
    const double va = static_cast<double>(a.at(slot_a, c));
    const double vb = static_cast<double>(b.at(slot_b, c));
    const double denom = std::max(std::abs(vb), 1e-30);
    worst = std::max(worst, std::abs(va - vb) / denom);
  });
  return worst;
}

/// "zero-halo" / "periodic", for logs and bench output.
std::string boundary_name(Boundary bc);

}  // namespace msc::exec
