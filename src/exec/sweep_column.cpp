#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/sweep.hpp"

// Strided column kernels (detail::sweep_column).  Kept out of sweep.cpp so
// they can be compiled without auto-vectorization (see CMakeLists.txt): a
// column's points are `stride` apart, so GCC's vector version gathers every
// term stream and ran slower than the scalar loop, whose per-point term
// chains overlap across iterations.

namespace msc::exec::detail {
namespace {

/// Column kernel, term count fixed at compile time: pointers and
/// coefficients hoisted out of the point loop, the N-term accumulation
/// fully unrolled in sweep_row's order.
template <typename T, std::size_t N>
void sweep_column_fixed(T* out, std::int64_t base, std::int64_t stride, std::int64_t m,
                        const ResolvedTerm<T>* terms) {
  std::array<const T*, N> src;
  std::array<double, N> coeff;
  for (std::size_t k = 0; k < N; ++k) {
    src[k] = terms[k].src + base + terms[k].delta;
    coeff[k] = terms[k].coeff;
  }
  T* o = out + base;
  for (std::int64_t j = 0, at = 0; j < m; ++j, at += stride) {
    double acc = 0.0;
    for (std::size_t k = 0; k < N; ++k) acc += coeff[k] * static_cast<double>(src[k][at]);
    o[at] = static_cast<T>(acc);
  }
}

template <typename T>
using ColumnFn = void (*)(T*, std::int64_t, std::int64_t, std::int64_t, const ResolvedTerm<T>*);

template <typename T, std::size_t... I>
constexpr std::array<ColumnFn<T>, sizeof...(I)> make_column_table(std::index_sequence<I...>) {
  return {{&sweep_column_fixed<T, I + 1>...}};
}

}  // namespace

template <typename T>
void sweep_column(T* out, std::int64_t base, std::int64_t stride, std::int64_t m,
                  const std::vector<ResolvedTerm<T>>& terms) {
  static constexpr auto kTable =
      make_column_table<T>(std::make_index_sequence<kMaxFixedTerms>{});
  const std::size_t nt = terms.size();
  if (nt - 1 < kMaxFixedTerms) {
    kTable[nt - 1](out, base, stride, m, terms.data());
  } else {
    // Wide stencils: per point, the same loads-and-adds a one-point
    // generic row would do, without its per-row term set-up.
    for (std::int64_t j = 0; j < m; ++j) sweep_point_linear(out, base + j * stride, terms);
  }
}

template void sweep_column<float>(float*, std::int64_t, std::int64_t, std::int64_t,
                                  const std::vector<ResolvedTerm<float>>&);
template void sweep_column<double>(double*, std::int64_t, std::int64_t, std::int64_t,
                                   const std::vector<ResolvedTerm<double>>&);

}  // namespace msc::exec::detail
