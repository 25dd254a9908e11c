#pragma once

// Bit-exact fingerprints of a stencil state, so a run's final state can be
// checked against exec::run_reference without keeping both grids alive.
// One FNV-1a hash per time level over the interior values in row-major
// order, each value widened to double (exact for f32 and f64), so two
// states hash equal only if every interior value has the same bits.

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/decompose.hpp"
#include "dsl/program.hpp"
#include "exec/grid.hpp"

namespace perfbench {

class Fnv64 {
 public:
  void add(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hashes of the time levels t_end - window + 1 .. t_end, oldest first.
struct StateDigest {
  std::vector<std::uint64_t> levels;
  bool operator==(const StateDigest&) const = default;
};

/// Invokes fn(coord) over the row-major interior of `extent` (ndim dims).
template <typename Fn>
void for_each_coord(int ndim, const std::array<std::int64_t, 3>& extent, Fn&& fn) {
  std::array<std::int64_t, 3> c{0, 0, 0};
  const std::int64_t e0 = extent[0], e1 = ndim > 1 ? extent[1] : 1, e2 = ndim > 2 ? extent[2] : 1;
  for (c[0] = 0; c[0] < e0; ++c[0])
    for (c[1] = 0; c[1] < e1; ++c[1])
      for (c[2] = 0; c[2] < e2; ++c[2]) fn(c);
}

/// Digest of the window ending at `t_end` from any value reader
/// `read(t, coord) -> double`.
template <typename Read>
StateDigest digest_levels(int ndim, const std::array<std::int64_t, 3>& extent, int window,
                          std::int64_t t_end, Read&& read) {
  StateDigest d;
  for (std::int64_t t = t_end - window + 1; t <= t_end; ++t) {
    Fnv64 h;
    for_each_coord(ndim, extent, [&](const std::array<std::int64_t, 3>& c) { h.add(read(t, c)); });
    d.levels.push_back(h.value());
  }
  return d;
}

template <typename T>
StateDigest digest_grid(const msc::exec::GridStorage<T>& g, std::int64_t t_end) {
  std::array<std::int64_t, 3> extent{1, 1, 1};
  for (int d = 0; d < g.ndim(); ++d) extent[static_cast<std::size_t>(d)] = g.extent(d);
  return digest_levels(g.ndim(), extent, g.slots(), t_end,
                       [&](std::int64_t t, const std::array<std::int64_t, 3>& c) {
                         return static_cast<double>(g.at(g.slot_for_time(t), c));
                       });
}

/// Digest of a Program's state grid, read through Program::value_at.
inline StateDigest digest_program(const msc::dsl::Program& prog, std::int64_t t_end) {
  const auto& state = prog.stencil().state();
  std::array<std::int64_t, 3> extent{1, 1, 1};
  for (int d = 0; d < state->ndim(); ++d) extent[static_cast<std::size_t>(d)] = state->extent(d);
  return digest_levels(state->ndim(), extent, prog.stencil().time_window(), t_end,
                       [&](std::int64_t t, const std::array<std::int64_t, 3>& c) {
                         return prog.value_at(t, c);
                       });
}

/// Digest of rank sub-grids gathered into the global row-major order.
template <typename T>
StateDigest digest_ranks(const msc::comm::CartDecomp& dec,
                         const std::vector<msc::exec::GridStorage<T>>& locals, std::int64_t t_end) {
  const int nd = dec.ndim();
  std::array<std::int64_t, 3> extent{1, 1, 1};
  // owner[d][x] = (rank coordinate, local index) of global index x in dim d.
  std::array<std::vector<std::pair<int, std::int64_t>>, 3> owner;
  for (int d = 0; d < nd; ++d) {
    extent[static_cast<std::size_t>(d)] = dec.global_extent(d);
    std::vector<int> coords(static_cast<std::size_t>(nd), 0);
    for (int p = 0; p < dec.dims()[static_cast<std::size_t>(d)]; ++p) {
      coords[static_cast<std::size_t>(d)] = p;
      const int r = dec.rank_of(coords);
      for (std::int64_t x = 0; x < dec.local_extent(r, d); ++x)
        owner[static_cast<std::size_t>(d)].push_back({p, x});
    }
  }
  const auto& first = locals.front();
  return digest_levels(nd, extent, first.slots(), t_end,
                       [&](std::int64_t t, const std::array<std::int64_t, 3>& c) {
                         std::vector<int> coords(static_cast<std::size_t>(nd));
                         std::array<std::int64_t, 3> lc{0, 0, 0};
                         for (std::size_t d = 0; d < static_cast<std::size_t>(nd); ++d) {
                           const auto& o = owner[d][static_cast<std::size_t>(c[d])];
                           coords[d] = o.first;
                           lc[d] = o.second;
                         }
                         const auto& g = locals[static_cast<std::size_t>(dec.rank_of(coords))];
                         return static_cast<double>(g.at(g.slot_for_time(t), lc));
                       });
}

}  // namespace perfbench
