#pragma once

// Random stencil-program generation for the cross-backend conformance
// harness (tools/msc-conform).
//
// A CaseSpec is a small, plain-data description of one differential test
// case: grid rank/extents, neighbor pattern with coefficients, temporal
// combination, timestep count, MPI rank grid, and the schedule primitives
// applied (tile / reorder / parallel / cache_read / cache_write /
// compute_at / time_tile).  Everything derives deterministically from one
// 64-bit seed, so a failing case is fully replayable from its seed — and
// because the spec is plain data, the shrinker (shrink.hpp) can mutate it
// towards a minimal reproducer without touching the RNG again.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsl/program.hpp"

namespace msc::check {

/// One weighted neighbor read of the state grid.
struct NeighborTerm {
  std::array<std::int64_t, 3> offset{0, 0, 0};
  double coeff = 0.0;
};

/// Plain-data description of a conformance case.  build_program() turns it
/// into a dsl::Program; random_case() draws one from a seed.
struct CaseSpec {
  std::uint64_t seed = 0;       ///< seed this case was drawn from (replay id)
  int ndim = 2;                 ///< 2 or 3
  std::array<std::int64_t, 3> extent{1, 1, 1};
  std::int64_t radius = 1;      ///< grid halo width = max neighbor distance
  int time_deps = 2;            ///< previous steps read (window = deps + 1)
  std::vector<double> time_weights;  ///< weight of S[t-1], S[t-2], ...
  double center_coeff = 0.25;
  std::vector<NeighborTerm> neighbors;
  std::int64_t timesteps = 4;   ///< steps executed by every oracle

  // Schedule primitives (all optional; spm_pipeline requires tile+reorder).
  std::array<std::int64_t, 3> tile{0, 0, 0};  ///< 0 = dimension untiled
  bool reorder = false;         ///< outers-then-inners after tiling
  int parallel_threads = 0;     ///< 0 = serial
  bool spm_pipeline = false;    ///< cache_read/cache_write + compute_at
  /// time_tile(depth, width): depth > 1 sends the scheduled oracle down the
  /// wedge route and unrolls the AOT module's msc_aot_run into blocks.
  struct TimeTile {
    std::int64_t depth = 1;     ///< timesteps fused per block (1 = per step)
    std::int64_t width = 0;     ///< wedge rows of dim 0 (0 = the engine's default)
  } time_tile;

  // Simulated-MPI decomposition used by the simmpi oracle.
  std::array<int, 3> ranks{1, 1, 1};

  bool tiled() const { return tile[0] > 0; }
  int rank_count() const {
    int p = 1;
    for (int d = 0; d < ndim; ++d) p *= ranks[static_cast<std::size_t>(d)];
    return p;
  }
};

/// Draws a random case from `seed`.  The distribution covers 2-D and 3-D
/// grids, star and box neighbor subsets, radii 1-3, 1-3 time dependencies
/// and every schedule-primitive combination the backends accept.  The
/// time_tile is drawn last, so a seed keeps every earlier field it drew
/// before time blocking joined the distribution.
CaseSpec random_case(std::uint64_t seed);

/// Builds the case as a DSL program (kernel + schedule + stencil) named
/// "conform<seed>".  Throws msc::Error on specs the DSL rejects.
std::unique_ptr<dsl::Program> build_program(const CaseSpec& spec);

/// Human-readable dump of the spec, printed as part of a reproducer.
std::string describe(const CaseSpec& spec);

}  // namespace msc::check
