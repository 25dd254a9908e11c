#include "check/shrink.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/strings.hpp"

namespace msc::check {

namespace {

std::int64_t chebyshev(const NeighborTerm& n, int ndim) {
  std::int64_t r = 0;
  for (int d = 0; d < ndim; ++d)
    r = std::max(r, std::abs(n.offset[static_cast<std::size_t>(d)]));
  return r;
}

/// Re-establishes the invariants build_program and the oracles rely on
/// after a mutation: radius covers every remaining offset, extents admit
/// the radius, tiles fit the extents, rank grids keep local extents >=
/// radius, and the time-weight list matches the window.
void normalize(CaseSpec& s) {
  std::int64_t need = 1;  // keep halo >= 1 so the grids always have one
  for (const auto& n : s.neighbors) need = std::max(need, chebyshev(n, s.ndim));
  s.radius = std::min(s.radius, std::max<std::int64_t>(need, 1));

  for (int d = 0; d < s.ndim; ++d) {
    auto& e = s.extent[static_cast<std::size_t>(d)];
    e = std::max(e, 2 * s.radius);  // room for both stencil arms
    e = std::max<std::int64_t>(e, 2);
    if (s.tile[static_cast<std::size_t>(d)] > 0)
      s.tile[static_cast<std::size_t>(d)] = std::min(s.tile[static_cast<std::size_t>(d)], e);
    auto& r = s.ranks[static_cast<std::size_t>(d)];
    while (r > 1 && e / r < s.radius) --r;
  }
  if (!s.tiled()) {
    s.reorder = false;
    s.spm_pipeline = false;
  }
  if (!s.reorder) s.spm_pipeline = false;
  if (s.time_tile.depth <= 1) s.time_tile = {};

  s.time_deps = std::max(1, s.time_deps);
  s.time_weights.resize(static_cast<std::size_t>(s.time_deps), 0.0);
  s.timesteps = std::max<std::int64_t>(s.timesteps, 1);
}

struct Mutation {
  std::string label;
  CaseSpec spec;
};

/// All single-step simplifications of `s`, most aggressive first.
std::vector<Mutation> candidates(const CaseSpec& s) {
  std::vector<Mutation> out;
  const auto push = [&](std::string label, CaseSpec m) {
    normalize(m);
    out.push_back({std::move(label), std::move(m)});
  };

  if (s.timesteps > 1) {
    CaseSpec m = s;
    m.timesteps = std::max<std::int64_t>(1, s.timesteps / 2);
    push(strprintf("timesteps %lld -> %lld", static_cast<long long>(s.timesteps),
                   static_cast<long long>(m.timesteps)),
         std::move(m));
  }

  for (int d = 0; d < s.ndim; ++d) {
    const std::int64_t e = s.extent[static_cast<std::size_t>(d)];
    const std::int64_t floor = std::max<std::int64_t>(2, 2 * s.radius);
    if (e <= floor) continue;
    CaseSpec half = s;
    half.extent[static_cast<std::size_t>(d)] = std::max(floor, e / 2);
    push(strprintf("extent[%d] %lld -> %lld", d, static_cast<long long>(e),
                   static_cast<long long>(half.extent[static_cast<std::size_t>(d)])),
         std::move(half));
    CaseSpec dec = s;
    dec.extent[static_cast<std::size_t>(d)] = e - 1;
    push(strprintf("extent[%d] %lld -> %lld", d, static_cast<long long>(e),
                   static_cast<long long>(e - 1)),
         std::move(dec));
  }

  // Neighbor terms: drop the first/second half, then each single term.
  const std::size_t nn = s.neighbors.size();
  if (nn > 1) {
    for (int half = 0; half < 2; ++half) {
      CaseSpec m = s;
      const std::size_t mid = nn / 2;
      m.neighbors.erase(m.neighbors.begin() + (half == 0 ? 0 : static_cast<std::ptrdiff_t>(mid)),
                        half == 0 ? m.neighbors.begin() + static_cast<std::ptrdiff_t>(mid)
                                  : m.neighbors.end());
      push(strprintf("drop %s half of %zu neighbor terms", half == 0 ? "first" : "second", nn),
           std::move(m));
    }
  }
  if (nn > 1) {
    for (std::size_t n = 0; n < nn; ++n) {
      CaseSpec m = s;
      m.neighbors.erase(m.neighbors.begin() + static_cast<std::ptrdiff_t>(n));
      push(strprintf("drop neighbor (%lld,%lld,%lld)",
                     static_cast<long long>(s.neighbors[n].offset[0]),
                     static_cast<long long>(s.neighbors[n].offset[1]),
                     static_cast<long long>(s.neighbors[n].offset[2])),
           std::move(m));
    }
  }

  if (s.time_deps > 1) {
    CaseSpec m = s;
    m.time_deps = s.time_deps - 1;
    m.time_weights.resize(static_cast<std::size_t>(m.time_deps));
    push(strprintf("time window %d -> %d", s.time_deps + 1, m.time_deps + 1), std::move(m));
  }

  // Schedule primitives, innermost first so the simplest failing schedule
  // survives.
  if (s.time_tile.depth > 1) {
    CaseSpec m = s;
    m.time_tile.depth = 1;
    push(strprintf("time_tile depth %lld -> 1", static_cast<long long>(s.time_tile.depth)),
         std::move(m));
  }
  if (s.spm_pipeline) {
    CaseSpec m = s;
    m.spm_pipeline = false;
    push("strip spm pipeline (cache_read/cache_write/compute_at)", std::move(m));
  }
  if (s.parallel_threads > 0) {
    CaseSpec m = s;
    m.parallel_threads = 0;
    push(strprintf("strip parallel(%d)", s.parallel_threads), std::move(m));
  }
  if (s.reorder) {
    CaseSpec m = s;
    m.reorder = false;
    push("strip reorder", std::move(m));
  }
  if (s.tiled()) {
    CaseSpec m = s;
    m.tile = {0, 0, 0};
    push("strip tiling", std::move(m));
  }

  if (s.rank_count() > 1) {
    CaseSpec m = s;
    m.ranks = {1, 1, 1};
    push(strprintf("ranks %d -> 1", s.rank_count()), std::move(m));
  }

  // Radius can tighten once the far terms are gone (shrinks the halo and
  // unlocks further extent shrinks next pass).
  std::int64_t need = 1;
  for (const auto& n : s.neighbors) need = std::max(need, chebyshev(n, s.ndim));
  if (s.radius > need) {
    CaseSpec m = s;
    m.radius = need;
    push(strprintf("radius %lld -> %lld", static_cast<long long>(s.radius),
                   static_cast<long long>(need)),
         std::move(m));
  }

  return out;
}

}  // namespace

ShrinkResult shrink_case(const CaseSpec& failing, const StillFails& still_fails,
                         int max_attempts) {
  ShrinkResult result;
  result.spec = failing;
  normalize(result.spec);

  bool progressed = true;
  while (progressed && result.attempts < max_attempts) {
    progressed = false;
    for (auto& cand : candidates(result.spec)) {
      if (result.attempts >= max_attempts) break;
      ++result.attempts;
      if (!still_fails(cand.spec)) continue;
      result.spec = cand.spec;
      result.steps.push_back(cand.label);
      ++result.accepted;
      progressed = true;
      break;  // restart from the simplified spec
    }
  }
  return result;
}

}  // namespace msc::check
