#include "check/case_gen.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace msc::check {

namespace {

/// Axis variable names, slowest dimension first ("k","j","i" / "j","i").
std::vector<std::string> axis_vars(int ndim) {
  return ndim == 2 ? std::vector<std::string>{"j", "i"}
                   : std::vector<std::string>{"k", "j", "i"};
}

}  // namespace

CaseSpec random_case(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  CaseSpec spec;
  spec.seed = seed;
  spec.ndim = rng.next_double() < 0.5 ? 2 : 3;

  if (spec.ndim == 2) {
    spec.radius = rng.next_int(1, 3);
    for (int d = 0; d < 2; ++d)
      spec.extent[static_cast<std::size_t>(d)] = rng.next_int(2 * spec.radius + 2, 22);
  } else {
    spec.radius = rng.next_int(1, 2);
    for (int d = 0; d < 3; ++d)
      spec.extent[static_cast<std::size_t>(d)] = rng.next_int(2 * spec.radius + 2, 11);
  }

  // Neighbor subset of the full box: star arms are always kept so every
  // radius shell is exercised; off-axis (corner) points join with p=0.35,
  // which mixes star and box shapes in one distribution.
  spec.center_coeff = rng.next_real(0.1, 0.4);
  const std::int64_t r = spec.radius;
  const auto each_offset = [&](auto&& fn) {
    std::array<std::int64_t, 3> off{0, 0, 0};
    for (off[0] = -r; off[0] <= r; ++off[0])
      for (off[1] = -r; off[1] <= r; ++off[1]) {
        if (spec.ndim == 2) {
          fn(off);
        } else {
          for (off[2] = -r; off[2] <= r; ++off[2]) fn(off);
          off[2] = 0;
        }
      }
  };
  each_offset([&](std::array<std::int64_t, 3> off) {
    int nonzero = 0;
    for (int d = 0; d < spec.ndim; ++d) nonzero += off[static_cast<std::size_t>(d)] != 0;
    if (nonzero == 0) return;  // center handled separately
    const bool on_axis = nonzero == 1;
    const double keep_p = on_axis ? 0.85 : 0.35;
    const double roll = rng.next_double();  // drawn for every offset: stable stream
    if (roll < keep_p)
      spec.neighbors.push_back({off, rng.next_real(-0.08, 0.08)});
  });
  if (spec.neighbors.empty())
    spec.neighbors.push_back({{0, 1, 0}, 0.05});  // degenerate roll: keep one arm

  spec.time_deps = static_cast<int>(rng.next_int(1, 3));
  for (int n = 0; n < spec.time_deps; ++n)
    spec.time_weights.push_back(rng.next_real(0.2, 0.6));
  spec.timesteps = rng.next_int(2, 5);

  // Schedule: tile most cases (tiles are what the backends disagree on),
  // keep a serial untiled tail so the default schedule stays covered.
  if (rng.next_double() < 0.75) {
    for (int d = 0; d < spec.ndim; ++d) {
      const std::int64_t cap = spec.ndim == 2 ? spec.extent[static_cast<std::size_t>(d)] : 6;
      spec.tile[static_cast<std::size_t>(d)] =
          rng.next_int(2, std::max<std::int64_t>(2, cap));
    }
    spec.reorder = rng.next_double() < 0.8;
    if (spec.reorder) spec.spm_pipeline = rng.next_double() < 0.5;
  }
  if (rng.next_double() < 0.6)
    spec.parallel_threads = static_cast<int>(rng.next_int(2, 8));

  // Rank grid for the simmpi oracle: every local extent must stay >= the
  // stencil radius so the halo exchange has a full face to pack.
  for (int d = 0; d < spec.ndim; ++d) {
    const std::int64_t ext = spec.extent[static_cast<std::size_t>(d)];
    const int max_ranks =
        static_cast<int>(std::min<std::int64_t>(3, ext / std::max<std::int64_t>(1, r)));
    spec.ranks[static_cast<std::size_t>(d)] =
        static_cast<int>(rng.next_int(1, std::max(1, max_ranks)));
  }
  // Cap the thread count: every rank is a std::thread in the simulator.
  while (spec.rank_count() > 8) {
    for (int d = 0; d < spec.ndim; ++d)
      if (spec.ranks[static_cast<std::size_t>(d)] > 1 && spec.rank_count() > 8)
        spec.ranks[static_cast<std::size_t>(d)] -= 1;
  }

  // Temporal blocking, drawn last: most cases step one at a time, the rest
  // fuse 2-4 steps per block, with the default or a narrow wedge width.
  if (rng.next_double() < 0.3) {
    spec.time_tile.depth = rng.next_int(2, 4);
    if (rng.next_double() < 0.5) spec.time_tile.width = rng.next_int(1, 4);
  }
  return spec;
}

std::unique_ptr<dsl::Program> build_program(const CaseSpec& spec) {
  MSC_CHECK(spec.ndim == 2 || spec.ndim == 3) << "case rank must be 2 or 3";
  MSC_CHECK(static_cast<int>(spec.time_weights.size()) == spec.time_deps)
      << "case needs one weight per time dependency";
  auto prog = std::make_unique<dsl::Program>("conform" + std::to_string(spec.seed));
  const auto vars = axis_vars(spec.ndim);

  std::vector<dsl::Var> axes;
  for (const auto& v : vars) axes.push_back(prog->var(v));

  dsl::GridRef B =
      spec.ndim == 2
          ? prog->def_tensor_2d_timewin("B", spec.time_deps, spec.radius, ir::DataType::f64,
                                        spec.extent[0], spec.extent[1])
          : prog->def_tensor_3d_timewin("B", spec.time_deps, spec.radius, ir::DataType::f64,
                                        spec.extent[0], spec.extent[1], spec.extent[2]);

  const auto access = [&](std::array<std::int64_t, 3> off) {
    return spec.ndim == 2 ? B(axes[0] + off[0], axes[1] + off[1])
                          : B(axes[0] + off[0], axes[1] + off[1], axes[2] + off[2]);
  };
  dsl::ExprH rhs = dsl::ExprH(spec.center_coeff) * access({0, 0, 0});
  for (const auto& nb : spec.neighbors) {
    MSC_CHECK(std::max({std::abs(nb.offset[0]), std::abs(nb.offset[1]),
                        std::abs(nb.offset[2])}) <= spec.radius)
        << "neighbor offset exceeds the case radius";
    rhs = rhs + dsl::ExprH(nb.coeff) * access(nb.offset);
  }
  auto& k = prog->kernel("S", axes, rhs);

  // Schedule primitives in DSL order: tile -> reorder -> caches -> parallel.
  std::vector<std::string> outer_names, inner_names;
  for (const auto& v : vars) {
    outer_names.push_back(v + "_outer");
    inner_names.push_back(v + "_inner");
  }
  if (spec.tiled()) {
    std::vector<std::int64_t> taus;
    for (int d = 0; d < spec.ndim; ++d)
      taus.push_back(std::min(spec.tile[static_cast<std::size_t>(d)],
                              spec.extent[static_cast<std::size_t>(d)]));
    k.tile(taus);
    if (spec.reorder) {
      std::vector<std::string> order = outer_names;
      order.insert(order.end(), inner_names.begin(), inner_names.end());
      k.reorder(order);
    }
  }
  if (spec.spm_pipeline) {
    MSC_CHECK(spec.tiled() && spec.reorder)
        << "spm_pipeline requires a tiled, reordered nest";
    k.cache_read("B", "buffer_read").cache_write("buffer_write");
    k.compute_at("buffer_read", outer_names.back());
    k.compute_at("buffer_write", outer_names.back());
  }
  if (spec.parallel_threads > 0)
    k.parallel(spec.tiled() ? outer_names.front() : vars.front(), spec.parallel_threads);
  if (spec.time_tile.depth > 1) k.time_tile(spec.time_tile.depth, spec.time_tile.width);

  dsl::TermSum sum;
  for (int n = 0; n < spec.time_deps; ++n)
    sum.terms.push_back(
        {k.ptr(), -(n + 1), spec.time_weights[static_cast<std::size_t>(n)]});
  prog->def_stencil("st", B, sum);
  return prog;
}

std::string describe(const CaseSpec& spec) {
  std::ostringstream out;
  out << "case seed=" << spec.seed << " ndim=" << spec.ndim << " extent=[";
  for (int d = 0; d < spec.ndim; ++d)
    out << (d ? "," : "") << spec.extent[static_cast<std::size_t>(d)];
  out << "] radius=" << spec.radius << " timesteps=" << spec.timesteps << "\n";
  out << "  temporal:";
  for (int n = 0; n < spec.time_deps; ++n)
    out << " " << spec.time_weights[static_cast<std::size_t>(n)] << "*S[t-" << n + 1 << "]";
  out << "\n  terms: " << spec.center_coeff << "*B(center)";
  for (const auto& nb : spec.neighbors) {
    out << " + " << nb.coeff << "*B(";
    for (int d = 0; d < spec.ndim; ++d)
      out << (d ? "," : "") << nb.offset[static_cast<std::size_t>(d)];
    out << ")";
  }
  out << "\n  schedule:";
  if (spec.tiled()) {
    out << " tile=[";
    for (int d = 0; d < spec.ndim; ++d)
      out << (d ? "," : "") << spec.tile[static_cast<std::size_t>(d)];
    out << "]";
    if (spec.reorder) out << " reorder";
    if (spec.spm_pipeline) out << " cache_read+cache_write+compute_at";
  }
  if (spec.parallel_threads > 0) out << " parallel=" << spec.parallel_threads;
  if (spec.time_tile.depth > 1)
    out << " time_tile=" << spec.time_tile.depth << "," << spec.time_tile.width;
  if (!spec.tiled() && spec.parallel_threads == 0 && spec.time_tile.depth == 1)
    out << " (default)";
  out << "\n  mpi ranks=[";
  for (int d = 0; d < spec.ndim; ++d)
    out << (d ? "," : "") << spec.ranks[static_cast<std::size_t>(d)];
  out << "]\n";
  return out.str();
}

}  // namespace msc::check
