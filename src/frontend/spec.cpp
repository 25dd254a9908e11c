#include "frontend/spec.hpp"

#include <limits>
#include <sstream>

#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc::frontend {

namespace {

/// Splits a line into whitespace tokens, dropping '#' comments.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') break;
    tokens.push_back(tok);
  }
  return tokens;
}

std::int64_t to_int(const std::string& s, int line_no) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(s, &used);
    MSC_CHECK(used == s.size()) << "spec line " << line_no << ": bad integer '" << s << "'";
    return v;
  } catch (const std::exception&) {
    MSC_FAIL() << "spec line " << line_no << ": bad integer '" << s << "'";
  }
}

double to_double(const std::string& s, int line_no) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    MSC_CHECK(used == s.size()) << "spec line " << line_no << ": bad number '" << s << "'";
    return v;
  } catch (const std::exception&) {
    MSC_FAIL() << "spec line " << line_no << ": bad number '" << s << "'";
  }
}

/// A `tile`, `parallel` or `mpi` value: a count in [1, INT_MAX].  Anything
/// else is rejected rather than clamped or narrowed, since the schedule and
/// the process grid would otherwise silently run something else.
int to_count(const std::string& s, int line_no, const std::string& directive) {
  const std::int64_t v = to_int(s, line_no);
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  if (v < 1 || v > kMax)
    throw CodedError(ErrorCode::InvalidConfig,
                     strprintf("spec line %d: %s value %s is outside [1, %lld]", line_no,
                               directive.c_str(), s.c_str(), static_cast<long long>(kMax)));
  return static_cast<int>(v);
}

}  // namespace

StencilSpec parse_spec(const std::string& text) {
  StencilSpec spec;
  int line_no = 0;
  for (const auto& line : split(text, '\n')) {
    ++line_no;
    const auto tok = tokenize(line);
    if (tok.empty()) continue;
    const auto& key = tok[0];
    const auto argc = tok.size() - 1;

    if (key == "name") {
      MSC_CHECK(argc == 1) << "spec line " << line_no << ": name takes one value";
      spec.name = tok[1];
    } else if (key == "grid") {
      MSC_CHECK(argc >= 1 && argc <= 3) << "spec line " << line_no << ": grid takes 1-3 extents";
      spec.grid.clear();
      for (std::size_t n = 1; n < tok.size(); ++n) spec.grid.push_back(to_int(tok[n], line_no));
    } else if (key == "halo") {
      MSC_CHECK(argc == 1) << "spec line " << line_no << ": halo takes one value";
      spec.halo = to_int(tok[1], line_no);
    } else if (key == "dtype") {
      MSC_CHECK(argc == 1) << "spec line " << line_no << ": dtype takes one value";
      if (tok[1] == "f32") {
        spec.dtype = ir::DataType::f32;
      } else if (tok[1] == "f64") {
        spec.dtype = ir::DataType::f64;
      } else {
        MSC_FAIL() << "spec line " << line_no << ": dtype must be f32 or f64, got '" << tok[1]
                   << "'";
      }
    } else if (key == "point") {
      MSC_CHECK(!spec.grid.empty()) << "spec line " << line_no << ": declare grid before points";
      const auto nd = spec.grid.size();
      MSC_CHECK(argc == nd + 1) << "spec line " << line_no << ": point takes " << nd
                                << " offsets and a coefficient";
      StencilSpec::Point p;
      for (std::size_t d = 0; d < nd; ++d) p.offset[d] = to_int(tok[1 + d], line_no);
      p.coeff = to_double(tok[1 + nd], line_no);
      spec.points.push_back(p);
    } else if (key == "term") {
      MSC_CHECK(argc == 2) << "spec line " << line_no << ": term takes offset and weight";
      StencilSpec::Term t;
      t.offset = static_cast<int>(to_int(tok[1], line_no));
      t.weight = to_double(tok[2], line_no);
      spec.terms.push_back(t);
    } else if (key == "tile") {
      MSC_CHECK(!spec.grid.empty()) << "spec line " << line_no << ": declare grid before tile";
      MSC_CHECK(argc == spec.grid.size())
          << "spec line " << line_no << ": tile takes one factor per grid dimension";
      for (std::size_t d = 0; d < argc; ++d) spec.tile[d] = to_count(tok[1 + d], line_no, key);
    } else if (key == "parallel") {
      MSC_CHECK(argc == 1) << "spec line " << line_no << ": parallel takes a thread count";
      spec.parallel_threads = to_count(tok[1], line_no, key);
    } else if (key == "mpi") {
      MSC_CHECK(argc >= 1 && argc <= 3) << "spec line " << line_no << ": mpi takes 1-3 extents";
      spec.mpi.clear();
      for (std::size_t n = 1; n < tok.size(); ++n)
        spec.mpi.push_back(to_count(tok[n], line_no, key));
    } else {
      MSC_FAIL() << "spec line " << line_no << ": unknown directive '" << key << "'";
    }
  }

  MSC_CHECK(!spec.name.empty()) << "spec: missing 'name'";
  MSC_CHECK(!spec.grid.empty()) << "spec: missing 'grid'";
  MSC_CHECK(!spec.points.empty()) << "spec: needs at least one 'point'";
  if (spec.terms.empty()) spec.terms.push_back({-1, 1.0});
  return spec;
}

std::unique_ptr<dsl::Program> build_program(const StencilSpec& spec) {
  auto prog = std::make_unique<dsl::Program>(spec.name);
  const int nd = static_cast<int>(spec.grid.size());
  int deepest = 1;
  for (const auto& t : spec.terms) deepest = std::max(deepest, -t.offset);

  dsl::ExprH rhs;
  std::vector<dsl::Var> vars;
  dsl::GridRef B;
  if (nd == 3) {
    vars = {prog->var("k"), prog->var("j"), prog->var("i")};
    B = prog->def_tensor_3d_timewin("B", deepest, spec.halo, spec.dtype, spec.grid[0],
                                    spec.grid[1], spec.grid[2]);
    for (std::size_t n = 0; n < spec.points.size(); ++n) {
      const auto& p = spec.points[n];
      dsl::ExprH term = dsl::ExprH(p.coeff) * B(vars[0] + p.offset[0], vars[1] + p.offset[1],
                                                vars[2] + p.offset[2]);
      rhs = n == 0 ? term : rhs + term;
    }
  } else if (nd == 2) {
    vars = {prog->var("j"), prog->var("i")};
    B = prog->def_tensor_2d_timewin("B", deepest, spec.halo, spec.dtype, spec.grid[0],
                                    spec.grid[1]);
    for (std::size_t n = 0; n < spec.points.size(); ++n) {
      const auto& p = spec.points[n];
      dsl::ExprH term =
          dsl::ExprH(p.coeff) * B(vars[0] + p.offset[0], vars[1] + p.offset[1]);
      rhs = n == 0 ? term : rhs + term;
    }
  } else {
    MSC_FAIL() << "spec: 1-D grids are not supported by the textual frontend yet "
               << "(use the C++ DSL)";
  }

  auto& kernel = prog->kernel("S_" + spec.name, vars, rhs);

  dsl::TermSum sum;
  for (const auto& t : spec.terms)
    sum.terms.push_back(t.weight * kernel[dsl::TimeShift{t.offset}]);
  prog->def_stencil("st_" + spec.name, B, sum);

  if (spec.tile[0] > 0) {
    std::vector<std::int64_t> taus;
    std::vector<std::string> order_outer, order_inner;
    for (int d = 0; d < nd; ++d) {
      taus.push_back(std::min(spec.tile[static_cast<std::size_t>(d)],
                              spec.grid[static_cast<std::size_t>(d)]));
      order_outer.push_back(vars[static_cast<std::size_t>(d)].name() + "_outer");
      order_inner.push_back(vars[static_cast<std::size_t>(d)].name() + "_inner");
    }
    kernel.tile(taus);
    auto order = order_outer;
    order.insert(order.end(), order_inner.begin(), order_inner.end());
    kernel.reorder(order);
    if (spec.parallel_threads > 0) kernel.parallel(order_outer.front(), spec.parallel_threads);
  } else {
    MSC_CHECK(spec.parallel_threads == 0)
        << "spec: 'parallel' requires a 'tile' (the parallel axis is the outer tile loop)";
  }

  if (!spec.mpi.empty()) prog->def_shape_mpi(spec.mpi);
  return prog;
}

std::unique_ptr<dsl::Program> program_from_spec(const std::string& text) {
  return build_program(parse_spec(text));
}

}  // namespace msc::frontend
