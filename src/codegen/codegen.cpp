#include "codegen/codegen.hpp"

#include <filesystem>
#include <fstream>

#include "dsl/program.hpp"
#include "support/error.hpp"

namespace msc::codegen {

GenContext make_aot_spec(const ir::StencilDef& st, const schedule::Schedule& sched,
                         const exec::LinearKernel& lin) {
  GenContext ctx;
  ctx.stencil = &st;
  ctx.sched = &sched;
  ctx.linear = lin;
  ctx.prog_name = st.name();
  return ctx;
}

GenContext make_context(const dsl::Program& prog) {
  const auto lin = exec::linearize_stencil(prog.stencil(), prog.bindings());
  MSC_CHECK(lin.has_value()) << "program '" << prog.name()
                             << "': code generation requires an affine stencil "
                             << "(sum of coefficient * neighbor terms)";
  GenContext ctx = make_aot_spec(prog.stencil(), prog.primary_schedule(), *lin);
  ctx.prog_name = prog.name();
  ctx.mpi_dims = prog.mpi_shape().dims;
  return ctx;
}

GenResult generate_files(const GenContext& ctx, const std::string& target) {
  if (target == "c") return gen_c(ctx);
  if (target == "openmp") return gen_openmp(ctx);
  if (target == "sunway") return gen_athread(ctx);
  if (target == "openacc") return gen_openacc(ctx);
  MSC_FAIL() << "unknown codegen target '" << target
             << "' (expected c / openmp / sunway / openacc)";
}

std::string generate(const dsl::Program& prog, const std::string& target,
                     const std::string& out_dir) {
  const GenContext ctx = make_context(prog);
  const GenResult result = generate_files(ctx, target);
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    for (const auto& [name, text] : result.files) {
      std::ofstream out(std::filesystem::path(out_dir) / name);
      MSC_CHECK(out.good()) << "cannot write " << out_dir << "/" << name;
      out << text;
    }
  }
  return result.files.at(result.main_file);
}

}  // namespace msc::codegen
