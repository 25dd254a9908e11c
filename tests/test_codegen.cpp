// Codegen tests: structural checks on every backend plus a full
// compile-and-run integration check — the generated serial C and OpenMP
// programs are built with the host compiler and their checksums compared,
// which pins the generated indexing/window logic to the host executor.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "check/oracles.hpp"
#include "codegen/codegen.hpp"
#include "dsl/program.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "workload/stencils.hpp"

// Compile-and-run tests need a host C compiler; on bare environments they
// skip with an explicit message instead of failing on the popen error.
#define MSC_REQUIRE_HOST_CC()                                                        \
  do {                                                                               \
    if (!msc::check::compiler_available())                                           \
      GTEST_SKIP() << "no host C compiler ('cc') on PATH; skipping compile-and-run " \
                      "codegen check";                                               \
  } while (0)

namespace msc::codegen {
namespace {

std::unique_ptr<dsl::Program> small_3d7pt(bool sunway_sched) {
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {20, 20, 20});
  workload::apply_msc_schedule(*prog, info, sunway_sched ? "sunway" : "matrix",
                               {4, 4, 8});
  return prog;
}

TEST(Codegen, ContextRequiresAffineStencil) {
  dsl::Program prog("nonaffine");
  dsl::Var j = prog.var("j"), i = prog.var("i");
  dsl::GridRef B = prog.def_tensor_2d_timewin("B", 1, 1, ir::DataType::f64, 8, 8);
  auto& k = prog.kernel("m", {j, i}, dsl::min(B(j, i), dsl::ExprH(1.0)));
  prog.def_stencil("st", B, k[prog.t() - 1]);
  EXPECT_THROW(make_context(prog), Error);
}

TEST(Codegen, SerialCStructure) {
  auto prog = small_3d7pt(false);
  const auto ctx = make_context(*prog);
  const auto result = gen_c(ctx);
  const auto& src = result.files.at(result.main_file);
  EXPECT_NE(src.find("#define WIN 3"), std::string::npos);
  EXPECT_NE(src.find("#define HALO 1"), std::string::npos);
  EXPECT_NE(src.find("static void sweep"), std::string::npos);
  EXPECT_NE(src.find("checksum"), std::string::npos);
  EXPECT_NE(src.find("SLOT(t + (-2))"), std::string::npos);  // 2 time deps
  EXPECT_TRUE(result.files.contains("Makefile"));
}

TEST(Codegen, OpenMpBackendEmitsPragma) {
  auto prog = small_3d7pt(false);
  const auto result = gen_openmp(make_context(*prog));
  const auto& src = result.files.at(result.main_file);
  EXPECT_NE(src.find("#pragma omp parallel for num_threads(32)"), std::string::npos);
  EXPECT_NE(src.find("#include <omp.h>"), std::string::npos);
}

TEST(Codegen, AthreadBackendEmitsMasterAndSlave) {
  auto prog = small_3d7pt(true);
  const auto result = gen_athread(make_context(*prog));
  ASSERT_EQ(result.files.size(), 4u);  // master, slave, shim, Makefile
  EXPECT_TRUE(result.files.contains("athread_shim.h"));
  const auto& master = result.files.at("3d7pt_star_master.c");
  const auto& slave = result.files.at("3d7pt_star_slave.c");
  EXPECT_NE(master.find("int main(int argc, char **argv) {\n  athread_init();\n"),
            std::string::npos);
  EXPECT_NE(master.find("athread_spawn"), std::string::npos);
  EXPECT_NE(slave.find("athread_get"), std::string::npos);
  EXPECT_NE(slave.find("% 64) != my_id"), std::string::npos);  // CPE ownership
  EXPECT_NE(slave.find("SPM"), std::string::npos);
  EXPECT_NE(result.files.at("Makefile").find("sw5cc"), std::string::npos);
}

TEST(Codegen, OpenAccBackendEmitsDirectives) {
  auto prog = small_3d7pt(true);
  const auto result = gen_openacc(make_context(*prog));
  const auto& src = result.files.at(result.main_file);
  EXPECT_NE(src.find("#pragma acc parallel loop"), std::string::npos);
}

TEST(Codegen, OpenAccDataClauseCoversEveryReadSlot) {
  // 3d7pt_star reads t-1 and t-2: both slots are copied in, and `out` is
  // copied both ways so the halo cells the kernel never writes keep the
  // host's zeros.
  auto prog = small_3d7pt(true);
  const auto result = gen_openacc(make_context(*prog));
  const auto& src = result.files.at(result.main_file);
  EXPECT_NE(src.find("#pragma acc data copyin(in_m1[0:PADDED], in_m2[0:PADDED]) "
                     "copy(out[0:PADDED])"),
            std::string::npos);
  EXPECT_EQ(src.find("copyout"), std::string::npos);
}

TEST(Codegen, MpiGridAddsGuardedExchange) {
  const auto& info = workload::benchmark("3d7pt_star");
  auto prog = workload::make_program(info, ir::DataType::f64, {16, 16, 16});
  prog->def_shape_mpi({2, 2, 2});
  const auto result = gen_c(make_context(*prog));
  const auto& src = result.files.at(result.main_file);
  EXPECT_NE(src.find("#ifdef MSC_WITH_MPI"), std::string::npos);
  EXPECT_NE(src.find("MPI_Isend"), std::string::npos);
  EXPECT_NE(src.find("MPI_Irecv"), std::string::npos);
  EXPECT_NE(src.find("MPI_Cart_create"), std::string::npos);
  EXPECT_NE(src.find("exchange_halo"), std::string::npos);
}

TEST(Codegen, UnknownTargetRejected) {
  auto prog = small_3d7pt(false);
  EXPECT_THROW(generate_files(make_context(*prog), "cuda"), Error);
}

// ---- compile & run ------------------------------------------------------

struct CompileResult {
  bool ok = false;
  std::string output;
};

CompileResult compile_and_run(const std::string& dir, const std::string& src_name,
                              const std::string& extra_flags) {
  CompileResult r;
  const std::string exe = dir + "/prog";
  const std::string cmd = "cc -O2 -std=c99 " + extra_flags + " -o " + exe + " " + dir + "/" +
                          src_name + " -lm 2>&1 && " + exe + " 4";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  r.ok = pclose(pipe) == 0;
  return r;
}

/// Runs the stencil on the host executor with the same seeding scheme the
/// generated mains use (seed 42 + 0x51ed2701 * slot) and returns the
/// interior checksum of the final timestep.
double host_checksum(dsl::Program& prog, std::int64_t timesteps) {
  prog.input(dsl::GridRef(prog.stencil().state()), 42);
  prog.run(1, timesteps);
  double sum = 0.0;
  const auto& st = prog.stencil().state();
  for (std::int64_t a = 0; a < st->extent(0); ++a)
    for (std::int64_t b = 0; b < st->extent(1); ++b)
      for (std::int64_t c = 0; c < (st->ndim() == 3 ? st->extent(2) : 1); ++c)
        sum += prog.value_at(timesteps, {a, b, c});
  return sum;
}

TEST(CodegenIntegration, GeneratedSerialCCompilesAndRuns) {
  MSC_REQUIRE_HOST_CC();
  auto prog = small_3d7pt(false);
  const auto dir = std::filesystem::temp_directory_path() / "msc_codegen_c";
  std::filesystem::create_directories(dir);
  prog->compile_to_source_code("c", dir.string());
  const auto r = compile_and_run(dir.string(), "3d7pt_star.c", "");
  ASSERT_TRUE(r.ok) << r.output;
  EXPECT_NE(r.output.find("checksum"), std::string::npos) << r.output;
}

TEST(CodegenIntegration, GeneratedOpenMpCompilesAndMatchesSerial) {
  MSC_REQUIRE_HOST_CC();
  auto prog = small_3d7pt(false);
  const auto dir = std::filesystem::temp_directory_path() / "msc_codegen_omp";
  std::filesystem::create_directories(dir);
  prog->compile_to_source_code("c", dir.string());
  prog->compile_to_source_code("openmp", dir.string());
  const auto serial = compile_and_run(dir.string(), "3d7pt_star.c", "");
  const auto omp = compile_and_run(dir.string(), "3d7pt_star_omp.c", "-fopenmp");
  ASSERT_TRUE(serial.ok) << serial.output;
  ASSERT_TRUE(omp.ok) << omp.output;
  // Same seeding, same term order: checksums must agree exactly.
  EXPECT_EQ(serial.output, omp.output);
}

TEST(CodegenIntegration, GeneratedCodeMatchesHostExecutorChecksum) {
  MSC_REQUIRE_HOST_CC();
  // Strongest codegen check: the AOT C program and the in-process executor
  // must compute bit-identical grids (same seeding order, same term order,
  // same double accumulation).
  auto prog = small_3d7pt(false);
  const auto dir = std::filesystem::temp_directory_path() / "msc_codegen_xcheck";
  std::filesystem::create_directories(dir);
  prog->compile_to_source_code("c", dir.string());
  const auto r = compile_and_run(dir.string(), "3d7pt_star.c", "");
  ASSERT_TRUE(r.ok) << r.output;
  double generated = 0.0;
  ASSERT_EQ(std::sscanf(r.output.c_str(), "checksum %lf", &generated), 1) << r.output;
  const double host = host_checksum(*prog, 4);
  EXPECT_NEAR(generated, host, std::abs(host) * 1e-12 + 1e-12);
}

TEST(CodegenIntegration, AthreadHostSimMatchesSerialChecksum) {
  MSC_REQUIRE_HOST_CC();
  // The Sunway master/slave pair compiles against the emitted pthread shim
  // (-DMSC_HOST_SIM) and must reproduce the serial backend's checksum —
  // this validates the athread loop structure, CPE task ownership and
  // window rotation, not just the source text.
  auto prog = small_3d7pt(true);
  const auto dir = std::filesystem::temp_directory_path() / "msc_codegen_athread";
  std::filesystem::create_directories(dir);
  prog->compile_to_source_code("sunway", dir.string());
  prog->compile_to_source_code("c", dir.string());

  const auto serial = compile_and_run(dir.string(), "3d7pt_star.c", "");
  ASSERT_TRUE(serial.ok) << serial.output;

  CompileResult hostsim;
  {
    const std::string exe = dir.string() + "/hostsim";
    const std::string cmd = "cc -O2 -std=c99 -DMSC_HOST_SIM -pthread -o " + exe + " " +
                            dir.string() + "/3d7pt_star_master.c " + dir.string() +
                            "/3d7pt_star_slave.c -lm 2>&1 && " + exe + " 4";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    char buf[512];
    while (fgets(buf, sizeof buf, pipe) != nullptr) hostsim.output += buf;
    hostsim.ok = pclose(pipe) == 0;
  }
  ASSERT_TRUE(hostsim.ok) << hostsim.output;
  EXPECT_EQ(serial.output, hostsim.output);
}

TEST(CodegenIntegration, MpiGuardedCodeStillCompilesWithoutMpi) {
  MSC_REQUIRE_HOST_CC();
  const auto& info = workload::benchmark("2d9pt_box");
  auto prog = workload::make_program(info, ir::DataType::f64, {24, 24, 0});
  workload::apply_msc_schedule(*prog, info, "matrix", {8, 8, 0});
  prog->def_shape_mpi({2, 2});
  const auto dir = std::filesystem::temp_directory_path() / "msc_codegen_mpi";
  std::filesystem::create_directories(dir);
  prog->compile_to_source_code("c", dir.string());
  const auto r = compile_and_run(dir.string(), "2d9pt_box.c", "");
  ASSERT_TRUE(r.ok) << r.output;
}

TEST(CodegenIntegration, LocScalesWithStencilOrder) {
  // Table 6 precondition: larger stencils produce longer generated code,
  // while the DSL listing grows far slower.
  const auto small = workload::benchmark("2d9pt_box");
  const auto large = workload::benchmark("2d121pt_box");
  auto ps = workload::make_program(small, ir::DataType::f64, {32, 32, 0});
  auto pl = workload::make_program(large, ir::DataType::f64, {32, 32, 0});
  workload::apply_msc_schedule(*ps, small, "matrix", {8, 8, 0});
  workload::apply_msc_schedule(*pl, large, "matrix", {8, 8, 0});
  const int loc_s = count_loc(generate_files(make_context(*ps), "openmp")
                                  .files.at("2d9pt_box_omp.c"));
  const int loc_l = count_loc(generate_files(make_context(*pl), "openmp")
                                  .files.at("2d121pt_box_omp.c"));
  EXPECT_GT(loc_l, loc_s);
}

}  // namespace
}  // namespace msc::codegen
