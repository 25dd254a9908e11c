// Tests of the conformance harness itself (src/check): case generation,
// oracle agreement, fault detection, shrinking and the JSON report.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/case_gen.hpp"
#include "check/conform.hpp"
#include "check/oracles.hpp"
#include "check/shrink.hpp"
#include "workload/report.hpp"

namespace msc::check {
namespace {

std::string scratch_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(CaseGen, DeterministicFromSeed) {
  for (std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    const CaseSpec a = random_case(seed);
    const CaseSpec b = random_case(seed);
    EXPECT_EQ(a.ndim, b.ndim);
    EXPECT_EQ(a.extent, b.extent);
    EXPECT_EQ(a.radius, b.radius);
    EXPECT_EQ(a.timesteps, b.timesteps);
    EXPECT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t n = 0; n < a.neighbors.size(); ++n) {
      EXPECT_EQ(a.neighbors[n].offset, b.neighbors[n].offset);
      EXPECT_EQ(a.neighbors[n].coeff, b.neighbors[n].coeff);
    }
    EXPECT_EQ(a.tile, b.tile);
    EXPECT_EQ(a.parallel_threads, b.parallel_threads);
    EXPECT_EQ(a.ranks, b.ranks);
    EXPECT_EQ(a.time_tile.depth, b.time_tile.depth);
    EXPECT_EQ(a.time_tile.width, b.time_tile.width);
  }
}

TEST(CaseGen, CoversBothRanksAndSchedules) {
  bool saw_2d = false, saw_3d = false, saw_tiled = false, saw_untiled = false,
       saw_parallel = false, saw_multirank = false, saw_spm = false, saw_time_tile = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const CaseSpec s = random_case(seed);
    (s.ndim == 2 ? saw_2d : saw_3d) = true;
    (s.tiled() ? saw_tiled : saw_untiled) = true;
    saw_parallel |= s.parallel_threads > 0;
    saw_multirank |= s.rank_count() > 1;
    saw_spm |= s.spm_pipeline;
    saw_time_tile |= s.time_tile.depth > 1;
  }
  EXPECT_TRUE(saw_2d);
  EXPECT_TRUE(saw_3d);
  EXPECT_TRUE(saw_tiled);
  EXPECT_TRUE(saw_untiled);
  EXPECT_TRUE(saw_parallel);
  EXPECT_TRUE(saw_multirank);
  EXPECT_TRUE(saw_spm);
  EXPECT_TRUE(saw_time_tile);
}

TEST(CaseGen, EverySpecBuildsAValidProgram) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const CaseSpec s = random_case(seed);
    auto prog = build_program(s);
    ASSERT_TRUE(prog->has_stencil()) << describe(s);
    EXPECT_EQ(prog->stencil().state()->ndim(), s.ndim);
    EXPECT_EQ(prog->stencil().time_window(), s.time_deps + 1);
    EXPECT_GE(prog->stencil().state()->halo(), prog->stencil().max_radius());
  }
}

TEST(Oracles, UlpDistance) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0);
  EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1);
  EXPECT_EQ(ulp_distance(std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0)), 2);
  EXPECT_GT(ulp_distance(1.0, 1.0 + 1e-9), 1000);
}

TEST(Oracles, InProcessOraclesMatchReferenceBitwise) {
  // run_scheduled and the CG simulator keep the reference accumulation
  // order, so agreement is exact, not just within tolerance.  The scheduled
  // oracle also names its route: the wedges for a time_tile depth > 1, the
  // row sweep otherwise.
  OracleOptions opts;
  opts.work_dir = scratch_dir("msc_check_inproc");
  bool saw_wedges = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const CaseSpec spec = random_case(seed);
    const OracleRun ref = run_oracle(spec, Oracle::Reference, opts);
    ASSERT_TRUE(ref.ok) << describe(spec) << ref.note;
    for (Oracle o : {Oracle::Scheduled, Oracle::SunwaySim, Oracle::SimMpi}) {
      const OracleRun run = run_oracle(spec, o, opts);
      if (run.skipped) continue;
      ASSERT_TRUE(run.ok) << oracle_name(o) << " seed " << seed << ": " << run.note;
      const Comparison cmp = compare_runs(ref, run, /*max_ulps=*/0);
      EXPECT_TRUE(cmp.match) << oracle_name(o) << " seed " << seed << ": " << cmp.detail
                             << "\n" << describe(spec);
      if (o == Oracle::Scheduled) {
        EXPECT_EQ(run.route, spec.time_tile.depth > 1 ? "temporal" : "sweep") << describe(spec);
      }
    }
    saw_wedges |= spec.time_tile.depth > 1;
  }
  EXPECT_TRUE(saw_wedges) << "seeds 1-8 must draw at least one time_tile depth > 1";
}

TEST(Oracles, CompiledBackendsMatchReference) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  OracleOptions opts;
  opts.work_dir = scratch_dir("msc_check_cc");
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const CaseSpec spec = random_case(seed);
    const OracleRun ref = run_oracle(spec, Oracle::Reference, opts);
    ASSERT_TRUE(ref.ok);
    for (Oracle o : {Oracle::GenC, Oracle::GenOpenMp, Oracle::AthreadSim}) {
      const OracleRun run = run_oracle(spec, o, opts);
      ASSERT_FALSE(run.skipped) << oracle_name(o) << ": " << run.note;
      ASSERT_TRUE(run.ok) << oracle_name(o) << " seed " << seed << ": " << run.note;
      const Comparison cmp = compare_runs(ref, run, /*max_ulps=*/16);
      EXPECT_TRUE(cmp.match) << oracle_name(o) << " seed " << seed << ": " << cmp.detail;
    }
  }
}

// A stand-in "cc" driver: accepts the --version probe, then instead of
// compiling writes `exe_body` to the -o target and marks it executable.
// Lets the tests dictate exactly how the "compiled" program behaves.  The
// script's own name contains a space, so the cc path quoting is pinned too.
std::string write_fake_cc(const std::string& dir, const std::string& exe_body) {
  const auto path = std::filesystem::path(dir) / "fake cc.sh";
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n"
        << "[ \"$1\" = \"--version\" ] && exit 0\n"
        << "out=\"\"; prev=\"\"\n"
        << "for a in \"$@\"; do\n"
        << "  [ \"$prev\" = \"-o\" ] && out=\"$a\"\n"
        << "  prev=\"$a\"\n"
        << "done\n"
        << "cat > \"$out\" <<'MSC_EOF'\n"
        << exe_body
        << "MSC_EOF\n"
        << "chmod +x \"$out\"\n";
  }
  std::filesystem::permissions(path,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::group_exec,
                               std::filesystem::perm_options::add);
  return path.string();
}

TEST(Oracles, CompiledOracleSurvivesWorkdirWithSpaces) {
  // Regression: the compile/run command lines used to splice raw paths, so
  // a scratch directory containing a space broke every popen'd backend.
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  OracleOptions opts;
  opts.work_dir = scratch_dir("msc check spaced dir");
  const CaseSpec spec = random_case(2);
  const OracleRun ref = run_oracle(spec, Oracle::Reference, opts);
  ASSERT_TRUE(ref.ok);
  const OracleRun c = run_oracle(spec, Oracle::GenC, opts);
  ASSERT_FALSE(c.skipped) << c.note;
  ASSERT_TRUE(c.ok) << c.note;
  EXPECT_TRUE(compare_runs(ref, c, 16).match);
}

TEST(Oracles, RunStageCrashIsReportedAsSignalDeath) {
  // Regression: the oracle's note used to conflate "the generated program
  // crashed" with "it exited nonzero" (and with compile failures, since
  // only the compile stage redirected stderr).  A signal death must be
  // named as such.
  const std::string dir = scratch_dir("msc_check_fakecc_crash");
  OracleOptions opts;
  opts.work_dir = dir;
  opts.cc = write_fake_cc(dir,
                          "#!/bin/sh\n"
                          "echo deliberate crash >&2\n"
                          "kill -KILL $$\n");
  const OracleRun run = run_oracle(random_case(1), Oracle::GenC, opts);
  EXPECT_FALSE(run.ok);
  EXPECT_FALSE(run.skipped);
  EXPECT_NE(run.note.find("run crashed (signal 9)"), std::string::npos) << run.note;
  EXPECT_NE(run.note.find("deliberate crash"), std::string::npos)
      << "run-stage stderr must be captured: " << run.note;
}

TEST(Oracles, RunStageExitFailureReportsStatusAndStderr) {
  const std::string dir = scratch_dir("msc_check_fakecc_exit");
  OracleOptions opts;
  opts.work_dir = dir;
  opts.cc = write_fake_cc(dir,
                          "#!/bin/sh\n"
                          "echo boom: bad geometry >&2\n"
                          "exit 7\n");
  const OracleRun run = run_oracle(random_case(1), Oracle::GenC, opts);
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.note.find("run failed (exit 7)"), std::string::npos) << run.note;
  EXPECT_NE(run.note.find("boom: bad geometry"), std::string::npos) << run.note;
}

TEST(Oracles, CompileFailureNoteNamesTheCompileStage) {
  const std::string dir = scratch_dir("msc_check_fakecc_nocompile");
  OracleOptions opts;
  opts.work_dir = dir;
  // Accepts the probe but fails every real compile.
  const auto path = std::filesystem::path(dir) / "no cc.sh";
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n"
        << "[ \"$1\" = \"--version\" ] && exit 0\n"
        << "echo 'fatal: synthetic compiler wall'\n"
        << "exit 1\n";
  }
  std::filesystem::permissions(path, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::add);
  opts.cc = path.string();
  const OracleRun run = run_oracle(random_case(1), Oracle::GenC, opts);
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.note.find("compile failed (exit 1)"), std::string::npos) << run.note;
  EXPECT_NE(run.note.find("synthetic compiler wall"), std::string::npos) << run.note;
}

TEST(Oracles, InjectedCoefficientErrorIsCaught) {
  if (!compiler_available()) GTEST_SKIP() << "no host C compiler ('cc') on PATH";
  OracleOptions opts;
  opts.work_dir = scratch_dir("msc_check_fault");
  opts.coeff_perturb = 1e-3;
  const CaseSpec spec = random_case(1);
  const OracleRun ref = run_oracle(spec, Oracle::Reference, opts);
  const OracleRun bad = run_oracle(spec, Oracle::GenC, opts);
  ASSERT_TRUE(ref.ok && bad.ok);
  EXPECT_FALSE(compare_runs(ref, bad, 16).match)
      << "a 1e-3 coefficient perturbation must not pass conformance";
}

TEST(Shrink, ProducesMinimalReproducer) {
  // Failure predicate: the case still reads neighbor offset (0, 1[, 0]).
  // The shrinker should strip everything else (schedule, extra terms,
  // extents, timesteps) while keeping that term.
  const CaseSpec start = random_case(3);
  const auto reads_east = [](const CaseSpec& s) {
    for (const auto& n : s.neighbors)
      if (n.offset[static_cast<std::size_t>(s.ndim - 1)] == 1) return true;
    return false;
  };
  ASSERT_TRUE(reads_east(start)) << "seed 3 must read an eastern neighbor";
  const ShrinkResult r = shrink_case(start, reads_east);
  EXPECT_TRUE(reads_east(r.spec));
  EXPECT_GT(r.accepted, 0);
  EXPECT_LE(r.spec.timesteps, start.timesteps);
  EXPECT_LE(r.spec.neighbors.size(), start.neighbors.size());
  EXPECT_FALSE(r.spec.tiled());
  EXPECT_EQ(r.spec.parallel_threads, 0);
  EXPECT_EQ(r.spec.rank_count(), 1);
  EXPECT_EQ(r.spec.time_tile.depth, 1);
  for (int d = 0; d < r.spec.ndim; ++d)
    EXPECT_LE(r.spec.extent[static_cast<std::size_t>(d)],
              start.extent[static_cast<std::size_t>(d)]);
}

TEST(Shrink, KeepsSpecsValidForEveryOracle) {
  // Whatever the shrinker produces must still build and run.
  const CaseSpec start = random_case(5);
  const ShrinkResult r = shrink_case(start, [](const CaseSpec&) { return true; });
  OracleOptions opts;
  const OracleRun ref = run_oracle(r.spec, Oracle::Reference, opts);
  EXPECT_TRUE(ref.ok) << describe(r.spec) << ref.note;
  const OracleRun mpi = run_oracle(r.spec, Oracle::SimMpi, opts);
  EXPECT_TRUE(mpi.ok || mpi.skipped) << describe(r.spec) << mpi.note;
}

TEST(Conform, SweepPassesAndWritesReport) {
  ConformOptions opts;
  opts.cases = 4;
  opts.seed = 11;
  opts.work_dir = scratch_dir("msc_check_sweep");
  opts.report_path = opts.work_dir + "/conform_report.json";
  // In-process oracles only: keep this unit test independent of cc.
  opts.oracles = {Oracle::Scheduled, Oracle::SunwaySim, Oracle::SimMpi};
  const ConformReport report = run_conformance(opts);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cases_passed, 4);
  EXPECT_TRUE(report.reproducers.empty());

  std::ifstream in(opts.report_path);
  ASSERT_TRUE(in.good());
  std::ostringstream s;
  s << in.rdbuf();
  const std::string json = s.str();
  EXPECT_NE(json.find("\"tool\": \"msc-conform\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"scheduled\""), std::string::npos);
  EXPECT_NE(json.find("\"simmpi\""), std::string::npos);
  EXPECT_NE(json.find("\"seconds\""), std::string::npos);
}

TEST(Conform, ExitCodePolicy) {
  // Regression: msc-conform used to exit 0 even when oracles failed, so CI
  // never gated on conformance regressions.  The policy is: failures exit
  // nonzero — unless fault injection was requested, where a detected fault
  // is the expected self-test outcome and an undetected one must gate.
  ConformOptions normal;
  ConformOptions injecting;
  injecting.coeff_perturb = 1e-3;

  ConformReport all_passed;
  all_passed.cases_passed = 4;
  ConformReport one_failed;
  one_failed.cases_passed = 3;
  one_failed.cases_failed = 1;

  EXPECT_EQ(conform_exit_code(normal, all_passed), 0);
  EXPECT_EQ(conform_exit_code(normal, one_failed), 1);   // real regression gates
  EXPECT_EQ(conform_exit_code(injecting, one_failed), 0);  // fault detected: self-test ok
  EXPECT_EQ(conform_exit_code(injecting, all_passed), 1);  // vacuous pass must gate
}

TEST(Report, JsonEscapingAndStructure) {
  auto j = workload::Json::object();
  j["name"] = workload::Json::string("line\none \"two\"");
  j["count"] = workload::Json::integer(3);
  auto arr = workload::Json::array();
  arr.push_back(workload::Json::number(0.5));
  arr.push_back(workload::Json::boolean(true));
  j["items"] = std::move(arr);
  const std::string text = j.dump();
  EXPECT_NE(text.find("\"line\\none \\\"two\\\"\""), std::string::npos);
  EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
  EXPECT_NE(text.find("true"), std::string::npos);
}

}  // namespace
}  // namespace msc::check
