#pragma once

// The benchmark's workloads.  Each one is generated from a seed (the spec
// text with its coefficients, and the initial-state seed) and driven only
// through the user-facing entry points: frontend::program_from_spec, then
// dsl::Program::input/run, or comm::SimWorld + run_distributed_overlapped
// for simulated ranks.
//
// An episode is one set-up (spec text to the end of the first call) followed
// by further calls; a call advances `steps_per_call()` timesteps and is one
// sample.  With a SpanRecorder attached, set-up and calls instead replay the
// same steps through the layers' public functions, recording a span around
// each, and must end in a state bit-identical to the untraced path.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "digest.hpp"
#include "spans.hpp"

namespace perfbench {

/// Problem sizes: the benchmark's, or a tiny one for the benchmark's tests.
enum class Scale { Bench, Test };

/// What one seed generates: the spec the program receives, and the seed of
/// its initial state.
struct Inputs {
  std::string spec;
  std::uint64_t state_seed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the program from the spec, seeds its state and makes the first
  /// call.  Returns false when that call fell back to another engine than
  /// the workload names (an AOT fallback), so it measured something else.
  virtual bool setup(SpanRecorder* rec) = 0;
  /// One sample: the next steps_per_call() timesteps.  Same return value.
  virtual bool call(SpanRecorder* rec) = 0;
  /// Fingerprint of the state after the last call.
  virtual StateDigest digest() const = 0;
  /// Releases the episode's program and state.
  virtual void teardown() = 0;
  /// exec::run_reference over `steps` timesteps from the same seeded state.
  virtual StateDigest reference_digest(std::int64_t steps) = 0;

  virtual int steps_per_call() const = 0;
  virtual int calls_per_episode() const = 0;
  /// Interior points one timestep updates (global points for ranks).
  virtual std::int64_t points_per_step() const = 0;
  /// Threads the kernel runs on (pool workers or simulated ranks).
  virtual int kernel_threads() const = 0;
  /// 2 flops (multiply + add) per linear term.
  virtual std::int64_t flops_per_point() const = 0;
  /// Computed, not measured: each time level read once plus the output
  /// written once, per point.  Ignores cache misses and halo re-reads.
  virtual double bytes_per_point() const = 0;
  /// Counts the last traced replay observed (codegen.source_bytes, ...).
  virtual std::map<std::string, double> replay_counts() const = 0;
};

/// Every workload the benchmark runs.  BENCHMARK.json lists all but
/// sweep_star3d7_mem, which was too unsteady on a shared host.
const std::vector<std::string>& workload_names();

/// Throws msc::Error on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale = Scale::Bench);

/// The seeded inputs alone (tests check that a seed reproduces them).
Inputs make_inputs(const std::string& name, std::uint64_t seed, Scale scale = Scale::Bench);

}  // namespace perfbench
