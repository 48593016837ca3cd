// Benchmark workloads: the generated source blocks, the settings psc uses
// for them, and the library call that compiles one block.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiler.hpp"

namespace perfbench {

/// One generated input block.
struct Input {
  std::string source;  ///< straight-line source text
  std::string rung;    ///< ladder rung name ("" on the corpus workloads)
};

struct Workload {
  std::string name;
  std::vector<Input> inputs;  ///< distinct blocks
  /// One timed round: indices into `inputs`, in the order the seed
  /// shuffled them.
  std::vector<int> sequence;
  /// The check round: `sequence`, or every input where the timed round is
  /// a sample of them.
  std::vector<int> check_sequence;
  /// Indices into `inputs` compiled once, untimed, before the first round.
  std::vector<int> warmup;
  /// psc's defaults plus the workload's --backend / --registers.
  pipesched::CompileOptions options;
  int register_limit = 0;     ///< > 0: the `psc --registers` path
  bool result_cache = false;  ///< every round starts a fresh result cache
};

/// Every name --workload accepts.
const std::vector<std::string>& workload_names();

/// Rung names of the block-size ladder, smallest first.
const std::vector<std::string>& ladder_rungs();

/// Workload `name` with its compile order drawn from `seed`. Throws
/// pipesched::Error on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// What one compile produced, in the shape both entry points share.
struct Output {
  pipesched::BasicBlock block;  ///< tuple code the scheduler consumed
  pipesched::Schedule schedule;
  pipesched::SearchStats stats;
  pipesched::Allocation allocation;
  std::string assembly;
  int values_spilled = 0;
};

/// `workload.options` with the result cache at `cache_path` ("" = none).
pipesched::CompileOptions options_with_cache(const Workload& workload,
                                             const std::string& cache_path);

/// Compile `source` the way psc does for this workload: compile_source,
/// or parse + tuple generation + compile_with_register_limit under
/// --registers.
Output compile(const Workload& workload,
               const pipesched::CompileOptions& options,
               const std::string& source);

/// SplitMix64 step: the benchmark's only source of randomness.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace perfbench
