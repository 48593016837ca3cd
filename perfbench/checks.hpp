// Correctness checks on compiled blocks. Every check returns an empty
// string when the output passes and a one-line reason when it does not,
// so self_test() can show each one failing on a corrupted output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Simulator: validate_padded finds no hazard, and the interlocked
/// simulator's stall count on the bare order equals the reported NOPs.
std::string check_simulator(const pipesched::Machine& machine,
                            const Output& out);

/// The assembly has one line per tuple plus one `nop` per reported NOP.
std::string check_assembly_shape(const Output& out);

/// Reference semantics, written apart from the compiler: the source
/// statements evaluated directly (int64 wraparound, x / 0 = 0), every
/// variable starting from a value drawn from `seed`. Its final variables
/// must equal interpret_in_order's on the emitted order and those of the
/// assembly text run on a register machine.
std::string check_semantics(const std::string& source, std::uint64_t seed,
                            const Output& out);

/// verify_allocation holds and at most `registers` registers are used.
std::string check_allocation(const Output& out, int registers);

/// Optima computed apart from the compile, for check_bounds.
struct Reference {
  bool have_other = false;  ///< the other exact backend ran on the block
  bool other_completed = false;
  int other_nops = 0;
  bool have_exhaustive = false;  ///< exhaustive_schedule ran on the block
  int exhaustive_nops = 0;
};

/// No more NOPs than the search's list seed; a completed result equals a
/// proven optimum; a curtailed one never beats it.
std::string check_bounds(const Output& out, const Reference& ref);

/// One compile of a result-cache round, as check_cache needs it.
struct CacheEvent {
  std::string key;  ///< block_key() of the compiled block
  bool hit = false;
  bool proven = false;  ///< completed and feasible: the cache stores it
  int nops = 0;
};

/// Tuple-for-tuple identity of a compiled block (opcodes and operands).
std::string block_key(const pipesched::BasicBlock& block);

/// A compile hits exactly when an earlier compile of the round produced
/// the same block with a proven result, and then reports that result's
/// NOPs. `expected_hits` receives the number of such repeats.
std::string check_cache(const std::vector<CacheEvent>& round,
                        std::size_t* expected_hits);

/// Corrupts `probe` (a good output of `source`) in each way the checks
/// above must catch and returns one line per corruption that went
/// unnoticed; empty when every check fails as it should.
std::vector<std::string> self_test(const pipesched::Machine& machine,
                                   const std::string& source,
                                   std::uint64_t seed, const Output& probe,
                                   int registers);

}  // namespace perfbench
