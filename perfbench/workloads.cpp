#include "workloads.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "frontend/codegen.hpp"
#include "frontend/parser.hpp"
#include "synth/corpus.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"

namespace perfbench {

using namespace pipesched;

namespace {

// psc's default curtail point (psc --lambda).
constexpr std::uint64_t kPscLambda = 50000;

// corpus: the timed rounds compile the first kCorpusTimed of the 16,000
// blocks (each point of corpus_params' 336-point lattice about 12 times),
// so that each is compiled about twenty times in a run; the check round
// compiles all 16,000.
constexpr int kCorpusTimed = 4000;

// corpus_cached: the first kCachedDistinct corpus blocks, each compiled
// kCachedCopies times per round.
constexpr int kCachedDistinct = 1000;
constexpr int kCachedCopies = 4;

// Corpus warm-up: this many blocks from the head of the round.
constexpr int kCorpusWarmup = 256;

// The ladder: straight-line programs over 40 variables and 4 constants,
// generator seed 1, one rung per statement count. With psc's optimizer
// they come to 67 ... 5,337 tuples (README.md has the table).
constexpr int kLadderStatements[] = {32, 160, 640, 2560, 5120, 10000, 20000};
constexpr int kLadderVariables = 40;
constexpr int kLadderConstants = 4;
constexpr std::uint64_t kLadderSeed = 1;
// Rungs up to this many statements are compiled once as warm-up.
constexpr int kLadderWarmupStatements = 640;
constexpr int kLadderRegisters = 64;

std::string rung_name(int statements) {
  return "s" + std::to_string(statements);
}

void shuffle(std::vector<int>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = splitmix64(state) % i;
    std::swap(v[i - 1], v[j]);
  }
}

CompileOptions psc_defaults() {
  CompileOptions options;
  options.search.curtail_lambda = kPscLambda;
  return options;
}

Workload corpus_workload(const std::string& name, int distinct, int copies) {
  Workload w;
  w.name = name;
  const std::vector<GeneratorParams> params = corpus_params(CorpusSpec{});
  for (int i = 0; i < distinct; ++i) {
    w.inputs.push_back({generate_source(params[static_cast<std::size_t>(i)])
                            .to_string(),
                        ""});
  }
  for (int c = 0; c < copies; ++c) {
    for (int i = 0; i < distinct; ++i) w.sequence.push_back(i);
  }
  w.options = psc_defaults();
  return w;
}

Workload ladder_workload(const std::string& name, OptimalBackend backend) {
  Workload w;
  w.name = name;
  for (int statements : kLadderStatements) {
    GeneratorParams p;
    p.statements = statements;
    p.variables = kLadderVariables;
    p.constants = kLadderConstants;
    p.seed = kLadderSeed;
    w.inputs.push_back({generate_source(p).to_string(), rung_name(statements)});
    if (statements <= kLadderWarmupStatements) {
      w.warmup.push_back(static_cast<int>(w.sequence.size()));
    }
    w.sequence.push_back(static_cast<int>(w.sequence.size()));
  }
  w.options = psc_defaults();
  w.options.search.backend = backend;
  w.options.registers = kLadderRegisters;
  w.register_limit = kLadderRegisters;
  return w;
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"corpus", "large_bnb",
                                                  "large_cp", "corpus_cached"};
  return kNames;
}

const std::vector<std::string>& ladder_rungs() {
  static const std::vector<std::string> kRungs = [] {
    std::vector<std::string> rungs;
    for (int statements : kLadderStatements) {
      rungs.push_back(rung_name(statements));
    }
    return rungs;
  }();
  return kRungs;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "corpus") {
    w = corpus_workload(name, CorpusSpec{}.total_runs, 1);
  } else if (name == "corpus_cached") {
    w = corpus_workload(name, kCachedDistinct, kCachedCopies);
    w.result_cache = true;
  } else if (name == "large_bnb") {
    w = ladder_workload(name, OptimalBackend::Bnb);
  } else if (name == "large_cp") {
    w = ladder_workload(name, OptimalBackend::Cp);
  } else {
    throw Error("unknown workload: " + name);
  }
  if (name == "corpus") {
    w.check_sequence = w.sequence;
    w.sequence.resize(kCorpusTimed);
  }
  shuffle(w.sequence, seed);
  if (w.check_sequence.empty()) w.check_sequence = w.sequence;
  if (w.warmup.empty()) {
    const auto n = std::min<std::ptrdiff_t>(
        kCorpusWarmup, static_cast<std::ptrdiff_t>(w.sequence.size()));
    w.warmup.assign(w.sequence.begin(), w.sequence.begin() + n);
  }
  return w;
}

CompileOptions options_with_cache(const Workload& workload,
                                  const std::string& cache_path) {
  CompileOptions options = workload.options;
  options.search.result_cache_path = cache_path;
  return options;
}

Output compile(const Workload& workload, const CompileOptions& options,
               const std::string& source) {
  Output out;
  if (workload.register_limit > 0) {
    // psc --registers: the source goes through the front end first, then
    // the register-limited driver.
    BasicBlock tuples = generate_tuples(parse_source(source));
    RegisterLimitedResult r = compile_with_register_limit(tuples, options);
    out.block = std::move(r.compiled.block);
    out.schedule = std::move(r.compiled.schedule);
    out.stats = r.compiled.stats;
    out.allocation = std::move(r.compiled.allocation);
    out.assembly = std::move(r.compiled.assembly);
    out.values_spilled = r.values_spilled;
  } else {
    CompileResult r = compile_source(source, options);
    out.block = std::move(r.block);
    out.schedule = std::move(r.schedule);
    out.stats = r.stats;
    out.allocation = std::move(r.allocation);
    out.assembly = std::move(r.assembly);
  }
  return out;
}

}  // namespace perfbench
