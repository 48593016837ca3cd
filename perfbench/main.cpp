// perfbench: source-to-assembly throughput of pipesched on four workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// One run: set-up (inputs, empty cache file, warm-up), timed rounds until
// --seconds have passed, then an untimed check round that compiles the
// blocks again and checks each one. --trace 0 reports the end-to-end
// metrics; --trace 1 alternates untraced rounds with traced rounds and
// reports the per-layer metrics. The last line of stdout is one JSON
// object; everything else goes to stderr. README.md has the details.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "checks.hpp"
#include "sched/cp_scheduler.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sched/portfolio_scheduler.hpp"
#include "traced.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pipesched;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The self-test block: dependent multiplies force NOPs on every machine
// the workloads use, and the subtraction gives a non-commutative
// instruction to corrupt.
constexpr const char* kProbeSource =
    "x = a * b;\ny = x * c;\nz = a - b;\nw = (x + y) * z;\n";

// Blocks up to this many tuples are also solved by exhaustive_schedule.
constexpr std::size_t kExhaustiveMaxTuples = 8;

// Fixed deadline of the overshoot probe (traced large_bnb runs).
constexpr double kOvershootDeadline = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--out-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        usage("unknown workload '" + value + "'");
      }
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed '" + value + "'");
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        usage("bad --seconds '" + value + "'");
      }
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace '" + value + "'");
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::uint64_t hash_of(const std::string& s) {
  return std::hash<std::string>{}(s);
}

std::uint64_t line_count(const std::string& s) {
  return static_cast<std::uint64_t>(std::count(s.begin(), s.end(), '\n'));
}

/// Result cache files of one run: a fresh, empty file per round, all
/// removed when the run ends.
class CacheFiles {
 public:
  CacheFiles(const std::string& dir, const std::string& workload)
      : prefix_(dir + "/" + workload + "-" + std::to_string(::getpid()) +
                "-") {}
  ~CacheFiles() {
    for (const std::string& path : paths_) std::filesystem::remove(path);
  }
  CacheFiles(const CacheFiles&) = delete;
  CacheFiles& operator=(const CacheFiles&) = delete;

  /// Path of a new empty cache file, created now.
  std::string next() {
    std::string path = prefix_ + std::to_string(paths_.size()) + ".pscache";
    std::filesystem::remove(path);
    paths_.push_back(path);
    ResultCache::open_shared(path);
    return path;
  }

 private:
  std::string prefix_;
  std::vector<std::string> paths_;
};

/// One pass over the workload's sequence.
struct Round {
  std::vector<double> latencies;       ///< seconds per position (NaN = failed)
  std::vector<std::uint64_t> hashes;   ///< assembly hash (0 = failed)
  std::vector<std::string> assembly;   ///< kept only when asked for
  std::size_t cache_hits = 0;
  std::size_t failed = 0;
  double seconds = 0;                  ///< sum of the timed calls
};

Round timed_round(const Workload& w, const CompileOptions& options,
                  bool keep_assembly) {
  Round r;
  for (int index : w.sequence) {
    const std::string& source =
        w.inputs[static_cast<std::size_t>(index)].source;
    try {
      const Clock::time_point start = Clock::now();
      const Output out = compile(w, options, source);
      const double seconds = since(start);
      r.latencies.push_back(seconds);
      r.seconds += seconds;
      r.hashes.push_back(hash_of(out.assembly));
      r.cache_hits += out.stats.result_cache_hit ? 1 : 0;
      if (keep_assembly) r.assembly.push_back(out.assembly);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: compile failed: " << e.what() << "\n";
      ++r.failed;
      r.latencies.push_back(std::nan(""));
      r.hashes.push_back(0);
      if (keep_assembly) r.assembly.emplace_back();
    }
  }
  return r;
}

/// Quantile by linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

class Errors {
 public:
  void add(const std::string& where, const std::string& error) {
    if (error.empty()) return;
    if (count_++ < 20) {
      std::cerr << "perfbench: CHECK FAILED " << where << ": " << error
                << "\n";
    }
  }
  std::size_t count() const { return count_; }

 private:
  std::size_t count_ = 0;
};

/// The untimed check round: the check sequence compiled again, against a
/// fresh cache where the workload has one, and checked block by block.
/// Returns the issue cycles of the code it compiled.
std::uint64_t check_round(const Workload& w, const CompileOptions& options,
                          const Round& timed, std::uint64_t seed,
                          Errors& errors) {
  const Machine& machine = options.machine;
  std::map<int, std::uint64_t> timed_hash;  // input -> assembly hash
  for (std::size_t pos = 0; pos < w.sequence.size(); ++pos) {
    timed_hash[w.sequence[pos]] = timed.hashes[pos];
  }
  std::uint64_t code_cycles = 0;
  std::vector<CacheEvent> events;
  std::set<int> seen;
  for (const int index : w.check_sequence) {
    const Input& input = w.inputs[static_cast<std::size_t>(index)];
    auto timed_it = timed_hash.find(index);
    if (timed_it != timed_hash.end() && timed_it->second == 0) {
      continue;  // failed in the timed round, and counted there
    }
    const std::string where =
        w.name + " block " + std::to_string(index) +
        (input.rung.empty() ? "" : " (" + input.rung + ")");
    Output out;
    try {
      out = compile(w, options, input.source);
    } catch (const std::exception& e) {
      errors.add(where, std::string("check-round compile failed: ") +
                            e.what());
      continue;
    }
    if (timed_it != timed_hash.end() &&
        hash_of(out.assembly) != timed_it->second) {
      errors.add(where, "assembly differs from the timed round's");
    }
    code_cycles += line_count(out.assembly);
    errors.add(where, check_simulator(machine, out));
    errors.add(where, check_assembly_shape(out));
    errors.add(where, check_semantics(input.source, seed, out));
    errors.add(where, check_allocation(out, options.registers));
    events.push_back({block_key(out.block), out.stats.result_cache_hit,
                      out.stats.completed && out.stats.feasible,
                      out.schedule.total_nops()});

    Reference ref;
    if (seen.insert(index).second) {
      // The optima, once per distinct block: the other exact backend on
      // the same block and configuration, and exhaustive_schedule on
      // blocks small enough to enumerate. B&B on the top ladder rung is
      // what large_bnb measures (5 s), so large_cp skips that one.
      const DepGraph dag(out.block);
      SearchConfig search = search_config(w, options);
      search.result_cache_path.clear();
      const bool top_rung = input.rung == ladder_rungs().back();
      if (search.backend == OptimalBackend::Bnb) {
        const SearchStats cp = cp_schedule(machine, dag, search).stats;
        ref = {true, cp.completed && cp.feasible, cp.best_nops};
      } else if (!top_rung) {
        const SearchStats bnb = optimal_schedule(machine, dag, search).stats;
        ref = {true, bnb.completed && bnb.feasible, bnb.best_nops};
      }
      if (out.block.size() <= kExhaustiveMaxTuples && w.register_limit == 0) {
        ref.have_exhaustive = true;
        ref.exhaustive_nops =
            exhaustive_schedule(machine, dag).best.total_nops();
      }
    }
    errors.add(where, check_bounds(out, ref));
  }

  std::size_t expected_hits = 0;
  if (w.result_cache) {
    errors.add(w.name + " result cache", check_cache(events, &expected_hits));
  }
  if (timed.cache_hits != expected_hits) {
    errors.add(w.name + " result cache",
               "timed round hit " + std::to_string(timed.cache_hits) +
                   " times, expected " + std::to_string(expected_hits));
  }
  return code_cycles;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool integer;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream oss;
  oss << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    if (m.integer) {
      std::snprintf(value, sizeof value, "%.0f", m.value);
    } else {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    }
    oss << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  oss << "}}";
  std::cout << oss.str() << std::endl;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer metrics of a traced run, per round.
std::vector<Metric> layer_metrics(const LayerSeconds& seconds,
                                  const LayerCounts& c, double rounds,
                                  double untraced_s, double overshoot_s,
                                  double portfolio_excess_s) {
  const auto total = [&](Layer layer) {
    return seconds[static_cast<std::size_t>(layer)];
  };
  const auto s = [&](Layer layer) { return total(layer) / rounds; };
  const auto n = [&](std::uint64_t count) {
    return static_cast<double>(count) / rounds;
  };
  std::vector<Metric> m = {
      {"frontend.parse_s", s(Layer::Frontend), "s", false},
      {"opt.optimize_s", s(Layer::Opt), "s", false},
      {"opt.tuples_out", n(c.tuples_out), "tuples", true},
      {"spill.s", s(Layer::Spill), "s", false},
      {"spill.values", n(c.spill_values), "values", true},
      {"dag.build_s", s(Layer::Dag), "s", false},
      {"dag.edges", n(c.dag_edges), "edges", true},
      {"list.seed_s", s(Layer::ListSeed), "s", false},
      {"list.seed_nops", n(c.list_seed_nops), "nops", true},
      {"bnb.search_s", s(Layer::Bnb), "s", false},
      {"bnb.nodes", n(c.bnb_nodes), "nodes", true},
      {"bnb.omega_calls", n(c.bnb_omega_calls), "calls", true},
      {"bnb.ns_per_node", ratio(total(Layer::Bnb) * 1e9,
                                static_cast<double>(c.bnb_nodes)), "ns", false},
      {"bnb.pruned_readiness", n(c.bnb_pruned_readiness), "count", true},
      {"bnb.dominance_probes", n(c.bnb_dominance_probes), "probes", true},
      {"bnb.dominance_hit_ratio",
       ratio(static_cast<double>(c.bnb_dominance_hits),
             static_cast<double>(c.bnb_dominance_probes)), "ratio", false},
      {"bnb.curtailed_blocks", n(c.bnb_curtailed), "blocks", true},
      {"bnb.deadline_overshoot_s", overshoot_s, "s", false},
      {"cp.search_s", s(Layer::Cp), "s", false},
      {"cp.nodes", n(c.cp_nodes), "nodes", true},
      {"cp.ns_per_node", ratio(total(Layer::Cp) * 1e9,
                               static_cast<double>(c.cp_nodes)), "ns", false},
      {"portfolio.excess_s", portfolio_excess_s, "s", false},
      {"regalloc.s", s(Layer::Regalloc), "s", false},
      {"regalloc.registers_used", static_cast<double>(c.registers_used),
       "registers", true},
      {"emit.s", s(Layer::Emit), "s", false},
      {"emit.bytes", n(c.emit_bytes), "bytes", true},
      {"cache.canonical_s", s(Layer::CacheCanonical), "s", false},
      {"cache.lookup_s", s(Layer::CacheLookup), "s", false},
      {"cache.store_s", s(Layer::CacheStore), "s", false},
      {"cache.hits", n(c.cache_hits), "count", true},
      {"cache.misses", n(c.cache_misses), "count", true},
      {"core.compile_s", s(Layer::Core), "s", false},
      {"trace.overhead_s", s(Layer::Core) - untraced_s / rounds, "s", false},
  };
  for (const std::string& rung : ladder_rungs()) {
    auto it = c.rungs.find(rung);
    const LayerCounts::Rung r =
        it == c.rungs.end() ? LayerCounts::Rung{} : it->second;
    m.push_back({"bnb.ns_per_node." + rung,
                 ratio(r.bnb_s * 1e9, static_cast<double>(r.bnb_nodes)), "ns",
                 false});
    m.push_back({"cp.search_s." + rung, r.cp_s / rounds, "s", false});
    m.push_back({"cp.ns_per_node." + rung,
                 ratio(r.cp_s * 1e9, static_cast<double>(r.cp_nodes)), "ns",
                 false});
  }
  return m;
}

/// Traced large_bnb: one B&B call on the top rung under a fixed deadline
/// and no λ; returns wall time minus the deadline.
double deadline_overshoot(const Workload& w, Tracer& t, Errors& errors) {
  const BasicBlock block = prepare_block(w, w.inputs.back().source);
  const DepGraph dag(block);
  SearchConfig search = search_config(w, w.options);
  search.curtail_lambda = 0;
  search.deadline_seconds = kOvershootDeadline;
  const OptimalResult r = t.run(Layer::Bnb, 0, [&] {
    return optimal_schedule(w.options.machine, dag, search);
  });
  if (r.stats.curtail_reason != CurtailReason::Deadline && !r.stats.completed) {
    errors.add("deadline probe", "the search stopped before its deadline");
  }
  return t.last_seconds() - kOvershootDeadline;
}

/// Traced large_cp: the portfolio's wall time minus CP alone, summed over
/// every rung once. Both must agree where both complete.
double portfolio_excess(const Workload& w, Tracer& t, Errors& errors) {
  double cp_s = 0;
  double portfolio_s = 0;
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    const BasicBlock block = prepare_block(w, w.inputs[i].source);
    const DepGraph dag(block);
    const SearchConfig search = search_config(w, w.options);
    const auto id = static_cast<std::uint32_t>(i);
    const ScheduleResult cp = t.run(Layer::Cp, id, [&] {
      return cp_schedule(w.options.machine, dag, search);
    });
    cp_s += t.last_seconds();
    const ScheduleResult port = t.run(Layer::Portfolio, id, [&] {
      return portfolio_schedule(w.options.machine, dag, search);
    });
    portfolio_s += t.last_seconds();
    if (cp.stats.completed && port.stats.completed &&
        cp.stats.best_nops != port.stats.best_nops) {
      errors.add("portfolio " + w.inputs[i].rung, "disagrees with CP");
    }
  }
  return portfolio_s - cp_s;
}

int run(const Args& args, Clock::time_point process_start) {
  const Workload w = make_workload(args.workload, args.seed);
  std::filesystem::create_directories(args.out_dir);
  CacheFiles caches(args.out_dir, w.name);
  const auto round_options = [&] {
    return options_with_cache(w, w.result_cache ? caches.next() : "");
  };

  const CompileOptions warm = round_options();
  for (int index : w.warmup) {
    compile(w, warm, w.inputs[static_cast<std::size_t>(index)].source);
  }
  CompileOptions options = round_options();
  const double setup_s = since(process_start);

  Errors errors;
  Round first;
  std::vector<std::vector<double>> latencies;  // per position, per round
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t rounds = 0;
  double rss_mb = 0;
  double untraced_s = 0;
  Tracer tracer;
  LayerCounts counts;
  const Clock::time_point loop_start = Clock::now();
  do {
    if (rounds > 0) options = round_options();
    Round r = timed_round(w, options, args.trace && rounds == 0);
    std::cerr << "perfbench: round " << rounds << ": "
              << w.sequence.size() - r.failed << " blocks in " << r.seconds
              << " s of compile calls\n";
    attempted += w.sequence.size();
    failed += r.failed;
    untraced_s += r.seconds;
    latencies.resize(r.latencies.size());
    for (std::size_t pos = 0; pos < r.latencies.size(); ++pos) {
      if (!std::isnan(r.latencies[pos])) {
        latencies[pos].push_back(r.latencies[pos]);
      }
    }
    if (rounds == 0) {
      // After one round, before later rounds leave their result caches
      // in the process-wide registry (the same on every round).
      rss_mb = peak_rss_mb();
      first = std::move(r);
    } else if (r.hashes != first.hashes || r.cache_hits != first.cache_hits) {
      errors.add(w.name, "round " + std::to_string(rounds) +
                             " compiled differently from round 0");
    }
    if (args.trace) {
      const CompileOptions traced_options = round_options();
      for (std::size_t pos = 0; pos < w.sequence.size(); ++pos) {
        const int index = w.sequence[pos];
        ++attempted;
        try {
          const Output out = traced_compile(
              w, traced_options, w.inputs[static_cast<std::size_t>(index)],
              static_cast<std::uint32_t>(pos), tracer, counts);
          if (out.assembly != first.assembly[pos]) {
            errors.add(w.name + " block " + std::to_string(index),
                       "traced assembly differs from the untraced compile's");
          }
        } catch (const std::exception& e) {
          std::cerr << "perfbench: traced compile failed: " << e.what() << "\n";
          ++failed;
        }
      }
    }
    ++rounds;
  } while (since(loop_start) < args.seconds);

  // The traced rounds' layer totals, before the extra calls below.
  const LayerSeconds layer_s = tracer.seconds();
  double overshoot_s = 0;
  double portfolio_excess_s = 0;
  if (args.trace && w.name == "large_bnb") {
    overshoot_s = deadline_overshoot(w, tracer, errors);
  }
  if (args.trace && w.name == "large_cp") {
    portfolio_excess_s = portfolio_excess(w, tracer, errors);
  }

  const std::uint64_t code_cycles =
      check_round(w, round_options(), first, args.seed, errors);
  const CompileOptions probe_options = options_with_cache(w, "");
  const Output probe = compile(w, probe_options, kProbeSource);
  for (const std::string& miss : self_test(w.options.machine, kProbeSource,
                                           args.seed, probe,
                                           probe_options.registers)) {
    errors.add("self-test", miss);
  }

  // Each block's latency is its fastest over the rounds. Load from other
  // tenants of the host only ever adds time, in bursts of seconds, so the
  // minimum of identical compiles spread over the run is the steadiest
  // estimate of what the compile itself costs.
  std::vector<double> block_s;
  for (const std::vector<double>& samples : latencies) {
    if (!samples.empty()) {
      block_s.push_back(*std::min_element(samples.begin(), samples.end()));
    }
  }
  const bool correct = errors.count() == 0;
  std::cerr << "perfbench: " << w.name << " seed " << args.seed << ": "
            << rounds << " rounds, " << attempted << " compiles, " << failed
            << " failed, " << errors.count() << " check failures; "
            << block_s.size() << " per-block latency samples; peak RSS "
            << rss_mb << " MB after round 0, " << peak_rss_mb()
            << " MB at the end\n";
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + w.name + ".json";
    tracer.write_json(path);
    std::cerr << "perfbench: spans written to " << path << "\n";
    print_result(correct, attempted, failed,
                 layer_metrics(layer_s, counts, static_cast<double>(rounds),
                               untraced_s, overshoot_s, portfolio_excess_s));
    return 0;
  }
  PS_CHECK(!block_s.empty(), "no compile succeeded");
  double total_s = 0;
  for (double v : block_s) total_s += v;
  print_result(correct, attempted, failed,
               {{"setup_s", setup_s, "s", false},
                {"blocks_per_s",
                 static_cast<double>(block_s.size()) / total_s, "blocks/s",
                 false},
                {"block_p50_ms", quantile(block_s, 0.50) * 1e3, "ms", false},
                {"block_p99_ms", quantile(block_s, 0.99) * 1e3, "ms", false},
                {"peak_rss_mb", rss_mb, "MB", false},
                {"code_cycles", static_cast<double>(code_cycles),
                 "cycles", true}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args, process_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
