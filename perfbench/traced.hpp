// The traced compile: one block compiled one layer at a time, in the
// order core/compiler.cpp composes the layers, with a span kept in memory
// around every call into a module's public functions. Spans are written
// out (Chrome trace-event JSON) only when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

enum class Layer {
  Core,            ///< the compile driver around all layers below
  Frontend,        ///< parse_source + generate_tuples
  Opt,             ///< run_standard_pipeline
  Spill,           ///< block_max_live + insert_spill_code
  Dag,             ///< DepGraph constructor
  Bnb,             ///< optimal_schedule
  Cp,              ///< cp_schedule
  Fallback,        ///< evaluate_order on the original order
  CacheCanonical,  ///< ResultCache::canonical_form
  CacheLookup,     ///< ResultCache::open_shared + lookup
  CacheStore,      ///< ResultCache::store
  Regalloc,        ///< linear_scan
  Emit,            ///< emit_assembly
  ListSeed,        ///< list_schedule, outside the compile
  Portfolio,       ///< portfolio_schedule, outside the compile
  kCount,
};

const char* layer_name(Layer layer);

/// Seconds spent in each layer, indexed by Layer.
using LayerSeconds =
    std::array<double, static_cast<std::size_t>(Layer::kCount)>;

class Tracer {
 public:
  Tracer();

  /// Runs `f` inside a span of `layer` for block `block`; returns f().
  template <class F>
  auto run(Layer layer, std::uint32_t block, F&& f) {
    const std::int32_t id = open(layer, block);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close(id);
    } else {
      auto result = f();
      close(id);
      return result;
    }
  }

  /// Duration of the span closed last.
  double last_seconds() const { return last_seconds_; }
  /// Total seconds spent in each layer since construction.
  const LayerSeconds& seconds() const { return seconds_; }

  void write_json(const std::string& path) const;

 private:
  struct Span {
    Layer layer;
    std::uint32_t block;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t now_ns() const;
  std::int32_t open(Layer layer, std::uint32_t block);
  void close(std::int32_t id);

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  LayerSeconds seconds_{};
  double last_seconds_ = 0;
};

/// Counters the traced compiles accumulate.
struct LayerCounts {
  std::uint64_t tuples_out = 0;
  std::uint64_t spill_values = 0;
  std::uint64_t dag_edges = 0;
  std::uint64_t list_seed_nops = 0;
  std::uint64_t bnb_nodes = 0;
  std::uint64_t bnb_omega_calls = 0;
  std::uint64_t bnb_pruned_readiness = 0;
  std::uint64_t bnb_dominance_probes = 0;
  std::uint64_t bnb_dominance_hits = 0;
  std::uint64_t bnb_curtailed = 0;
  std::uint64_t cp_nodes = 0;
  int registers_used = 0;  ///< most registers any block used
  std::uint64_t emit_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Per ladder rung: search seconds and nodes of each backend.
  struct Rung {
    double bnb_s = 0;
    std::uint64_t bnb_nodes = 0;
    double cp_s = 0;
    std::uint64_t cp_nodes = 0;
  };
  std::map<std::string, Rung> rungs;
};

/// Compile `input` as compile() does, one layer at a time under `tracer`.
/// The assembly is byte-identical to compile()'s.
Output traced_compile(const Workload& workload,
                      const pipesched::CompileOptions& options,
                      const Input& input, std::uint32_t block_id,
                      Tracer& tracer, LayerCounts& counts);

/// The block the scheduler sees for `source`: front end, optimizer and,
/// under --registers, spill code.
pipesched::BasicBlock prepare_block(const Workload& workload,
                                    const std::string& source);

/// The search configuration compile() hands the backend.
pipesched::SearchConfig search_config(const Workload& workload,
                                      const pipesched::CompileOptions& options);

}  // namespace perfbench
