#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "asmout/emitter.hpp"
#include "cache/result_cache.hpp"
#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "regalloc/regalloc.hpp"
#include "regalloc/spill.hpp"
#include "sched/cp_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "util/check.hpp"

namespace perfbench {

using namespace pipesched;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Core: return "core.compile";
    case Layer::Frontend: return "frontend";
    case Layer::Opt: return "frontend.opt";
    case Layer::Spill: return "regalloc.spill";
    case Layer::Dag: return "ir.dag";
    case Layer::Bnb: return "sched.bnb";
    case Layer::Cp: return "sched.cp";
    case Layer::Fallback: return "sched.fallback";
    case Layer::CacheCanonical: return "cache.canonical";
    case Layer::CacheLookup: return "cache.lookup";
    case Layer::CacheStore: return "cache.store";
    case Layer::Regalloc: return "regalloc.linear_scan";
    case Layer::Emit: return "asmout.emit";
    case Layer::ListSeed: return "sched.list_seed";
    case Layer::Portfolio: return "sched.portfolio";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t Tracer::open(Layer layer, std::uint32_t block) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({layer, block, open_.empty() ? -1 : open_.back(), 0, 0});
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::close(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  open_.pop_back();
  last_seconds_ = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  seconds_[static_cast<std::size_t>(span.layer)] += last_seconds_;
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PS_CHECK(f != nullptr, "cannot write " << path);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"block\":%u}}",
                 i == 0 ? "" : ",", layer_name(s.layer),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, s.block);
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  PS_CHECK(std::fclose(f) == 0 && ok, "cannot write " << path);
}

BasicBlock prepare_block(const Workload& workload, const std::string& source) {
  BasicBlock block =
      run_standard_pipeline(generate_tuples(parse_source(source)));
  if (workload.register_limit > 0 &&
      block_max_live(block) > workload.register_limit) {
    block = insert_spill_code(block, workload.register_limit).block;
  }
  return block;
}

SearchConfig search_config(const Workload& workload,
                           const CompileOptions& options) {
  SearchConfig search = options.search;
  if (workload.register_limit > 0) {
    search.max_live_registers = workload.register_limit;
  }
  return search;
}

Output traced_compile(const Workload& workload, const CompileOptions& options,
                      const Input& input, std::uint32_t id, Tracer& t,
                      LayerCounts& counts) {
  const Machine& machine = options.machine;
  const bool limited = workload.register_limit > 0;
  Output out;
  t.run(Layer::Core, id, [&] {
    BasicBlock tuples = t.run(Layer::Frontend, id, [&] {
      return generate_tuples(parse_source(input.source));
    });
    out.block = t.run(Layer::Opt, id, [&] {
      BasicBlock block = run_standard_pipeline(tuples);
      if (!limited) block.validate();  // compile_block validates; the
                                       // register-limited driver does not
      return block;
    });
    counts.tuples_out += out.block.size();
    if (limited) {
      t.run(Layer::Spill, id, [&] {
        if (block_max_live(out.block) > options.registers) {
          SpillResult spilled = insert_spill_code(out.block, options.registers);
          out.block = std::move(spilled.block);
          out.values_spilled = spilled.values_spilled;
        }
      });
      counts.spill_values += static_cast<std::uint64_t>(out.values_spilled);
    }
    const DepGraph dag =
        t.run(Layer::Dag, id, [&] { return DepGraph(out.block); });
    counts.dag_edges += dag.edges().size();

    // run_optimal_backend, one call at a time: verified cache lookup,
    // then the backend, then a store of a proven result.
    const SearchConfig search = search_config(workload, options);
    ScheduleResult r;
    std::shared_ptr<ResultCache> cache;
    std::string canonical;
    bool hit = false;
    if (!search.result_cache_path.empty()) {
      canonical = t.run(Layer::CacheCanonical, id, [&] {
        return ResultCache::canonical_form(machine, dag, search, {});
      });
      CachedSchedule cached;
      hit = t.run(Layer::CacheLookup, id, [&] {
        cache = ResultCache::open_shared(search.result_cache_path);
        return cache->lookup(canonical, &cached);
      });
      (hit ? counts.cache_hits : counts.cache_misses) += 1;
      if (hit) {
        r.schedule = std::move(cached.schedule);
        r.stats.initial_nops = cached.initial_nops;
        r.stats.best_nops = cached.best_nops;
        r.stats.result_cache_hit = true;
      }
    }
    if (!hit) {
      LayerCounts::Rung& rung = counts.rungs[input.rung];
      if (search.backend == OptimalBackend::Cp) {
        r = t.run(Layer::Cp, id,
                  [&] { return cp_schedule(machine, dag, search); });
        counts.cp_nodes += r.stats.nodes_expanded;
        rung.cp_s += t.last_seconds();
        rung.cp_nodes += r.stats.nodes_expanded;
      } else {
        PS_CHECK(search.backend == OptimalBackend::Bnb,
                 "the traced compile runs one backend at a time");
        r = t.run(Layer::Bnb, id, [&] {
          OptimalResult o = optimal_schedule(machine, dag, search);
          return ScheduleResult{std::move(o.best), o.stats};
        });
        counts.bnb_nodes += r.stats.nodes_expanded;
        counts.bnb_omega_calls += r.stats.omega_calls;
        counts.bnb_pruned_readiness += r.stats.pruned_readiness;
        counts.bnb_dominance_probes += r.stats.cache_probes;
        counts.bnb_dominance_hits += r.stats.cache_hits;
        counts.bnb_curtailed += r.stats.completed ? 0 : 1;
        rung.bnb_s += t.last_seconds();
        rung.bnb_nodes += r.stats.nodes_expanded;
      }
      if (cache && r.stats.completed && r.stats.feasible) {
        t.run(Layer::CacheStore, id, [&] {
          cache->store(canonical, {r.stats.initial_nops, r.stats.best_nops,
                                   r.schedule});
        });
      }
    }
    out.stats = r.stats;
    out.schedule = std::move(r.schedule);
    if (limited && !r.stats.feasible) {
      // compile_with_register_limit: the post-spill original order.
      out.schedule = t.run(Layer::Fallback, id, [&] {
        std::vector<TupleIndex> order(out.block.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
          order[i] = static_cast<TupleIndex>(i);
        }
        return evaluate_order(machine, dag, order);
      });
      out.stats.best_nops = out.schedule.total_nops();
    }
    out.allocation = t.run(Layer::Regalloc, id, [&] {
      return linear_scan(out.block, out.schedule.order, options.registers);
    });
    counts.registers_used =
        std::max(counts.registers_used, out.allocation.registers_used);
    out.assembly = t.run(Layer::Emit, id, [&] {
      return emit_assembly(out.block, machine, out.schedule, out.allocation,
                           options.emit);
    });
    counts.emit_bytes += out.assembly.size();
  });

  // The list-schedule seed is timed apart from the compile, which computes
  // it inside the backend, so core.compile stays comparable with compile().
  const DepGraph dag(out.block);
  const Schedule seed =
      t.run(Layer::ListSeed, id, [&] { return list_schedule(machine, dag); });
  counts.list_seed_nops += static_cast<std::uint64_t>(seed.total_nops());
  return out;
}

}  // namespace perfbench
