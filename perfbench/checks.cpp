#include "checks.hpp"

#include <cctype>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "ir/dag.hpp"
#include "ir/interp.hpp"
#include "regalloc/regalloc.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace perfbench {

using namespace pipesched;

namespace {

/// Variable name -> value.
using Values = std::map<std::string, std::int64_t>;

std::int64_t initial_value(std::uint64_t seed, const std::string& var);

// Two's-complement arithmetic of the source language, written out here
// rather than borrowed from ir/interp so the reference stays independent.
std::int64_t wrap(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::int64_t add(std::int64_t a, std::int64_t b) {
  return wrap(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}
std::int64_t sub(std::int64_t a, std::int64_t b) {
  return wrap(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}
std::int64_t mul(std::int64_t a, std::int64_t b) {
  return wrap(static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b));
}
std::int64_t div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return a;
  return a / b;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Recursive-descent evaluator over the statement grammar
///   stmt := name '=' expr ';'
///   expr := term (('+' | '-') term)*
///   term := unary (('*' | '/') unary)*
///   unary := '-' unary | number | name | '(' expr ')'
class SourceEvaluator {
 public:
  SourceEvaluator(const std::string& text, std::uint64_t seed)
      : text_(text), seed_(seed) {}

  Values run() {
    for (skip(); pos_ < text_.size(); skip()) {
      const std::string target = name();
      expect('=');
      const std::int64_t value = expr();
      expect(';');
      values_[target] = value;
    }
    return values_;
  }

 private:
  void skip() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool accept(char c) {
    skip();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!accept(c)) {
      throw Error(std::string("reference evaluator: expected '") + c +
                  "' at offset " + std::to_string(pos_));
    }
  }
  std::string name() {
    skip();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (start == pos_ ||
        std::isdigit(static_cast<unsigned char>(text_[start]))) {
      throw Error("reference evaluator: expected a name at offset " +
                  std::to_string(start));
    }
    return text_.substr(start, pos_ - start);
  }
  std::int64_t variable(const std::string& var) {
    auto it = values_.find(var);
    if (it != values_.end()) return it->second;
    return values_[var] = initial_value(seed_, var);
  }
  std::int64_t expr() {
    std::int64_t v = term();
    for (;;) {
      if (accept('+')) {
        v = add(v, term());
      } else if (accept('-')) {
        v = sub(v, term());
      } else {
        return v;
      }
    }
  }
  std::int64_t term() {
    std::int64_t v = unary();
    for (;;) {
      if (accept('*')) {
        v = mul(v, unary());
      } else if (accept('/')) {
        v = div(v, unary());
      } else {
        return v;
      }
    }
  }
  std::int64_t unary() {
    if (accept('-')) return sub(0, unary());
    if (accept('(')) {
      const std::int64_t v = expr();
      expect(')');
      return v;
    }
    skip();
    if (pos_ < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      std::uint64_t v = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        v = v * 10 + static_cast<std::uint64_t>(text_[pos_++] - '0');
      }
      return wrap(v);
    }
    return variable(name());
  }

  const std::string& text_;
  std::uint64_t seed_;
  std::size_t pos_ = 0;
  Values values_;
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    line = trim(line.substr(0, line.find(';')));  // drop "; cycle ..." notes
    if (!line.empty() && line.back() != ':') lines.push_back(line);
  }
  return lines;
}

std::int64_t value_at(const Values& values, std::uint64_t seed,
                      const std::string& var) {
  auto it = values.find(var);
  return it == values.end() ? initial_value(seed, var) : it->second;
}

std::string compare_values(const char* what, const Values& expected,
                           const Values& actual, std::uint64_t seed) {
  for (const auto& [var, value] : expected) {
    const std::int64_t got = value_at(actual, seed, var);
    if (got != value) {
      std::ostringstream oss;
      oss << what << ": " << var << " = " << got << ", reference says "
          << value;
      return oss.str();
    }
  }
  return "";
}

/// Value every variable holds on block entry, drawn from `seed`.
std::int64_t initial_value(std::uint64_t seed, const std::string& var) {
  std::uint64_t state = seed ^ fnv1a(var);
  // Wide enough that two variables practically never start equal, narrow
  // enough that sums and products stay readable in a failure message.
  return static_cast<std::int64_t>(splitmix64(state) % 2000001) - 1000000;
}

/// Runs emitted assembly on a register machine; returns memory at the end.
Values run_assembly(const std::string& assembly, std::uint64_t seed) {
  Values memory;
  std::unordered_map<std::string, std::int64_t> regs;
  auto read = [&](const std::string& operand) -> std::int64_t {
    if (operand.empty()) throw Error("assembly: missing operand");
    if (operand[0] == '#') return std::stoll(operand.substr(1));
    if (operand[0] == 'r' && operand.size() > 1 &&
        std::isdigit(static_cast<unsigned char>(operand[1]))) {
      auto it = regs.find(operand);
      if (it == regs.end()) throw Error("assembly: " + operand + " read unset");
      return it->second;
    }
    return value_at(memory, seed, operand);
  };
  for (const std::string& line : lines_of(assembly)) {
    std::istringstream in(line);
    std::string op;
    in >> op;
    if (op == "nop") continue;
    std::vector<std::string> args;
    for (std::string arg; std::getline(in, arg, ',');) {
      args.push_back(trim(arg));
    }
    const auto need = [&](std::size_t n) {
      if (args.size() != n) {
        throw Error("assembly: bad operands in '" + line + "'");
      }
    };
    if (op == "st") {
      need(2);
      memory[args[1]] = read(args[0]);
      continue;
    }
    std::int64_t v = 0;
    if (op == "li" || op == "ld" || op == "mov") {
      need(2);
      v = read(args[1]);
    } else if (op == "neg") {
      need(2);
      v = sub(0, read(args[1]));
    } else if (op == "add" || op == "sub" || op == "mul" || op == "div") {
      need(3);
      const std::int64_t a = read(args[1]);
      const std::int64_t b = read(args[2]);
      v = op == "add" ? add(a, b) : op == "sub" ? sub(a, b)
          : op == "mul" ? mul(a, b) : div(a, b);
    } else {
      throw Error("assembly: unknown instruction '" + line + "'");
    }
    regs[args[0]] = v;
  }
  return memory;
}

}  // namespace

std::string check_simulator(const Machine& machine, const Output& out) {
  try {
    const DepGraph dag(out.block);
    const SimResult padded = validate_padded(machine, dag, out.schedule);
    if (!padded.ok) return "validate_padded: " + padded.error;
    const SimResult interlocked =
        simulate_interlocked(machine, dag, out.schedule.order);
    if (interlocked.total_delay != out.stats.best_nops) {
      return "simulate_interlocked stalls " +
             std::to_string(interlocked.total_delay) + " cycles, reported " +
             std::to_string(out.stats.best_nops) + " NOPs";
    }
  } catch (const std::exception& e) {
    return std::string("simulator: ") + e.what();
  }
  return "";
}

std::string check_assembly_shape(const Output& out) {
  std::size_t nops = 0;
  std::size_t instructions = 0;
  for (const std::string& line : lines_of(out.assembly)) {
    ++(line == "nop" ? nops : instructions);
  }
  if (instructions != out.block.size()) {
    return "assembly has " + std::to_string(instructions) +
           " instructions for " + std::to_string(out.block.size()) + " tuples";
  }
  if (static_cast<int>(nops) != out.stats.best_nops) {
    return "assembly has " + std::to_string(nops) + " nops, reported " +
           std::to_string(out.stats.best_nops);
  }
  return "";
}

std::string check_semantics(const std::string& source, std::uint64_t seed,
                            const Output& out) {
  try {
    const Values expected = SourceEvaluator(source, seed).run();
    VarEnv initial;
    for (std::size_t v = 0; v < out.block.var_count(); ++v) {
      const auto id = static_cast<VarId>(v);
      initial[id] = initial_value(seed, out.block.var_name(id));
    }
    const ExecResult run =
        interpret_in_order(out.block, initial, out.schedule.order);
    Values interpreted;
    for (const auto& [id, value] : run.final_vars) {
      interpreted[out.block.var_name(id)] = value;
    }
    std::string error =
        compare_values("interpret_in_order", expected, interpreted, seed);
    if (error.empty()) {
      error = compare_values("assembly", expected,
                             run_assembly(out.assembly, seed), seed);
    }
    return error;
  } catch (const std::exception& e) {
    return std::string("semantics: ") + e.what();
  }
}

std::string check_allocation(const Output& out, int registers) {
  try {
    if (!verify_allocation(out.block, out.schedule.order, out.allocation)) {
      return "verify_allocation: overlapping live ranges share a register";
    }
  } catch (const std::exception& e) {
    return std::string("verify_allocation: ") + e.what();
  }
  if (out.allocation.registers_used > registers) {
    return "uses " + std::to_string(out.allocation.registers_used) +
           " registers, limit " + std::to_string(registers);
  }
  return "";
}

std::string check_bounds(const Output& out, const Reference& ref) {
  const int nops = out.schedule.total_nops();
  const bool completed = out.stats.completed;
  if (nops > out.stats.initial_nops) {
    return std::to_string(nops) + " NOPs, more than the list seed's " +
           std::to_string(out.stats.initial_nops);
  }
  if (ref.have_other && ref.other_completed) {
    if (completed && nops != ref.other_nops) {
      return "optimum " + std::to_string(nops) +
             " NOPs, the other backend proves " +
             std::to_string(ref.other_nops);
    }
    if (nops < ref.other_nops) {
      return "curtailed result of " + std::to_string(nops) +
             " NOPs beats the proven optimum " + std::to_string(ref.other_nops);
    }
  }
  if (ref.have_other && !ref.other_completed && completed &&
      nops > ref.other_nops) {
    return "proven optimum " + std::to_string(nops) +
           " NOPs, but the other backend found " +
           std::to_string(ref.other_nops);
  }
  if (ref.have_exhaustive &&
      (nops < ref.exhaustive_nops ||
       (completed && nops != ref.exhaustive_nops))) {
    return std::to_string(nops) + " NOPs, exhaustive_schedule finds " +
           std::to_string(ref.exhaustive_nops);
  }
  return "";
}

std::string block_key(const BasicBlock& block) {
  std::ostringstream oss;
  for (const Tuple& t : block.tuples()) {
    oss << static_cast<int>(t.op);
    for (const Operand* o : {&t.a, &t.b}) {
      oss << ' ' << static_cast<int>(o->kind) << ':' << o->ref << ':'
          << o->var << ':' << o->imm;
    }
    oss << ';';
  }
  return oss.str();
}

std::string check_cache(const std::vector<CacheEvent>& round,
                        std::size_t* expected_hits) {
  std::unordered_map<std::string, int> proven;  // key -> first proven NOPs
  *expected_hits = 0;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const CacheEvent& e = round[i];
    auto it = proven.find(e.key);
    const bool repeat = it != proven.end();
    *expected_hits += repeat ? 1 : 0;
    if (e.hit != repeat) {
      return "compile " + std::to_string(i) + (e.hit ? " hit" : " missed") +
             " the result cache; a " + (repeat ? "" : "non-") +
             "repeat of a proven block";
    }
    if (e.hit && e.nops != it->second) {
      return "cache hit " + std::to_string(i) + " reports " +
             std::to_string(e.nops) + " NOPs, the first search found " +
             std::to_string(it->second);
    }
    if (!repeat && e.proven) proven.emplace(e.key, e.nops);
  }
  return "";
}

std::vector<std::string> self_test(const Machine& machine,
                                   const std::string& source,
                                   std::uint64_t seed, const Output& probe,
                                   int registers) {
  std::vector<std::string> missed;
  const auto expect_fail = [&](const char* what, const std::string& error) {
    if (error.empty()) missed.push_back(std::string(what) + " went unnoticed");
  };
  const std::string good = check_simulator(machine, probe) +
                           check_assembly_shape(probe) +
                           check_semantics(source, seed, probe) +
                           check_allocation(probe, registers) +
                           check_bounds(probe, {});
  if (!good.empty()) return {"self-test probe fails: " + good};
  const int nops = probe.schedule.total_nops();
  if (nops == 0) return {"self-test probe has no NOP to corrupt"};

  {  // A NOP dropped from the schedule alone: the reported count and the
     // bare order still agree, so only the padded simulation sees it.
    Output bad = probe;
    for (int& n : bad.schedule.nops) {
      if (n > 0) {
        --n;
        break;
      }
    }
    expect_fail("dropped NOP (simulator)", check_simulator(machine, bad));
  }
  {  // A dependent pair swapped in the emitted order.
    Output bad = probe;
    const DepGraph dag(bad.block);
    std::vector<TupleIndex>& order = bad.schedule.order;
    for (std::size_t j = 0; j < order.size(); ++j) {
      if (dag.preds(order[j]).empty()) continue;
      const TupleIndex producer = dag.preds(order[j]).front();
      for (std::size_t i = 0; i < j; ++i) {
        if (order[i] == producer) std::swap(order[i], order[j]);
      }
      break;
    }
    expect_fail("swapped dependent pair (simulator)",
                check_simulator(machine, bad));
    expect_fail("swapped dependent pair (semantics)",
                check_semantics(source, seed, bad));
  }
  {  // One NOP more reported than scheduled.
    Output bad = probe;
    ++bad.stats.best_nops;
    expect_fail("misreported NOPs (simulator)", check_simulator(machine, bad));
    expect_fail("misreported NOPs (assembly shape)", check_assembly_shape(bad));
  }
  {  // A nop line missing from the assembly.
    Output bad = probe;
    const std::size_t at = bad.assembly.find("nop\n");
    if (at != std::string::npos) {
      const std::size_t start = bad.assembly.rfind('\n', at);
      bad.assembly.erase(start == std::string::npos ? 0 : start + 1,
                         at + 4 - (start == std::string::npos ? 0 : start + 1));
    }
    expect_fail("dropped nop line (assembly shape)", check_assembly_shape(bad));
  }
  {  // The operands of a subtraction swapped in the tuple code only.
    Output bad = probe;
    for (std::size_t i = 0; i < bad.block.size(); ++i) {
      Tuple& t = bad.block.tuple_mut(static_cast<TupleIndex>(i));
      if (t.op == Opcode::Sub) {
        std::swap(t.a, t.b);
        break;
      }
    }
    expect_fail("swapped sub operands in the tuples (semantics)",
                check_semantics(source, seed, bad));
  }
  {  // The operands of a subtraction swapped in the assembly text.
    Output bad = probe;
    std::istringstream in(probe.assembly);
    std::ostringstream outs;
    bool done = false;
    for (std::string line; std::getline(in, line);) {
      const std::string t = trim(line);
      if (!done && t.rfind("sub", 0) == 0) {
        const std::size_t c1 = line.find(',');
        const std::size_t c2 = line.find(',', c1 + 1);
        line = line.substr(0, c1) + ", " + trim(line.substr(c2 + 1)) + ", " +
               trim(line.substr(c1 + 1, c2 - c1 - 1));
        done = true;
      }
      outs << line << "\n";
    }
    bad.assembly = outs.str();
    expect_fail("swapped sub operands (semantics)",
                check_semantics(source, seed, bad));
  }
  {  // Two overlapping live ranges given one register.
    Output bad = probe;
    const std::vector<LiveRange> ranges =
        compute_live_ranges(bad.block, bad.schedule.order);
    bool done = false;
    for (std::size_t a = 0; a < ranges.size() && !done; ++a) {
      for (std::size_t b = 0; b < ranges.size() && !done; ++b) {
        if (ranges[a].def_pos < ranges[b].def_pos &&
            ranges[b].def_pos < ranges[a].last_use_pos) {
          auto& reg = bad.allocation.reg_of;
          reg[static_cast<std::size_t>(ranges[b].tuple)] =
              reg[static_cast<std::size_t>(ranges[a].tuple)];
          done = true;
        }
      }
    }
    expect_fail("register clash (allocation)",
                check_allocation(bad, registers));
  }
  {
    Output bad = probe;
    bad.allocation.registers_used = registers + 1;
    expect_fail("register limit exceeded (allocation)",
                check_allocation(bad, registers));
  }
  {
    Output bad = probe;
    bad.stats.initial_nops = nops - 1;
    expect_fail("NOPs above the list seed (bounds)", check_bounds(bad, {}));
  }
  {
    Reference ref;
    ref.have_other = ref.other_completed = true;
    ref.other_nops = nops - 1;
    expect_fail("completed result off the proven optimum (bounds)",
                check_bounds(probe, ref));
    Output bad = probe;
    bad.stats.completed = false;
    ref.other_nops = nops + 1;
    expect_fail("curtailed result below the proven optimum (bounds)",
                check_bounds(bad, ref));
  }
  {
    Reference ref;
    ref.have_exhaustive = true;
    ref.exhaustive_nops = nops - 1;
    expect_fail("result off the exhaustive optimum (bounds)",
                check_bounds(probe, ref));
  }
  {
    // {key, hit, proven, nops} per compile.
    std::size_t hits = 0;
    const CacheEvent miss{"k", false, true, 3};
    expect_fail("cache hit with other NOPs (cache)",
                check_cache({miss, {"k", true, true, 4}}, &hits));
    expect_fail("proven repeat missed (cache)",
                check_cache({miss, miss}, &hits));
    expect_fail("hit on an unproven block (cache)",
                check_cache({{"k", false, false, 3}, {"k", true, true, 3}},
                            &hits));
  }
  return missed;
}

}  // namespace perfbench
