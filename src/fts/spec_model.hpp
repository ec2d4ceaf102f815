// A symbolic, serializable description of a fair transition system: interval
// variable domains, guards that are conjunctions of variable/constant
// comparisons, and modular-wrapped addition effects. `build()` lowers a spec
// into an executable `fts::Fts`; unlike the lowered form (opaque
// std::function guards/effects) the spec itself stays inspectable, which is
// what the interval abstract interpreter in src/analysis/absint.* consumes.
//
// Historically this type lived in src/fuzz/fuzz_case.hpp as the fuzzer's
// miniature system generator; it moved down here so static analyses can see
// it without depending on the fuzzing layer. `mph::fuzz::FtsSpec` remains a
// namespace alias for source compatibility.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/fts/fts.hpp"

namespace mph::fts {

/// A serializable miniature fair transition system. Guards are conjunctions
/// of variable/constant comparisons; effects are modular-wrapped additions,
/// so every generated transition keeps values inside their domains.
struct FtsSpec {
  struct Var {
    std::string name;
    int lo = 0, hi = 0, init = 0;
  };
  /// guard conjunct: value(var) op rhs, with op ∈ {0: ≤, 1: ≥, 2: =}.
  struct Cmp {
    std::size_t var = 0;
    int op = 0;
    int rhs = 0;
  };
  /// effect: var := lo + ((value(src) + add − lo) mod domain-span).
  struct Eff {
    std::size_t var = 0;
    std::size_t src = 0;
    int add = 0;
  };
  struct Trans {
    std::string name;
    Fairness fairness = Fairness::None;
    std::vector<Cmp> guard;
    std::vector<Eff> effects;
  };

  std::vector<Var> vars;
  std::vector<Trans> transitions;

  Fts build() const;
  /// Atoms "<v>hi" / "<v>lo" (value at the domain's top / bottom) per var.
  AtomMap atoms() const;
};

/// The modular effect semantics: lo + ((value − lo) mod span), with the
/// remainder fixed up into [0, span) for negative arguments.
int wrap_into(int value, int lo, int hi);

/// Symbolic twin of the dining-philosophers scaling family: per philosopher
/// a 3-phase program counter (think → has-left → has-right, wrapping back to
/// think) and one fork flag per seat, plus an `alarm` latch whose only
/// setter requires the alarm to already be raised — concretely unreachable,
/// and provable so by interval analysis (the escalate transition is dead,
/// MPH-F010, and `G alarmlo` is statically provable). Requires n ≥ 2.
FtsSpec symbolic_dining(std::size_t n);

/// Symbolic twin of the token-ring family: one token circulates through n
/// single-bit slots; the same `alarm` latch rides along. Requires n ≥ 2.
FtsSpec symbolic_ring(std::size_t n);

/// Resolves the symbolic twins of the built-in families by the registry's
/// own names (programs::member_size): "dining-N" and "ring-N". Returns
/// nullopt for every other name, including models with no symbolic
/// description (e.g. peterson, whose disjunctive guards are not
/// FtsSpec-expressible) and family names the registry refuses.
std::optional<FtsSpec> find_symbolic_model(std::string_view name);

}  // namespace mph::fts
