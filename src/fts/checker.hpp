// Automata-theoretic model checking of temporal specifications over fair
// transition systems: P ⊨ φ iff no fair computation of P satisfies ¬φ.
// The negated specification is compiled to a deterministic ω-automaton
// (hierarchy fragment), the fairness requirements become Streett-style
// acceptance on the product, and the question is a good-loop search.
//
// The engine is on-the-fly: the product of the state graph with the ¬spec
// automaton is interned lazily, atom labels are computed once per state-graph
// node, and one Tarjan/Couvreur SCC search merges acceptance marks as
// components form, so a violating lasso is reported before the full product
// exists. Fin atoms (strong fairness, Streett/Rabin ¬spec) left undecided
// when a component closes are settled by the good-loop search on that
// component alone. See docs/CHECKER.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/fts/fts.hpp"
#include "src/ltl/ast.hpp"

namespace mph::fts {

struct Counterexample {
  /// A fair computation violating the specification, as valuations.
  std::vector<Valuation> prefix;
  std::vector<Valuation> loop;  // repeated forever

  std::string to_string(const Fts& system) const;
};

/// How a check was decided. One product search decides every spec the
/// engines see; the first three name the acceptance shape it took, chosen
/// from the spec's class (ClassSource says where that class came from):
///   Scc           — the general shape: fairness marks ∧ ¬spec acceptance.
///   SafetyPrefix  — safety spec: ¬spec is open, so a run is accepting iff
///                   it reaches a residual-universal ¬spec state. The ¬spec
///                   acceptance is ⊥ and the search stops at the first such
///                   state: reachability, with no fairness marks. Sound
///                   because transition fairness is machine-closed (every
///                   finite run extends to a fair computation), and the
///                   witness is completed by a fairness-only search from
///                   the bad node.
///   GuaranteeDual — guarantee spec: ¬spec is closed, so a run is accepting
///                   iff it stays among the live ¬spec states. Dead states
///                   are never interned and the ¬spec acceptance is ⊤: the
///                   search is a fairness-only lasso hunt.
/// In every shape dead (residual-empty) ¬spec states are never interned and
/// reaching a residual-universal one stops the search with a violation.
/// A fourth source of verdicts sits above the search:
///   StaticProof   — the spec was discharged by `CheckOptions::static_prover`
///                   (interval abstract interpretation, src/analysis/absint.*)
///                   without exploring a single state; stats report 0 nodes
///                   and 0 product states. Only "holds" verdicts arrive this
///                   way — a prover that cannot certify the spec returns
///                   nothing and the check falls through to the search.
enum class CheckEngine : std::uint8_t { Scc, SafetyPrefix, GuaranteeDual, StaticProof };

std::string_view to_string(CheckEngine e);

/// Why the search took its acceptance shape:
///   None       — no class shape applies (or ¬spec is the NBA tableau):
///                the general shape on the spec as written
///   Syntactic  — ltl::syntactic_classification of the spec as written
///   Normalized — the spec's ΔΓ normal form (src/ltl/normalize.hpp) gave
///                the class, or the deterministic ¬spec automaton; this is
///                how specs *denoting* safety/guarantee but written
///                otherwise still get the class shapes
enum class ClassSource : std::uint8_t { None, Syntactic, Normalized };

std::string_view to_string(ClassSource s);

/// Engine telemetry for one check, surfaced by `mph-lint --check` and the
/// tab11 bench. In a `check_all` batch the exploration and labelling phases
/// are shared; their timings are reported identically on every result that
/// used them.
struct CheckStats {
  std::size_t state_graph_nodes = 0;  ///< system states explored
  std::size_t automaton_states = 0;   ///< states of the compiled ¬spec automaton
  std::size_t product_states = 0;     ///< distinct (node, automaton-state) pairs built
  std::size_t product_bound = 0;      ///< state_graph_nodes × automaton_states
  bool nba_fallback = false;          ///< ¬spec outside the hierarchy fragment
  CheckEngine engine = CheckEngine::Scc;  ///< acceptance shape (or static proof)
  ClassSource class_source = ClassSource::None;  ///< why that shape
  std::size_t normalize_steps = 0;  ///< rewrite steps spent by ΔΓ-normalization
  Outcome outcome = Outcome::Complete;  ///< how the check ended (docs/BUDGETS.md)
  double explore_seconds = 0.0;       ///< state-graph exploration
  double label_seconds = 0.0;         ///< atom labelling of the state graph
  double compile_seconds = 0.0;       ///< ¬spec compilation
  double search_seconds = 0.0;        ///< product construction + emptiness search
};

struct CheckResult {
  /// Verdict; authoritative only when `outcome` is Complete. A
  /// budget-exhausted check reports holds == false with no counterexample:
  /// the verdict is *unknown*, not "violated".
  bool holds = false;
  std::optional<Counterexample> counterexample;
  /// Product states actually built (== stats.product_states; kept as a
  /// top-level field for existing callers).
  std::size_t product_states = 0;
  /// How far the check got (== stats.outcome; mirrored like product_states).
  /// Anything other than Complete means the budget ran out and `holds` must
  /// not be trusted; MPH-V004 is emitted when diagnostics are attached.
  Outcome outcome = Outcome::Complete;
  CheckStats stats;
};

/// State cap applied to a check when its budget carries none: it bounds the
/// exploration, each ¬spec tableau and each product construction
/// individually (docs/BUDGETS.md).
inline constexpr std::size_t kDefaultStateCap = 200000;

struct CheckOptions {
  /// Resource budget governing the exploration, each ¬spec tableau, and each
  /// product construction (the state cap bounds each of those
  /// individually). A budget without a state cap of its own gets
  /// kDefaultStateCap.
  Budget budget;
  /// Rule-application cap for the ΔΓ-normalization the checker attempts
  /// when the spec as written shows neither the safety nor the guarantee
  /// class, or when neither ¬spec nor spec compiles deterministically: a
  /// completed normal form supplies the class, the deterministic ¬spec
  /// automaton, or both. 0 disables normalization in the checker.
  std::size_t normalize_steps = 512;
  /// Exploration-free proof hook, consulted per spec *before* the shared
  /// exploration.
  /// Returning a result means "this spec is proved to hold" — the checker
  /// stamps it `CheckEngine::StaticProof` / Outcome::Complete with zero
  /// exploration and, when every spec in the batch resolves statically,
  /// never builds the state graph at all. Returning nullopt falls through
  /// to the engines; the hook must be sound (never a guess) — see
  /// analysis::make_static_prover (docs/ABSINT.md).
  std::function<std::optional<CheckResult>(const ltl::Formula&)> static_prover;
  analysis::DiagnosticEngine* diagnostics = nullptr;
};

/// The budget a check runs under: options.budget, with kDefaultStateCap when
/// the budget itself carries no state cap.
Budget effective_budget(const CheckOptions& options);

/// Batch variant of `check`: consults `options.static_prover`, explores the
/// state graph once (only when some spec is left unproved), shares atom-label
/// caches between specs over the same vocabulary, and checks the specs in
/// order. results[i] corresponds to specs[i].
std::vector<CheckResult> check_all(const Fts& system, const std::vector<ltl::Formula>& specs,
                                   const AtomMap& atoms, const CheckOptions& options = {});

/// check_all over a graph the caller already explored, so one exploration
/// can serve model lint, several batches, vacuity and coverage. `explored`
/// must come from explore(system, …) under a state cap at least the
/// check's own (options.budget's, or kDefaultStateCap): the check reads it
/// through outcome_under_cap, so a larger graph gives exactly the result of
/// exploring under the check's cap — BudgetStates after that many system
/// states — and a smaller, capped one reports its own partial outcome.
/// Stats report `explored.seconds` as the exploration time. The static
/// prover still runs first, and the graph is never copied.
std::vector<CheckResult> check_all(const Fts& system, const ExploreResult& explored,
                                   const std::vector<ltl::Formula>& specs,
                                   const AtomMap& atoms, const CheckOptions& options = {});

/// Checks that every fair computation satisfies `spec`. The atoms of `spec`
/// must all be present in `atoms`, and at most 10 of them. ¬spec is made
/// deterministic from the first source that gives it: ¬spec compiled, spec
/// compiled and complemented, the ΔΓ normal form's negation compiled;
/// otherwise, for future-only formulas, a nondeterministic Büchi tableau is
/// used. Throws std::invalid_argument if no source applies, or if a spec
/// whose acceptance reads fairness needs more acceptance marks (one per weak
/// transition, two per strong transition, plus those of ¬spec) than the 64
/// a MarkSet holds. A safety spec reads none: past the limit its witness
/// loop follows first edges and need not be fair.
///
/// When `options.diagnostics` is set, the checker reports through it:
/// MPH-V001 (tableau fallback), MPH-V002 (product size), MPH-V003 (violation
/// found), MPH-V004 (budget exhausted, verdict unknown).
///
/// Equivalent to check_all with a one-element batch, so Outcome reporting is
/// identical between the two entry points: running out of budget never
/// throws, the result comes back with a non-Complete `outcome`.
CheckResult check(const Fts& system, const ltl::Formula& spec, const AtomMap& atoms,
                  const CheckOptions& options = {});

}  // namespace mph::fts
