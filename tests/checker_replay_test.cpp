// End-to-end validation of model-checker counterexamples: every reported
// (prefix, loop) trace must be a fair computation of the system — each
// step a move of some transition, the loop fair to every weak and strong
// transition — and, replayed as the word of its atom labels, must actually
// violate the specification according to the independent lasso evaluator,
// closing the loop between the fts, ltl, and omega layers.
#include <gtest/gtest.h>

#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/patterns.hpp"

namespace mph::fts {
namespace {

using ltl::parse_formula;
using programs::Program;

/// Whether the step a → b is a move of transition t.
bool moves(const Fts& system, std::size_t t, const Valuation& a, const Valuation& b) {
  return system.enabled(t, a) && system.apply(t, a) == b;
}

/// Checks that the computation prefix · loop^ω starts in the initial
/// valuation, that every step (the loop's closing step included) is a move
/// of some transition or the stutter of a state that enables none, and that
/// the loop meets every fairness requirement: a weak transition is taken on
/// some loop step or disabled at some loop state, a strong one is taken on
/// some loop step or disabled at every loop state. From valuations alone a
/// transition counts as taken on a step it could have made.
void expect_fair_computation(const Fts& system, const Counterexample& cex) {
  std::vector<Valuation> run = cex.prefix;
  run.insert(run.end(), cex.loop.begin(), cex.loop.end());
  ASSERT_FALSE(cex.loop.empty());
  EXPECT_EQ(run.front(), system.initial_valuation());
  run.push_back(cex.loop.front());
  for (std::size_t i = 0; i + 1 < run.size(); ++i) {
    bool moved = false, stuck = true;
    for (std::size_t t = 0; t < system.transition_count(); ++t) {
      moved = moved || moves(system, t, run[i], run[i + 1]);
      stuck = stuck && !system.enabled(t, run[i]);
    }
    EXPECT_TRUE(moved || (stuck && run[i] == run[i + 1])) << "step " << i << " is no move";
  }
  for (std::size_t t = 0; t < system.transition_count(); ++t) {
    if (system.transition_fairness(t) == Fairness::None) continue;
    bool taken = false, enabled_always = true, enabled_ever = false;
    for (std::size_t i = cex.prefix.size(); i + 1 < run.size(); ++i) {
      taken = taken || moves(system, t, run[i], run[i + 1]);
      enabled_always = enabled_always && system.enabled(t, run[i]);
      enabled_ever = enabled_ever || system.enabled(t, run[i]);
    }
    const bool fair = system.transition_fairness(t) == Fairness::Weak
                          ? taken || !enabled_always
                          : taken || !enabled_ever;
    EXPECT_TRUE(fair) << "the loop is unfair to " << system.transition_name(t);
  }
}

/// Replays a counterexample into the atom word and checks that the word
/// falsifies the spec, and that the trace is a fair computation. The replay
/// is valid only for atoms that ignore last_taken (all the location atoms
/// of the program library do). Returns the check's stats.
CheckStats expect_genuine_counterexample(const Program& prog, const ltl::Formula& spec) {
  auto result = check(prog.system, spec, prog.atoms);
  EXPECT_FALSE(result.holds) << spec.to_string();
  EXPECT_TRUE(result.counterexample.has_value()) << spec.to_string();
  if (result.holds || !result.counterexample) return result.stats;
  const auto& cex = *result.counterexample;
  auto atom_names = spec.atoms();
  auto alphabet = lang::Alphabet::of_props(atom_names);
  auto symbol_of = [&](const Valuation& v) {
    lang::Symbol s = 0;
    for (std::size_t i = 0; i < atom_names.size(); ++i)
      if (prog.atoms.at(atom_names[i])(prog.system, v, StateGraph::kNone))
        s |= lang::Symbol{1} << i;
    return s;
  };
  omega::Lasso word;
  for (const auto& v : cex.prefix) word.prefix.push_back(symbol_of(v));
  for (const auto& v : cex.loop) word.loop.push_back(symbol_of(v));
  EXPECT_FALSE(cex.loop.empty() || ltl::evaluates(spec, word, alphabet))
      << "counterexample does not violate " << spec.to_string();
  expect_fair_computation(prog.system, cex);
  return result.stats;
}

TEST(CheckerReplay, TrivialMutexAccessibility) {
  expect_genuine_counterexample(programs::trivial_mutex(),
                                ltl::patterns::accessibility("t1", "c1"));
}

TEST(CheckerReplay, SemaphoreWeakStarvation) {
  expect_genuine_counterexample(programs::semaphore_mutex(2, Fairness::Weak),
                                ltl::patterns::accessibility("t1", "c1"));
}

TEST(CheckerReplay, PetersonAbsurdSpecs) {
  Program prog = programs::peterson();
  expect_genuine_counterexample(prog, parse_formula("G !c1"));
  expect_genuine_counterexample(prog, parse_formula("G F c1"));
  expect_genuine_counterexample(prog, parse_formula("F G !t1 & G !c1"));
}

TEST(CheckerReplay, ProducerConsumerDrain) {
  expect_genuine_counterexample(programs::producer_consumer(3),
                                parse_formula("G(nonempty -> F empty)"));
}

TEST(CheckerReplay, DiningPhilosophersDeadlock) {
  expect_genuine_counterexample(programs::dining(2),
                                parse_formula("G !deadlock"));
  expect_genuine_counterexample(programs::dining(3),
                                parse_formula("G(hungry1 -> F eat1)"));
}

TEST(CheckerReplay, NbaFallbackCounterexamples) {
  EXPECT_TRUE(expect_genuine_counterexample(programs::dining(2),
                                            parse_formula("((F eat1) U hungry1) U deadlock"))
                  .nba_fallback);
  EXPECT_TRUE(expect_genuine_counterexample(programs::peterson(),
                                            parse_formula("((F t1) U c1) U t2"))
                  .nba_fallback);
}

TEST(CheckerReplay, UniversalStateStopsExtendFairly) {
  // The safety shape stops at the first residual-universal ¬spec state; the
  // witness is the DFS stack plus a loop from a fairness-only search, so it
  // is as fair as any lasso of the general acceptance.
  for (std::size_t n : {3, 5, 8}) {
    const CheckStats s = expect_genuine_counterexample(programs::ring_leader(n),
                                                       parse_formula("G !elected"));
    EXPECT_EQ(s.engine, CheckEngine::SafetyPrefix) << "ring-" << n;
  }
  for (std::size_t n : {2, 3, 5}) {
    const CheckStats s = expect_genuine_counterexample(programs::dining(n),
                                                       parse_formula("G !deadlock"));
    EXPECT_EQ(s.engine, CheckEngine::SafetyPrefix) << "dining-" << n;
  }
  // Strong fairness on the loop after the stop.
  const CheckStats s = expect_genuine_counterexample(
      programs::semaphore_mutex(3, Fairness::Strong), parse_formula("G !c2"));
  EXPECT_EQ(s.engine, CheckEngine::SafetyPrefix);
  // Past the bad state x = 1 the first edge is an unfair idle step; the
  // witness loop must still take the weakly fair move to x = 2.
  Program idle;
  const std::size_t x = idle.system.add_var("x", 0, 2, 0);
  auto at = [x](int value) { return [x, value](const Valuation& v) { return v[x] == value; }; };
  auto set = [x](int value) { return [x, value](Valuation& v) { v[x] = value; }; };
  idle.system.add_transition("start", Fairness::Weak, at(0), set(1));
  idle.system.add_transition("idle", Fairness::None, at(1), set(1));
  idle.system.add_transition("leave", Fairness::Weak, at(1), set(2));
  idle.atoms["x1"] = var_equals(idle.system, "x", 1);
  expect_genuine_counterexample(idle, parse_formula("G !x1"));
}

TEST(CheckerReplay, GuaranteeDualLassosAreFair) {
  // ⊤ over the live ¬spec states: the loop is found by fairness alone.
  const CheckStats peterson =
      expect_genuine_counterexample(programs::peterson(), parse_formula("F c1"));
  EXPECT_EQ(peterson.engine, CheckEngine::GuaranteeDual);
  const CheckStats dining = expect_genuine_counterexample(
      programs::dining(3), parse_formula("(F eat1) U deadlock"));
  EXPECT_EQ(dining.engine, CheckEngine::GuaranteeDual);
}

}  // namespace
}  // namespace mph::fts
