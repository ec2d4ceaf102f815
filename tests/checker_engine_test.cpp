// The product search's internals, observed through CheckStats and the batch
// API: the acceptance shape each spec's class picks (general, safety stop at
// a bad prefix, guarantee dual), early exit strictly below the full product
// bound, counterexamples that replay, budget exhaustion, the acceptance-mark
// limit, check_all agreement with single checks, check_all over a graph
// explored once, read under the check's own state cap, and the plain
// refusals of bad model names and spec atoms.
#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/ltl/patterns.hpp"
#include "src/ltl/to_nba.hpp"

namespace mph::fts {
namespace {

using ltl::parse_formula;
using programs::Program;

/// Replays a counterexample as its atom word; true iff it falsifies `spec`.
bool replay_violates(const Program& prog, const ltl::Formula& spec,
                     const CheckResult& result) {
  if (result.holds || !result.counterexample || result.counterexample->loop.empty())
    return false;
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
  for (const auto& v : result.counterexample->prefix) word.prefix.push_back(symbol_of(v));
  for (const auto& v : result.counterexample->loop) word.loop.push_back(symbol_of(v));
  return !ltl::evaluates(spec, word, alphabet);
}

TEST(CheckStats, BasicFieldsAreConsistent) {
  Program prog = programs::peterson();
  auto result = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  EXPECT_TRUE(result.holds);
  const auto& s = result.stats;
  EXPECT_GT(s.state_graph_nodes, 0u);
  EXPECT_GT(s.automaton_states, 0u);
  EXPECT_EQ(s.product_bound, s.state_graph_nodes * s.automaton_states);
  EXPECT_GE(s.product_bound, s.product_states);
  EXPECT_EQ(result.product_states, s.product_states);
  EXPECT_FALSE(s.nba_fallback);  // safety lies in the hierarchy fragment
  EXPECT_GE(s.explore_seconds, 0.0);
  EXPECT_GE(s.search_seconds, 0.0);
}

TEST(EngineSelection, BuchiShapedGoesOnTheFly) {
  Program prog = programs::peterson();
  // ¬(safety) is a guarantee and ¬(response) a persistence (Fin
  // acceptance): one on-the-fly search decides both, the safety spec with
  // the bad-prefix stop and the response under the general acceptance.
  auto safety = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  EXPECT_EQ(safety.stats.engine, CheckEngine::SafetyPrefix);
  EXPECT_EQ(safety.stats.class_source, ClassSource::Syntactic);
  EXPECT_TRUE(safety.holds);
  auto response = check(prog.system, parse_formula("G(t1 -> F c1)"), prog.atoms);
  EXPECT_EQ(response.stats.engine, CheckEngine::Scc);
  EXPECT_EQ(response.stats.class_source, ClassSource::None);
  EXPECT_TRUE(response.holds);
}

TEST(EngineSelection, NormalizationRoutesNonSyntacticShapesToShortcuts) {
  Program prog = programs::peterson();
  // ◇(t1 ∧ ◇c1) is a guarantee as written, but neither it nor its negation
  // compiles: only the normal form gives the deterministic ¬spec that the
  // guarantee dual needs.
  auto spec = parse_formula("F(t1 & F c1)");
  auto r = check(prog.system, spec, prog.atoms);
  EXPECT_EQ(r.stats.class_source, ClassSource::Normalized);
  EXPECT_EQ(r.stats.engine, CheckEngine::GuaranteeDual);
  EXPECT_GT(r.stats.normalize_steps, 0u);

  // Syntactically-visible shapes that compile keep the Syntactic source
  // (no normalization).
  auto direct = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  EXPECT_EQ(direct.stats.class_source, ClassSource::Syntactic);
  EXPECT_EQ(direct.stats.engine, CheckEngine::SafetyPrefix);
  EXPECT_EQ(direct.stats.normalize_steps, 0u);

  // Likewise □(c1 ∨ □c2) for the bad-prefix stop of a safety spec.
  auto safety = check(prog.system, parse_formula("G(c1 | G c2)"), prog.atoms);
  EXPECT_EQ(safety.stats.class_source, ClassSource::Normalized);
  EXPECT_EQ(safety.stats.engine, CheckEngine::SafetyPrefix);
  EXPECT_GT(safety.stats.normalize_steps, 0u);

  // A recurrence written with nested untils: no class shape, and again only
  // the normal form compiles deterministically.
  auto nested = parse_formula("(t1 U c1) U (G F t2)");
  auto n = check(prog.system, nested, prog.atoms);
  EXPECT_EQ(n.stats.class_source, ClassSource::Normalized);
  EXPECT_EQ(n.stats.engine, CheckEngine::Scc);
  EXPECT_FALSE(n.stats.nba_fallback);
  EXPECT_GT(n.stats.normalize_steps, 0u);

  // normalize_steps = 0 turns normalization off: the NBA tableau decides
  // the same verdicts.
  CheckOptions off;
  off.normalize_steps = 0;
  auto unrouted = check(prog.system, nested, prog.atoms, off);
  EXPECT_EQ(unrouted.stats.class_source, ClassSource::None);
  EXPECT_TRUE(unrouted.stats.nba_fallback);
  EXPECT_EQ(unrouted.stats.normalize_steps, 0u);
  for (const auto& [text, routed] : {std::pair{"G(c1 | G c2)", &safety}, std::pair{"F(t1 & F c1)", &r}}) {
    auto raw = check(prog.system, parse_formula(text), prog.atoms, off);
    EXPECT_EQ(raw.stats.engine, CheckEngine::Scc) << text;
    EXPECT_TRUE(raw.stats.nba_fallback) << text;
    EXPECT_EQ(raw.holds, routed->holds) << text;
  }
  EXPECT_EQ(n.holds, unrouted.holds);
}

struct Case {
  const char* model;
  const char* spec;
};

TEST(EngineSelection, RoutesOnDiningRingAndMutexModels) {
  struct Routed {
    Case c;
    CheckEngine engine;
    bool holds;
  };
  const Routed cases[] = {
      {{"dining-4", "G !(eat1 & eat2)"}, CheckEngine::SafetyPrefix, true},
      {{"dining-3", "G !deadlock"}, CheckEngine::SafetyPrefix, false},
      {{"dining-3", "G(hungry1 -> F eat1)"}, CheckEngine::Scc, false},
      {{"ring-5", "F elected"}, CheckEngine::GuaranteeDual, true},
      {{"ring-5", "G(elected -> maxleader)"}, CheckEngine::SafetyPrefix, true},
      {{"ring-4", "G !quiet"}, CheckEngine::SafetyPrefix, false},
      {{"trivial-mutex", "F G (t1 & t2)"}, CheckEngine::Scc, true},
      {{"dining-3", "(F eat1) U deadlock"}, CheckEngine::GuaranteeDual, false},
      {{"dining-3", "((F eat1) U hungry1) U deadlock"}, CheckEngine::Scc, false},  // NBA
      {{"peterson", "G(t1 -> F c1)"}, CheckEngine::Scc, true},
  };
  for (const Routed& r : cases) {
    const Program prog = programs::find_model(r.c.model).value();
    const CheckResult res = check(prog.system, parse_formula(r.c.spec), prog.atoms);
    EXPECT_EQ(res.outcome, Outcome::Complete) << r.c.model << " ⊨ " << r.c.spec;
    EXPECT_EQ(res.stats.engine, r.engine) << r.c.model << " ⊨ " << r.c.spec;
    EXPECT_EQ(res.holds, r.holds) << r.c.model << " ⊨ " << r.c.spec;
    EXPECT_EQ(res.counterexample.has_value(), !r.holds) << r.c.model << " ⊨ " << r.c.spec;
  }
}

TEST(EarlyExit, ViolationStopsStrictlyBelowTheProductBound) {
  // Seeded violation: the naive dining protocol deadlocks. The SCC search
  // must report it without interning the whole state-graph × automaton
  // product.
  Program prog = programs::dining(3);
  auto spec = parse_formula("G !deadlock");
  auto result = check(prog.system, spec, prog.atoms);
  ASSERT_FALSE(result.holds);
  EXPECT_EQ(result.stats.engine, CheckEngine::SafetyPrefix);
  EXPECT_LT(result.stats.product_states, result.stats.product_bound);
  EXPECT_TRUE(replay_violates(prog, spec, result));
}

TEST(EarlyExit, NbaFallbackViolationReplays) {
  // Outside the hierarchy fragment: the tableau NBA drives the same SCC
  // search and its counterexample must still be genuine.
  Program prog = programs::dining(2);
  auto spec = parse_formula("((F eat1) U hungry1) U deadlock");
  auto result = check(prog.system, spec, prog.atoms);
  ASSERT_FALSE(result.holds);
  EXPECT_TRUE(result.stats.nba_fallback);
  EXPECT_EQ(result.stats.engine, CheckEngine::Scc);
  EXPECT_LT(result.stats.product_states, result.stats.product_bound);
  EXPECT_TRUE(replay_violates(prog, spec, result));
}

TEST(EarlyExit, CounterexamplesReplayOnDiningAndRing) {
  const Case cases[] = {
      {"dining-3", "G !deadlock"},                      // bad prefix + fair lasso
      {"dining-3", "G(hungry1 -> F eat1)"},             // Fin-shaped acceptance
      {"ring-4", "G !quiet"},                           // bad prefix on the ring
      {"peterson", "G F c1"},                           // fairness marks
      {"dining-3", "(F eat1) U deadlock"},              // guarantee dual
      {"dining-3", "((F eat1) U hungry1) U deadlock"},  // over the NBA tableau
  };
  for (const Case& c : cases) {
    const Program prog = programs::find_model(c.model).value();
    const ltl::Formula spec = parse_formula(c.spec);
    EXPECT_TRUE(replay_violates(prog, spec, check(prog.system, spec, prog.atoms)))
        << c.model << " ⊨ " << c.spec;
  }
}

TEST(EarlyExit, DeadlockOnDining11WithinFiveThousandPairs) {
  // The search stops at the first residual-universal ¬spec state, right
  // after the DFS reaches a deadlock: a few thousand pairs at most, against
  // 115,468 state-graph nodes.
  const Program prog = programs::dining(11);
  const auto spec = parse_formula("G !deadlock");
  const CheckResult r = check(prog.system, spec, prog.atoms);
  ASSERT_EQ(r.outcome, Outcome::Complete);
  ASSERT_FALSE(r.holds);
  EXPECT_EQ(r.stats.engine, CheckEngine::SafetyPrefix);
  EXPECT_LE(r.stats.product_states, 5000u);
  EXPECT_TRUE(replay_violates(prog, spec, r));
}

TEST(EarlyExit, FinShapedAndMultiInitialNbaViolationsReplay) {
  const Program prog = programs::dining(3);
  // ¬G(hungry1 → F eat1) is a persistence: its acceptance has Fin atoms.
  const auto response = parse_formula("G(hungry1 -> F eat1)");
  const auto response_alphabet = lang::Alphabet::of_props(response.atoms());
  ASSERT_NE(ltl::compile(f_not(response), response_alphabet).acceptance().fin_marks(), 0u);
  const CheckResult fin = check(prog.system, response, prog.atoms);
  ASSERT_EQ(fin.outcome, Outcome::Complete);
  ASSERT_FALSE(fin.holds);
  EXPECT_FALSE(fin.stats.nba_fallback);
  EXPECT_TRUE(replay_violates(prog, response, fin));
  // Outside every deterministic source, with a tableau that starts in
  // several states: each initial pair roots the same search in turn.
  const auto until = parse_formula("((F eat1) U hungry1) U deadlock");
  const auto until_alphabet = lang::Alphabet::of_props(until.atoms());
  ASSERT_GT(ltl::to_nba(f_not(until), until_alphabet).initial_states().size(), 1u);
  const CheckResult nba = check(prog.system, until, prog.atoms);
  ASSERT_EQ(nba.outcome, Outcome::Complete);
  ASSERT_FALSE(nba.holds);
  EXPECT_TRUE(nba.stats.nba_fallback);
  EXPECT_TRUE(replay_violates(prog, until, nba));
}

TEST(EarlyExit, FinRefinementFindsALoopInsideAClosedComponent) {
  // x runs 0 → 1 → 2 → 0 and 2 ⇄ 3, all unfair. ¬G F x1 accepts loops that
  // avoid x = 1. The search closes the cycle through x = 1 first, so the
  // component's marks as a whole fail Fin; the loop 2 ⇄ 3 inside it is
  // found when the closed component is refined.
  Program prog;
  const std::size_t x = prog.system.add_var("x", 0, 3, 0);
  auto move = [&](int from, int to) {
    prog.system.add_transition(
        "x" + std::to_string(from) + std::to_string(to), Fairness::None,
        [x, from](const Valuation& v) { return v[x] == from; },
        [x, to](Valuation& v) { v[x] = to; });
  };
  move(0, 1);
  move(1, 2);
  move(2, 0);
  move(2, 3);
  move(3, 2);
  prog.atoms["x1"] = var_equals(prog.system, "x", 1);
  const auto spec = parse_formula("G F x1");
  const CheckResult r = check(prog.system, spec, prog.atoms);
  ASSERT_EQ(r.outcome, Outcome::Complete);
  ASSERT_FALSE(r.holds);
  EXPECT_TRUE(replay_violates(prog, spec, r));
  ASSERT_TRUE(r.counterexample.has_value());
  for (const Valuation& v : r.counterexample->loop) EXPECT_NE(v[x], 1);
}

/// One two-valued variable flipped by `weak` weakly fair transitions: its
/// fair product needs one acceptance mark per transition.
Program flip_system(std::size_t weak) {
  Program prog;
  const std::size_t v0 = prog.system.add_var("v0", 0, 1, 0);
  for (std::size_t t = 0; t < weak; ++t)
    prog.system.add_transition(
        "flip" + std::to_string(t), Fairness::Weak, [](const Valuation&) { return true; },
        [v0](Valuation& v) { v[v0] = 1 - v[v0]; });
  prog.atoms["v0lo"] = var_equals(prog.system, "v0", 0);
  prog.atoms["v0hi"] = var_equals(prog.system, "v0", 1);
  return prog;
}

TEST(MarkLimit, SixtyFourMarksFitTheProduct) {
  // 63 weak-fairness marks plus the one mark of ¬G(v0lo → F v0hi): exactly
  // 64. The response holds only because the flips are fair.
  const Program prog = flip_system(63);
  const CheckResult r = check(prog.system, parse_formula("G(v0lo -> F v0hi)"), prog.atoms);
  ASSERT_EQ(r.outcome, Outcome::Complete);
  EXPECT_TRUE(r.holds);
  EXPECT_EQ(r.stats.engine, CheckEngine::Scc);
  // The safety spec reads no fairness marks; its witness loop is fair.
  const auto spec = parse_formula("G v0lo");
  const CheckResult safety = check(prog.system, spec, prog.atoms);
  ASSERT_EQ(safety.outcome, Outcome::Complete);
  EXPECT_FALSE(safety.holds);
  EXPECT_EQ(safety.stats.engine, CheckEngine::SafetyPrefix);
  EXPECT_TRUE(replay_violates(prog, spec, safety));
}

TEST(MarkLimit, PastTheLimitOnlyTheOmegaProductIsRefused) {
  // Past 64 marks the safety shape still gets its verdict, since it never
  // reads fairness marks (its witness loop then follows first edges). A spec
  // whose acceptance reads fairness would need 65 marks and is refused by
  // name, with the count and the limit.
  const auto spec = parse_formula("G v0lo");
  for (std::size_t weak : {64, 100}) {
    const Program prog = flip_system(weak);
    const CheckResult safety = check(prog.system, spec, prog.atoms);
    ASSERT_EQ(safety.outcome, Outcome::Complete) << weak;
    EXPECT_FALSE(safety.holds) << weak;
    EXPECT_EQ(safety.stats.engine, CheckEngine::SafetyPrefix) << weak;
    EXPECT_TRUE(replay_violates(prog, spec, safety)) << weak;
  }
  const Program prog = flip_system(64);
  try {
    check(prog.system, parse_formula("G(v0lo -> F v0hi)"), prog.atoms);
    FAIL() << "the ω-product past 64 marks must be refused";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("needs 65 acceptance marks"), std::string::npos) << what;
    EXPECT_NE(what.find("64 for fairness"), std::string::npos) << what;
    EXPECT_NE(what.find("limit of 64"), std::string::npos) << what;
    EXPECT_EQ(what.find("requirement failed"), std::string::npos) << what;
  }
}

TEST(ModelRegistry, BadNamesAndAtomsAreRefusedWithoutSourcePaths) {
  for (const auto& m : programs::named_models()) EXPECT_TRUE(programs::find_model(m.name));
  for (const auto& f : programs::model_families())
    for (std::size_t n = f.min_n; n <= f.max_n; ++n)
      EXPECT_EQ(programs::member_size(f, std::string(f.prefix) + std::to_string(n)), n);
  EXPECT_FALSE(programs::find_model("nope"));
  const Program peterson = programs::peterson();
  const Program dining11 = programs::dining(11);
  std::string all_eat = "eat1";
  for (int i = 2; i <= 11; ++i) all_eat += " & eat" + std::to_string(i);
  const ltl::Formula eleven_atoms = parse_formula("G !(" + all_eat + ")");
  const std::pair<std::function<void()>, const char*> refused[] = {
      {[] { programs::find_model("dining-99"); }, "(dining-N takes N = 2..12)"},
      {[] { programs::find_model("dining-1"); }, "(dining-N takes N = 2..12)"},
      {[] { programs::find_model("dining-"); }, "(dining-N takes N = 2..12)"},
      {[] { programs::find_model("ring-007"); }, "(ring-N takes N = 2..10)"},
      {[] { programs::find_model("ring-+5"); }, "(ring-N takes N = 2..10)"},
      {[&] { check(peterson.system, parse_formula("G foo"), peterson.atoms); }, "foo"},
      {[&] { check(peterson.system, parse_formula("G true"), peterson.atoms); }, "atom"},
      {[&] { check(dining11.system, eleven_atoms, dining11.atoms); }, "at most 10"},
  };
  for (const auto& [run, expected] : refused) {
    try {
      run();
      ADD_FAILURE() << "not refused: " << expected;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(expected), std::string::npos) << what;
      EXPECT_EQ(what.find("requirement failed"), std::string::npos) << what;
    }
  }
}

TEST(RingLeader, PropertiesUnderBothEngines) {
  // With and without normalization in the checker.
  const Program prog = programs::ring_leader(5);
  for (std::size_t steps : {0, 512}) {
    CheckOptions opts;
    opts.normalize_steps = steps;
    // Chang–Roberts: some leader is elected under weak fairness, and only
    // the maximal id can win.
    EXPECT_TRUE(check(prog.system, parse_formula("F elected"), prog.atoms, opts).holds);
    EXPECT_TRUE(
        check(prog.system, parse_formula("G(elected -> maxleader)"), prog.atoms, opts).holds);
    EXPECT_TRUE(check(prog.system, parse_formula("F maxleader"), prog.atoms, opts).holds);
    // The channels do drain.
    EXPECT_FALSE(check(prog.system, parse_formula("G !quiet"), prog.atoms, opts).holds);
  }
}

TEST(EarlyExit, HoldingSpecExploresWithoutCounterexample) {
  Program prog = programs::peterson();
  auto result = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  EXPECT_TRUE(result.holds);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_GT(result.stats.product_states, 0u);
}

std::vector<ltl::Formula> mixed_specs() {
  return {
      parse_formula("G !(c1 & c2)"),           // safety, holds
      parse_formula("G(t1 -> F c1)"),          // response (SCC engine)
      parse_formula("G !c1"),                  // safety, violated
      parse_formula("G F c1"),                 // recurrence, violated
      parse_formula("((F t1) U c1) U t2"),     // NBA fallback
      ltl::patterns::accessibility("t2", "c2"),
  };
}

TEST(CheckAll, AgreesWithSequentialCheck) {
  Program prog = programs::peterson();
  auto specs = mixed_specs();
  auto batch = check_all(prog.system, specs, prog.atoms);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto single = check(prog.system, specs[i], prog.atoms);
    EXPECT_EQ(batch[i].holds, single.holds) << specs[i].to_string();
    EXPECT_EQ(batch[i].stats.product_states, single.stats.product_states)
        << specs[i].to_string();
    EXPECT_EQ(batch[i].stats.engine, single.stats.engine) << specs[i].to_string();
    EXPECT_EQ(batch[i].counterexample.has_value(), single.counterexample.has_value());
    if (!batch[i].holds) {
      EXPECT_TRUE(replay_violates(prog, specs[i], batch[i]));
    }
  }
}

TEST(CheckAll, StrongFairnessBatchMatchesSingleChecks) {
  Program prog = programs::semaphore_mutex(3, Fairness::Strong);
  std::vector<ltl::Formula> specs;
  for (int i = 1; i <= 3; ++i) {
    specs.push_back(ltl::patterns::accessibility("t" + std::to_string(i),
                                                 "c" + std::to_string(i)));
    specs.push_back(parse_formula("G !c" + std::to_string(i)));
  }
  auto batch = check_all(prog.system, specs, prog.atoms);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CheckResult single = check(prog.system, specs[i], prog.atoms);
    EXPECT_EQ(batch[i].holds, single.holds) << specs[i].to_string();
    EXPECT_EQ(batch[i].stats.product_states, single.stats.product_states);
    if (!batch[i].holds) {
      EXPECT_TRUE(replay_violates(prog, specs[i], batch[i]));
    }
  }
}

TEST(CheckAll, DiagnosticsComeInSpecOrder) {
  // A batch reports exactly what its specs report one by one, in spec order.
  Program prog = programs::peterson();
  auto specs = mixed_specs();
  analysis::DiagnosticEngine batch_engine, single_engine;
  CheckOptions batch_options;
  batch_options.diagnostics = &batch_engine;
  check_all(prog.system, specs, prog.atoms, batch_options);
  CheckOptions single_options;
  single_options.diagnostics = &single_engine;
  for (const auto& spec : specs) check(prog.system, spec, prog.atoms, single_options);
  ASSERT_EQ(batch_engine.size(), single_engine.size());
  for (std::size_t i = 0; i < batch_engine.size(); ++i) {
    EXPECT_EQ(batch_engine.diagnostics()[i].code, single_engine.diagnostics()[i].code);
    EXPECT_EQ(batch_engine.diagnostics()[i].subject, single_engine.diagnostics()[i].subject);
  }
  EXPECT_TRUE(batch_engine.has_code("MPH-V001"));
  EXPECT_TRUE(batch_engine.has_code("MPH-V003"));
}

TEST(CheckAll, EmptyBatchAndErrors) {
  Program prog = programs::peterson();
  EXPECT_TRUE(check_all(prog.system, {}, prog.atoms).empty());
  std::vector<ltl::Formula> bad = {parse_formula("G nosuchatom")};
  EXPECT_THROW(check_all(prog.system, bad, prog.atoms), std::invalid_argument);
  std::vector<ltl::Formula> tiny = {parse_formula("G !(c1 & c2)"),
                                    parse_formula("G !c1")};
  CheckOptions capped;
  capped.budget.with_state_cap(3);  // exploration alone must blow the cap
  auto exhausted = check_all(prog.system, tiny, prog.atoms, capped);
  ASSERT_EQ(exhausted.size(), tiny.size());
  for (const auto& r : exhausted) {
    EXPECT_EQ(r.outcome, Outcome::BudgetStates);
    EXPECT_EQ(r.stats.outcome, Outcome::BudgetStates);
    EXPECT_FALSE(r.holds);
    EXPECT_FALSE(r.counterexample.has_value());
  }
}

TEST(Budgets, ZeroStateBudgetReturnsImmediately) {
  Program prog = programs::peterson();
  CheckOptions options;
  options.budget.with_state_cap(0);
  analysis::DiagnosticEngine diags;
  options.diagnostics = &diags;
  auto r = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms, options);
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_EQ(r.stats.outcome, Outcome::BudgetStates);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_EQ(r.stats.state_graph_nodes, 0u);
  EXPECT_TRUE(diags.has_code("MPH-V004"));
}

// Exploration exhaustion ends the whole batch before any product is built:
// every spec gets the unknown verdict and one batch-level MPH-V004 names
// exactly the cap's state count.
TEST(Budgets, ExploreExhaustionReportsOneBatchDiagnostic) {
  const Program prog = programs::dining(4);
  analysis::DiagnosticEngine diags;
  CheckOptions opts;
  opts.budget.with_state_cap(60);
  opts.diagnostics = &diags;
  CheckResult r = check(prog.system, parse_formula("G !(eat1 & eat2)"), prog.atoms, opts);
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_EQ(r.stats.state_graph_nodes, 60u);
  ASSERT_EQ(diags.size(), 1u) << diags.to_text();
  EXPECT_EQ(diags.diagnostics()[0].code, "MPH-V004");
  EXPECT_EQ(diags.diagnostics()[0].subject, "state-graph exploration");
  EXPECT_NE(diags.diagnostics()[0].message.find("after 60 system state(s)"),
            std::string::npos)
      << diags.to_text();
}

// Product exhaustion in the SCC search: 'F G (t1 & t2)' holds on
// trivial-mutex with a 7-pair product over a 5-node graph, so a cap of 6
// completes the exploration but exhausts the product search — at exactly
// cap + 1 interned pairs.
TEST(Budgets, ProductExhaustionStopsAtCapPlusOne) {
  const Program prog = programs::trivial_mutex();
  analysis::DiagnosticEngine diags;
  CheckOptions opts;
  opts.budget.with_state_cap(6);
  opts.diagnostics = &diags;
  CheckResult r = check(prog.system, parse_formula("F G (t1 & t2)"), prog.atoms, opts);
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_EQ(r.stats.engine, CheckEngine::Scc);
  EXPECT_EQ(r.stats.product_states, 7u);
  EXPECT_TRUE(diags.has_code("MPH-V004")) << diags.to_text();
  EXPECT_NE(diags.to_text().find("after 7 product state(s)"), std::string::npos)
      << diags.to_text();
}

TEST(Budgets, PastDeadlineReportsBudgetDeadline) {
  Program prog = programs::peterson();
  CheckOptions options;
  options.budget.with_deadline(Budget::Clock::now() - std::chrono::seconds(1));
  auto r = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms, options);
  EXPECT_EQ(r.outcome, Outcome::BudgetDeadline);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(Budgets, CancellationReportsCancelled) {
  Program prog = programs::peterson();
  std::stop_source source;
  source.request_stop();
  CheckOptions options;
  options.budget.with_stop_token(source.get_token());
  auto r = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms, options);
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_FALSE(r.holds);
}

TEST(Budgets, ExhaustionIsDeterministicAcrossRuns) {
  Program prog = programs::peterson();
  auto free_run = check(prog.system, parse_formula("G !(c1 & c2)"), prog.atoms);
  const std::size_t graph_nodes = free_run.stats.state_graph_nodes;
  ASSERT_GT(graph_nodes, 0u);

  // The cap admits the state graph exactly, so exploration completes but the
  // larger product constructions exhaust — deterministically, because the cap
  // counts interned states, not time.
  std::vector<ltl::Formula> specs = {
      parse_formula("G !(c1 & c2)"),
      parse_formula("G F c1"),       // the search builds the full product
      parse_formula("G(t1 -> F c1)"),
      parse_formula("((F t1) U c1) U t2"),  // NBA fallback
  };
  CheckOptions seq;
  seq.budget.with_state_cap(graph_nodes);
  CheckOptions again = seq;
  analysis::DiagnosticEngine seq_diags, again_diags;
  seq.diagnostics = &seq_diags;
  again.diagnostics = &again_diags;
  auto a = check_all(prog.system, specs, prog.atoms, seq);
  auto b = check_all(prog.system, specs, prog.atoms, again);
  ASSERT_EQ(a.size(), b.size());
  bool any_exhausted = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << specs[i].to_string();
    EXPECT_EQ(a[i].holds, b[i].holds) << specs[i].to_string();
    EXPECT_EQ(a[i].stats.product_states, b[i].stats.product_states)
        << specs[i].to_string();
    if (!is_complete(a[i].outcome)) {
      any_exhausted = true;
      EXPECT_FALSE(a[i].counterexample.has_value()) << specs[i].to_string();
    }
  }
  EXPECT_TRUE(any_exhausted);
  EXPECT_TRUE(seq_diags.has_code("MPH-V004"));
  ASSERT_EQ(again_diags.size(), seq_diags.size());
  for (std::size_t i = 0; i < seq_diags.size(); ++i)
    EXPECT_EQ(again_diags.diagnostics()[i].code, seq_diags.diagnostics()[i].code);
}


// --- one exploration, many consumers -----------------------------------------
// check_all over a caller-explored graph must be the four-argument form
// exactly: same verdict, outcome, engine, product size and counterexample,
// on every model family.
TEST(SharedGraph, GivenGraphMatchesTheExploringForm) {
  const std::vector<std::string> dining_specs = {"G !deadlock", "G(hungry1 -> F eat1)",
                                                 "G !(eat1 & eat2)", "G(eat1 -> F !eat1)"};
  const std::vector<std::string> ring_specs = {"F elected", "G(elected -> maxleader)",
                                               "G !elected", "G !quiet"};
  const std::vector<std::string> mutex_specs = {"G !(c1 & c2)", "G(t1 -> F c1)", "G !c1",
                                                "G F c1"};
  std::vector<std::pair<Program, const std::vector<std::string>*>> cases;
  for (std::size_t n = 3; n <= 6; ++n) cases.emplace_back(programs::dining(n), &dining_specs);
  for (std::size_t n = 4; n <= 6; ++n)
    cases.emplace_back(programs::ring_leader(n), &ring_specs);
  cases.emplace_back(programs::peterson(), &mutex_specs);
  cases.emplace_back(programs::semaphore_mutex(3, Fairness::Weak), &mutex_specs);
  cases.emplace_back(programs::semaphore_mutex(3, Fairness::Strong), &mutex_specs);

  for (const auto& [prog, texts] : cases) {
    std::vector<ltl::Formula> specs;
    for (const auto& t : *texts) specs.push_back(parse_formula(t));
    {
      const CheckOptions opts;
      const ExploreResult ex = explore(prog.system, effective_budget(opts));
      ASSERT_TRUE(is_complete(ex.outcome));
      const auto shared = check_all(prog.system, ex, specs, prog.atoms, opts);
      const auto own = check_all(prog.system, specs, prog.atoms, opts);
      ASSERT_EQ(shared.size(), own.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string& where = (*texts)[i];
        EXPECT_EQ(shared[i].holds, own[i].holds) << where;
        EXPECT_EQ(shared[i].outcome, own[i].outcome) << where;
        EXPECT_EQ(shared[i].stats.engine, own[i].stats.engine) << where;
        EXPECT_EQ(shared[i].stats.product_states, own[i].stats.product_states) << where;
        EXPECT_EQ(shared[i].stats.state_graph_nodes, ex.graph.nodes.size()) << where;
        EXPECT_EQ(shared[i].stats.explore_seconds, ex.seconds) << where;
        ASSERT_EQ(shared[i].counterexample.has_value(), own[i].counterexample.has_value())
            << where;
        if (own[i].counterexample) {
          EXPECT_EQ(shared[i].counterexample->prefix, own[i].counterexample->prefix) << where;
          EXPECT_EQ(shared[i].counterexample->loop, own[i].counterexample->loop) << where;
        }
      }
    }
  }
}

// A graph explored under the default cap, checked under a cap of 60, reads
// exactly as an exploration capped at 60: BudgetStates, 60 nodes, and the
// same batch-level MPH-V004 as ExploreExhaustionReportsOneBatchDiagnostic.
TEST(SharedGraph, LargerGraphReadsAsTheCappedExploration) {
  const Program prog = programs::dining(4);
  const ExploreResult ex = explore(prog.system, Budget().with_state_cap(kDefaultStateCap));
  ASSERT_TRUE(is_complete(ex.outcome));
  ASSERT_GT(ex.graph.nodes.size(), 60u);
  EXPECT_EQ(outcome_under_cap(ex, 60), Outcome::BudgetStates);
  EXPECT_EQ(outcome_under_cap(ex, ex.graph.nodes.size()), Outcome::Complete);

  const std::vector<ltl::Formula> specs = {parse_formula("G !(eat1 & eat2)")};
  analysis::DiagnosticEngine shared_diags, own_diags;
  CheckOptions opts;
  opts.budget.with_state_cap(60);
  opts.diagnostics = &shared_diags;
  const CheckResult r = check_all(prog.system, ex, specs, prog.atoms, opts).front();
  opts.diagnostics = &own_diags;
  const CheckResult own = check_all(prog.system, specs, prog.atoms, opts).front();
  EXPECT_EQ(r.outcome, Outcome::BudgetStates);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.counterexample.has_value());
  EXPECT_EQ(r.stats.state_graph_nodes, 60u);
  EXPECT_EQ(own.stats.state_graph_nodes, 60u);
  ASSERT_EQ(shared_diags.size(), 1u) << shared_diags.to_text();
  EXPECT_EQ(shared_diags.diagnostics()[0].code, "MPH-V004");
  EXPECT_NE(shared_diags.diagnostics()[0].message.find("after 60 system state(s)"),
            std::string::npos)
      << shared_diags.to_text();
  EXPECT_EQ(shared_diags.to_text(), own_diags.to_text());
}

// A batch the static prover settles entirely never explores: the exploring
// form would throw on this system's first step (an effect leaves the
// domain), and every result reports 0 states.
TEST(SharedGraph, FullyStaticBatchExploresNothing) {
  Fts sys;
  const std::size_t x = sys.add_var("x", 0, 1, 0);
  sys.add_transition(
      "overflow", Fairness::None, [](const Valuation&) { return true; },
      [x](Valuation& v) { v[x] = 2; });
  const AtomMap atoms = {{"p", var_equals(sys, "x", 0)}};
  const std::vector<ltl::Formula> specs = {parse_formula("G p"), parse_formula("F p")};
  ASSERT_THROW(explore(sys, Budget()), std::invalid_argument);

  CheckOptions opts;
  opts.static_prover = [](const ltl::Formula&) -> std::optional<CheckResult> {
    CheckResult proved;
    proved.holds = true;
    return proved;
  };
  for (const auto& r : check_all(sys, specs, atoms, opts)) {
    EXPECT_TRUE(r.holds);
    EXPECT_EQ(r.stats.engine, CheckEngine::StaticProof);
    EXPECT_EQ(r.stats.state_graph_nodes, 0u);
    EXPECT_EQ(r.stats.explore_seconds, 0.0);
  }
  // The given-graph form consults the prover first too: the (empty) graph is
  // never read.
  const ExploreResult unexplored;
  for (const auto& r : check_all(sys, unexplored, specs, atoms, opts)) {
    EXPECT_EQ(r.stats.engine, CheckEngine::StaticProof);
    EXPECT_EQ(r.stats.state_graph_nodes, 0u);
  }
}

}  // namespace
}  // namespace mph::fts
