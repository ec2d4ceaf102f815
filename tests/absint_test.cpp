// Tests of the interval abstract interpreter (src/analysis/absint.hpp,
// docs/ABSINT.md): fixpoint precision on hand-built systems and on the
// symbolic dining/ring families, the MPH-F010/F011/F012 verdicts, and the
// exploration-free static proof path through CheckOptions::static_prover —
// including its agreement with the exploration engines and its refusal
// discipline.
#include <gtest/gtest.h>

#include "src/analysis/absint.hpp"
#include "src/analysis/passes.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/spec_model.hpp"
#include "src/ltl/ast.hpp"

namespace mph::analysis {
namespace {

using fts::FtsSpec;

const AbsintResult::VarInvariant& var_of(const AbsintResult& r, const std::string& name) {
  for (const auto& v : r.invariants)
    if (v.name == name) return v;
  ADD_FAILURE() << "no invariant for variable " << name;
  static AbsintResult::VarInvariant none;
  return none;
}

const AbsintResult::TransVerdict& trans_of(const AbsintResult& r, const std::string& name) {
  for (const auto& t : r.transitions)
    if (t.name == name) return t;
  ADD_FAILURE() << "no verdict for transition " << name;
  static AbsintResult::TransVerdict none;
  return none;
}

TEST(Absint, GuardTightensTheImage) {
  // x ∈ [0, 5] init 0, one transition: guard x ≤ 2, effect x += 1. The
  // reachable set is {0..3}; the interval fixpoint lands exactly on it.
  FtsSpec spec;
  spec.vars.push_back({"x", 0, 5, 0});
  FtsSpec::Trans inc;
  inc.name = "inc";
  inc.guard.push_back({0, 0, 2});  // x <= 2
  inc.effects.push_back({0, 0, 1});
  spec.transitions.push_back(inc);

  const AbsintResult r = analyze_intervals(spec);
  const auto& x = var_of(r, "x");
  EXPECT_EQ(x.inv.lo, 0);
  EXPECT_EQ(x.inv.hi, 3);
  EXPECT_TRUE(x.tightened);
  EXPECT_FALSE(trans_of(r, "inc").may_wrap);
  EXPECT_EQ(r.dead_count(), 0u);
}

TEST(Absint, DeadGuardIsReported) {
  // y never leaves 0, so a guard y ≥ 1 is unsatisfiable under the invariant.
  FtsSpec spec;
  spec.vars.push_back({"y", 0, 3, 0});
  FtsSpec::Trans dead;
  dead.name = "dead";
  dead.guard.push_back({0, 1, 1});  // y >= 1
  dead.effects.push_back({0, 0, 1});
  spec.transitions.push_back(dead);

  const AbsintResult r = analyze_intervals(spec);
  EXPECT_TRUE(trans_of(r, "dead").dead);
  EXPECT_EQ(r.dead_count(), 1u);
  // The dead transition contributes no image: y stays at its initial point.
  EXPECT_EQ(var_of(r, "y").inv.lo, 0);
  EXPECT_EQ(var_of(r, "y").inv.hi, 0);
}

TEST(Absint, WrapAtExactSpanIsFlaggedButPrecise) {
  // x ∈ [0, 2], effect x += 3: concretely the identity (3 ≡ 0 mod span),
  // abstractly a wrap that still maps [0, 2] onto [0, 2].
  FtsSpec spec;
  spec.vars.push_back({"x", 0, 2, 1});
  FtsSpec::Trans tick;
  tick.name = "tick";
  tick.effects.push_back({0, 0, 3});
  spec.transitions.push_back(tick);

  const AbsintResult r = analyze_intervals(spec);
  const auto& tv = trans_of(r, "tick");
  EXPECT_TRUE(tv.may_wrap);
  ASSERT_EQ(tv.wrap_vars.size(), 1u);
  EXPECT_EQ(tv.wrap_vars[0], "x");
  // Initial point 1 plus the self-mapping effect: the point is preserved…
  // except joins go through the wrapped interval [0, 2] → full domain here.
  EXPECT_GE(var_of(r, "x").inv.lo, 0);
  EXPECT_LE(var_of(r, "x").inv.hi, 2);
}

TEST(Absint, DiningFamilyInvariant) {
  const AbsintResult r = analyze_intervals(fts::symbolic_dining(3));
  // The alarm latch never fires: alarm is pinned to 0 (MPH-F011) and the
  // escalate transition is dead (MPH-F010).
  const auto& alarm = var_of(r, "alarm");
  EXPECT_EQ(alarm.inv.lo, 0);
  EXPECT_EQ(alarm.inv.hi, 0);
  EXPECT_TRUE(alarm.tightened);
  EXPECT_TRUE(trans_of(r, "escalate").dead);
  // put_down wraps pc from 2 back to 0 (MPH-F012).
  EXPECT_TRUE(trans_of(r, "put_down0").may_wrap);
  // The philosopher program counters genuinely cover their domains.
  EXPECT_FALSE(var_of(r, "pc0").tightened);
  EXPECT_EQ(var_of(r, "pc0").inv.hi, 2);
}

TEST(Absint, RingFamilyInvariant) {
  const AbsintResult r = analyze_intervals(fts::symbolic_ring(4));
  EXPECT_TRUE(trans_of(r, "escalate").dead);
  EXPECT_TRUE(var_of(r, "alarm").tightened);
  // Token passing is guard-pinned to points: no wraps anywhere.
  EXPECT_EQ(r.wrap_count(), 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& tok = var_of(r, "token" + std::to_string(i));
    EXPECT_EQ(tok.inv.lo, 0);
    EXPECT_EQ(tok.inv.hi, 1);
  }
}

TEST(Absint, LintEmitsTheCodes) {
  DiagnosticEngine engine;
  lint_absint(fts::symbolic_dining(2), engine);
  EXPECT_EQ(engine.count_code("MPH-F010"), 1u);  // escalate
  EXPECT_EQ(engine.count_code("MPH-F011"), 1u);  // alarm
  EXPECT_EQ(engine.count_code("MPH-F012"), 2u);  // both put_downs
  EXPECT_FALSE(engine.has_errors());
}

TEST(Absint, PassRegistryRunsOnSpecModels) {
  const FtsSpec spec = fts::symbolic_dining(2);
  DiagnosticEngine engine;
  run_passes(Subject::of(spec, "dining-2"), engine);
  EXPECT_GE(engine.count_code("MPH-F010"), 1u);
  bool found = false;
  for (const auto& pass : registered_passes())
    if (pass.id == "absint") {
      found = true;
      EXPECT_EQ(pass.kind, Subject::Kind::SpecModel);
    }
  EXPECT_TRUE(found);
}

TEST(Absint, FindSymbolicModel) {
  EXPECT_TRUE(fts::find_symbolic_model("dining-5").has_value());
  EXPECT_TRUE(fts::find_symbolic_model("ring-10").has_value());
  EXPECT_FALSE(fts::find_symbolic_model("ring-11").has_value());
  EXPECT_FALSE(fts::find_symbolic_model("dining-1").has_value());
  EXPECT_FALSE(fts::find_symbolic_model("peterson").has_value());
  EXPECT_FALSE(fts::find_symbolic_model("dining-").has_value());
}

TEST(StaticProver, ProvesBoxSafetyWithoutExploring) {
  const FtsSpec spec = fts::symbolic_dining(3);
  const fts::Fts sys = spec.build();
  const fts::AtomMap atoms = spec.atoms();
  fts::CheckOptions opts;
  opts.static_prover = make_static_prover(spec);
  const auto r = fts::check(sys, ltl::parse_formula("G alarmlo"), atoms, opts);
  EXPECT_TRUE(r.holds);
  EXPECT_EQ(r.outcome, Outcome::Complete);
  EXPECT_EQ(r.stats.engine, fts::CheckEngine::StaticProof);
  EXPECT_EQ(r.stats.state_graph_nodes, 0u);
  EXPECT_EQ(r.stats.product_states, 0u);
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(StaticProver, AgreesWithExplorationEngines) {
  const FtsSpec spec = fts::symbolic_ring(3);
  const fts::Fts sys = spec.build();
  const fts::AtomMap atoms = spec.atoms();
  const auto f = ltl::parse_formula("G alarmlo");
  fts::CheckOptions static_opts;
  static_opts.static_prover = make_static_prover(spec);
  const auto r_static = fts::check(sys, f, atoms, static_opts);
  const auto r_plain = fts::check(sys, f, atoms, fts::CheckOptions{});
  EXPECT_EQ(r_static.stats.engine, fts::CheckEngine::StaticProof);
  EXPECT_EQ(r_static.holds, r_plain.holds);
  // With no static_prover installed the product search runs, in the safety
  // shape (the fuzz oracles rely on that to compare the prover with
  // exploration).
  EXPECT_EQ(r_plain.stats.engine, fts::CheckEngine::SafetyPrefix);
}

TEST(StaticProver, RefusesWhatTheBoxCannotDecide) {
  const FtsSpec spec = fts::symbolic_dining(2);
  const auto prover = make_static_prover(spec);
  // Liveness: not a □(state) shape.
  EXPECT_FALSE(prover(ltl::parse_formula("F alarmhi")).has_value());
  // pc0 covers [0, 2]: pc0hi is sometimes false, the box cannot certify it.
  EXPECT_FALSE(prover(ltl::parse_formula("G pc0hi")).has_value());
  // Nested temporal body under □.
  EXPECT_FALSE(prover(ltl::parse_formula("G F alarmlo")).has_value());
  // A violated state formula must be refused, never "certified false".
  EXPECT_FALSE(prover(ltl::parse_formula("alarmhi")).has_value());
}

TEST(StaticProver, SplitsConjunctionsAndEvaluatesInitialStates) {
  const FtsSpec spec = fts::symbolic_dining(2);
  const auto prover = make_static_prover(spec);
  // Pure state formula, decided exactly at the initial valuation.
  const auto init = prover(ltl::parse_formula("pc0lo & fork1lo"));
  ASSERT_TRUE(init.has_value());
  EXPECT_TRUE(init->holds);
  // Conjunction of a box-provable □ and an initial-state fact.
  const auto both = prover(ltl::parse_formula("G alarmlo & pc1lo"));
  ASSERT_TRUE(both.has_value());
  EXPECT_TRUE(both->holds);
  // One refusable conjunct refuses the whole conjunction.
  EXPECT_FALSE(prover(ltl::parse_formula("G alarmlo & F alarmhi")).has_value());
}

TEST(StaticProver, CertificationAcceptsTheSoundInvariant) {
  StaticProverOptions opts;
  opts.certify = true;  // force the cross-check regardless of build type
  opts.certify_max_states = 100000;
  const auto prover = make_static_prover(fts::symbolic_dining(2), opts);
  const auto r = prover(ltl::parse_formula("G alarmlo"));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->holds);
}

TEST(StaticProver, BatchResolvesMixedSpecs) {
  // One provable spec and one the prover refuses: the batch must resolve
  // the first statically and still explore for the second.
  const FtsSpec spec = fts::symbolic_ring(2);
  const fts::Fts sys = spec.build();
  const fts::AtomMap atoms = spec.atoms();
  std::vector<ltl::Formula> specs;
  specs.push_back(ltl::parse_formula("G alarmlo"));
  specs.push_back(ltl::parse_formula("F token1hi"));
  fts::CheckOptions opts;
  opts.static_prover = make_static_prover(spec);
  const auto results = fts::check_all(sys, specs, atoms, opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stats.engine, fts::CheckEngine::StaticProof);
  EXPECT_EQ(results[0].stats.state_graph_nodes, 0u);
  EXPECT_TRUE(results[0].holds);
  EXPECT_NE(results[1].stats.engine, fts::CheckEngine::StaticProof);
  EXPECT_GT(results[1].stats.state_graph_nodes, 0u);
}

TEST(StaticProver, EmitsMphV005) {
  const FtsSpec spec = fts::symbolic_dining(2);
  const fts::Fts sys = spec.build();
  DiagnosticEngine engine;
  fts::CheckOptions opts;
  opts.static_prover = make_static_prover(spec);
  opts.diagnostics = &engine;
  std::vector<ltl::Formula> specs{ltl::parse_formula("G alarmlo")};
  fts::check_all(sys, specs, spec.atoms(), opts);
  EXPECT_EQ(engine.count_code("MPH-V005"), 1u);
}

TEST(Absint, JsonShape) {
  const std::string doc = to_json(analyze_intervals(fts::symbolic_dining(2)));
  EXPECT_NE(doc.find("\"invariants\""), std::string::npos);
  EXPECT_NE(doc.find("\"transitions\""), std::string::npos);
  EXPECT_NE(doc.find("\"dead_count\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"tightened_count\": 1"), std::string::npos);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
}

}  // namespace
}  // namespace mph::analysis
