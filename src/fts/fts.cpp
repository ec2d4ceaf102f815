#include "src/fts/fts.hpp"

#include <chrono>
#include <deque>

#include "src/support/flat_hash.hpp"

namespace mph::fts {

std::size_t Fts::add_var(std::string name, int lo, int hi, int init) {
  MPH_REQUIRE(lo <= hi, "empty variable domain");
  MPH_REQUIRE(init >= lo && init <= hi, "initial value outside domain");
  MPH_REQUIRE(!var_index_.contains(name), "duplicate variable: " + name);
  var_index_.emplace(name, vars_.size());
  vars_.push_back(Var{std::move(name), lo, hi});
  init_.push_back(init);
  return vars_.size() - 1;
}

std::size_t Fts::add_transition(std::string name, Fairness fairness,
                                std::function<bool(const Valuation&)> guard,
                                std::function<void(Valuation&)> effect) {
  MPH_REQUIRE(guard && effect, "guard and effect must be callable");
  transitions_.push_back(Transition{std::move(name), fairness, std::move(guard),
                                    std::move(effect)});
  return transitions_.size() - 1;
}

const std::string& Fts::var_name(std::size_t v) const {
  MPH_REQUIRE(v < vars_.size(), "variable index out of range");
  return vars_[v].name;
}

int Fts::var_lo(std::size_t v) const {
  MPH_REQUIRE(v < vars_.size(), "variable index out of range");
  return vars_[v].lo;
}

int Fts::var_hi(std::size_t v) const {
  MPH_REQUIRE(v < vars_.size(), "variable index out of range");
  return vars_[v].hi;
}

const std::string& Fts::transition_name(std::size_t t) const {
  MPH_REQUIRE(t < transitions_.size(), "transition index out of range");
  return transitions_[t].name;
}

Fairness Fts::transition_fairness(std::size_t t) const {
  MPH_REQUIRE(t < transitions_.size(), "transition index out of range");
  return transitions_[t].fairness;
}

std::size_t Fts::var_index(std::string_view name) const {
  auto it = var_index_.find(name);
  MPH_REQUIRE(it != var_index_.end(), "unknown variable: " + std::string(name));
  return it->second;
}

bool Fts::enabled(std::size_t t, const Valuation& v) const {
  MPH_REQUIRE(t < transitions_.size(), "transition index out of range");
  return transitions_[t].guard(v);
}

Valuation Fts::apply(std::size_t t, const Valuation& v) const {
  MPH_REQUIRE(t < transitions_.size(), "transition index out of range");
  MPH_REQUIRE(transitions_[t].guard(v), "transition not enabled");
  Valuation out = v;
  transitions_[t].effect(out);
  MPH_REQUIRE(out.size() == vars_.size(), "effect changed the number of variables");
  for (std::size_t i = 0; i < out.size(); ++i)
    MPH_REQUIRE(out[i] >= vars_[i].lo && out[i] <= vars_[i].hi,
                "effect drove " + vars_[i].name + " outside its domain");
  return out;
}

namespace {

/// Hash of a (valuation, last-taken) state-graph key.
struct NodeKeyHash {
  std::uint64_t operator()(const std::pair<Valuation, int>& k) const {
    return hash_combine(hash_range(k.first),
                        static_cast<std::uint64_t>(static_cast<std::int64_t>(k.second)));
  }
};

/// The BFS behind `explore`: fills `res` and returns as soon as the budget
/// refuses a node or the deadline passes.
void bfs(const Fts& system, const Budget& budget, ExploreResult& res) {
  StateGraph& g = res.graph;
  FlatInterner<std::pair<Valuation, int>, NodeKeyHash> index;
  std::deque<std::size_t> queue;
  // Nodes enter the BFS queue exactly once, when first interned. Returns
  // nullopt when the budget refuses the new node; the caller stops exploring
  // immediately, so the interner's dangling key is never observed.
  auto intern = [&](Valuation v, int last) -> std::optional<std::size_t> {
    auto [idx, inserted] = index.intern({std::move(v), last});
    if (inserted) {
      if (Outcome o = budget.admit(g.nodes.size()); !is_complete(o)) {
        res.outcome = o;
        return std::nullopt;
      }
      g.nodes.push_back(StateGraph::Node{index[idx].first, last});
      g.edges.emplace_back();
      g.enabled.emplace_back();
      g.stutters.push_back(false);
      queue.push_back(idx);
    }
    return idx;
  };
  if (!intern(system.initial_valuation(), StateGraph::kNone)) return;
  while (!queue.empty()) {
    if (Outcome o = budget.poll(); !is_complete(o)) {
      res.outcome = o;
      return;
    }
    std::size_t n = queue.front();
    queue.pop_front();
    const Valuation v = g.nodes[n].valuation;
    std::vector<bool> en(system.transition_count(), false);
    bool any = false;
    for (std::size_t t = 0; t < system.transition_count(); ++t) {
      en[t] = system.enabled(t, v);
      if (!en[t]) continue;
      any = true;
      std::optional<std::size_t> target = intern(system.apply(t, v), static_cast<int>(t));
      if (!target) return;
      g.edges[n].push_back({*target, t});
    }
    g.enabled[n] = std::move(en);
    if (!any) {
      // Terminal state: stutter forever.
      g.edges[n].push_back({n, static_cast<std::size_t>(-1)});
      g.stutters[n] = true;
    }
  }
}

}  // namespace

ExploreResult explore(const Fts& system, const Budget& budget) {
  const auto start = std::chrono::steady_clock::now();
  ExploreResult res;
  bfs(system, budget, res);
  res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return res;
}

Outcome outcome_under_cap(const ExploreResult& ex, std::size_t cap) {
  return ex.graph.nodes.size() > cap ? Outcome::BudgetStates : ex.outcome;
}

AtomFn var_equals(const Fts& system, std::string_view var, int value) {
  std::size_t idx = system.var_index(var);
  return [idx, value](const Fts&, const Valuation& v, int) { return v[idx] == value; };
}

AtomFn var_at_least(const Fts& system, std::string_view var, int value) {
  std::size_t idx = system.var_index(var);
  return [idx, value](const Fts&, const Valuation& v, int) { return v[idx] >= value; };
}

AtomFn taken(std::size_t transition) {
  return [transition](const Fts&, const Valuation&, int last) {
    return last == static_cast<int>(transition);
  };
}

AtomFn enabled_atom(std::size_t transition) {
  return [transition](const Fts& sys, const Valuation& v, int) {
    return sys.enabled(transition, v);
  };
}

AtomFn deadlocked() {
  return [](const Fts& sys, const Valuation& v, int) {
    for (std::size_t t = 0; t < sys.transition_count(); ++t)
      if (sys.enabled(t, v)) return false;
    return true;
  };
}

}  // namespace mph::fts
