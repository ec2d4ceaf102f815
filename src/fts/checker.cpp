#include "src/fts/checker.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <thread>

#include "src/ltl/hierarchy.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/syntactic.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/emptiness.hpp"
#include "src/omega/graph.hpp"
#include "src/omega/nba.hpp"
#include "src/support/check.hpp"
#include "src/support/flat_hash.hpp"

namespace mph::fts {

using omega::Acceptance;
using omega::Mark;
using omega::MarkedGraph;
using omega::MarkSet;

std::string_view to_string(CheckEngine e) {
  switch (e) {
    case CheckEngine::Scc: return "SCC";
    case CheckEngine::SafetyPrefix: return "safety-prefix";
    case CheckEngine::GuaranteeDual: return "guarantee-dual";
    case CheckEngine::StaticProof: return "static";
  }
  MPH_ASSERT(false);
}

std::string_view to_string(ClassSource s) {
  switch (s) {
    case ClassSource::None: return "none";
    case ClassSource::Syntactic: return "syntactic";
    case ClassSource::Normalized: return "normalized";
  }
  MPH_ASSERT(false);
}

std::string Counterexample::to_string(const Fts& system) const {
  std::ostringstream out;
  auto emit = [&](const Valuation& v) {
    out << "  ";
    for (std::size_t i = 0; i < v.size(); ++i)
      out << (i ? " " : "") << system.var_name(i) << "=" << v[i];
    out << "\n";
  };
  out << "prefix:\n";
  for (const auto& v : prefix) emit(v);
  out << "loop (repeats forever):\n";
  for (const auto& v : loop) emit(v);
  return out.str();
}

namespace {

using Clock = std::chrono::steady_clock;

double elapsed(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// 64-bit product keys: state-graph node in the high half, automaton state
/// in the low half.
constexpr std::uint64_t pack(std::size_t n, omega::State q) {
  return (static_cast<std::uint64_t>(n) << 32) | q;
}
constexpr std::size_t node_of(std::uint64_t key) { return key >> 32; }
constexpr omega::State aut_of(std::uint64_t key) {
  return static_cast<omega::State>(key & 0xffffffffu);
}

/// Acceptance marks available to a product: the width of MarkSet.
constexpr std::size_t kMarkLimit = 64;

/// Fairness marks: one per weak transition ("ok": disabled or just taken),
/// two per strong transition (taken / enabled). ¬spec marks are shifted
/// past them. The frame depends only on the system, so a batch shares it;
/// the per-node marks are computed on first use, by the first spec that
/// reaches the ω-product (safety-prefix and static verdicts never read
/// them). Both accessors require mark_count() <= kMarkLimit.
class FairnessFrame {
 public:
  FairnessFrame(const Fts& system, const StateGraph& sg) : sg_(sg) {
    for (std::size_t t = 0; t < system.transition_count(); ++t) {
      if (system.transition_fairness(t) == Fairness::Weak) weak_.push_back(t);
      if (system.transition_fairness(t) == Fairness::Strong) strong_.push_back(t);
    }
  }

  std::size_t mark_count() const { return weak_.size() + 2 * strong_.size(); }

  /// The fairness conjuncts: Inf(ok) per weak transition, Inf(taken) ∨
  /// Fin(enabled) per strong one.
  Acceptance acceptance() const {
    Acceptance acc = Acceptance::t();
    for (std::size_t i = 0; i < weak_.size(); ++i)
      acc = Acceptance::conj(std::move(acc), Acceptance::inf(weak_mark(i)));
    for (std::size_t i = 0; i < strong_.size(); ++i)
      acc = Acceptance::conj(std::move(acc),
                             Acceptance::disj(Acceptance::inf(taken_mark(i)),
                                              Acceptance::fin(taken_mark(i) + 1)));
    return acc;
  }

  const std::vector<MarkSet>& node_marks() const {
    std::call_once(once_, [this] {
      node_marks_.assign(sg_.nodes.size(), 0);
      for (std::size_t n = 0; n < sg_.nodes.size(); ++n) {
        const int last = sg_.nodes[n].last_taken;
        MarkSet& marks = node_marks_[n];
        for (std::size_t i = 0; i < weak_.size(); ++i)
          if (!sg_.enabled[n][weak_[i]] || last == static_cast<int>(weak_[i]))
            marks |= omega::mark_bit(weak_mark(i));
        for (std::size_t i = 0; i < strong_.size(); ++i) {
          if (last == static_cast<int>(strong_[i])) marks |= omega::mark_bit(taken_mark(i));
          if (sg_.enabled[n][strong_[i]]) marks |= omega::mark_bit(taken_mark(i) + 1);
        }
      }
    });
    return node_marks_;
  }

 private:
  static Mark weak_mark(std::size_t i) { return static_cast<Mark>(i); }
  Mark taken_mark(std::size_t i) const { return static_cast<Mark>(weak_.size() + 2 * i); }

  const StateGraph& sg_;
  std::vector<std::size_t> weak_, strong_;
  mutable std::once_flag once_;
  mutable std::vector<MarkSet> node_marks_;
};

/// Atom labels computed once per state-graph node per vocabulary (the
/// product pairs every automaton state with node n — without the cache every
/// pairing re-evaluates all atoms on n).
std::vector<lang::Symbol> label_nodes(const Fts& system, const StateGraph& sg,
                                      const AtomMap& atoms,
                                      const std::vector<std::string>& atom_names) {
  std::vector<const AtomFn*> fns;
  fns.reserve(atom_names.size());
  for (const auto& name : atom_names) fns.push_back(&atoms.at(name));
  std::vector<lang::Symbol> labels(sg.nodes.size(), 0);
  for (std::size_t n = 0; n < sg.nodes.size(); ++n)
    for (std::size_t i = 0; i < fns.size(); ++i)
      if ((*fns[i])(system, sg.nodes[n].valuation, sg.nodes[n].last_taken))
        labels[n] |= lang::Symbol{1} << i;
  return labels;
}

/// The ¬spec automaton as one flat successor table indexed by state ×
/// symbol: the successors of q on s are succ[row[q·symbols + s] ..
/// row[q·symbols + s + 1]). State marks are stored already shifted past the
/// fairness marks.
struct NegSpec {
  std::vector<omega::State> initial;
  std::size_t symbols = 0;
  std::vector<std::uint32_t> row{0};
  std::vector<omega::State> succ;
  std::vector<MarkSet> marks;

  std::size_t state_count() const { return marks.size(); }
  std::span<const omega::State> next(omega::State q, lang::Symbol s) const {
    const std::size_t r = q * symbols + s;
    return {succ.data() + row[r], succ.data() + row[r + 1]};
  }
  /// Appends the successors of state q; `edges` lists (symbol, target)
  /// sorted by symbol.
  void add_row(const std::vector<std::pair<lang::Symbol, omega::State>>& edges) {
    std::size_t i = 0;
    for (lang::Symbol s = 0; s < symbols; ++s) {
      while (i < edges.size() && edges[i].first == s) succ.push_back(edges[i++].second);
      row.push_back(static_cast<std::uint32_t>(succ.size()));
    }
  }
};

/// Table of a deterministic ¬spec automaton. For the guarantee dual
/// (`live` set) the dead states are dropped and their marks ignored: the
/// accepting runs are exactly those that stay live.
NegSpec tabulate(const omega::DetOmega& m, Mark shift, const std::vector<bool>* live) {
  NegSpec neg;
  neg.symbols = m.alphabet().size();
  if (!live || (*live)[m.initial()]) neg.initial = {m.initial()};
  const MarkSet used = live ? 0 : m.acceptance().mentioned_marks();
  std::vector<std::pair<lang::Symbol, omega::State>> edges;
  for (omega::State q = 0; q < m.state_count(); ++q) {
    edges.clear();
    for (lang::Symbol s = 0; s < neg.symbols; ++s)
      if (!live || (*live)[m.next(q, s)]) edges.emplace_back(s, m.next(q, s));
    neg.add_row(edges);
    neg.marks.push_back(used ? (m.marks(q) & used) << shift : 0);
  }
  return neg;
}

/// Table of the ¬spec NBA tableau; its Büchi mark becomes mark `shift`.
NegSpec tabulate(const omega::Nba& n, Mark shift) {
  NegSpec neg;
  neg.symbols = n.alphabet().size();
  neg.initial = n.initial_states();
  for (omega::State q = 0; q < n.state_count(); ++q) {
    auto edges = n.edges(q);
    std::stable_sort(edges.begin(), edges.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    neg.add_row(edges);
    neg.marks.push_back(n.accepting(q) ? omega::mark_bit(shift) : 0);
  }
  return neg;
}

/// Shortest path of at least one edge from `from` to a state satisfying
/// `goal`, moving only through states in `within`: [from, …, goal].
std::vector<omega::State> shortest_path(const MarkedGraph& g, omega::State from,
                                        const std::vector<bool>& within, auto goal) {
  constexpr omega::State kNone = ~omega::State{0};
  std::vector<omega::State> parent(g.size(), kNone);
  std::deque<omega::State> queue{from};
  while (!queue.empty()) {
    const omega::State u = queue.front();
    queue.pop_front();
    for (omega::State v : g.succ[u]) {
      if (!within[v]) continue;
      if (goal(v)) {
        std::vector<omega::State> path{v};
        for (omega::State c = u; c != from; c = parent[c]) path.push_back(c);
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
      }
      if (v == from || parent[v] != kNone) continue;
      parent[v] = u;
      queue.push_back(v);
    }
  }
  MPH_ASSERT(false);  // callers ask only for paths that exist
}

/// A lasso in `g` from state 0 around the loop set `in_loop` (a strongly
/// connected set): the stem is a shortest path to the set, the cycle stays
/// inside it and passes a state carrying each of its marks, chained from
/// shortest paths. The cycle sees exactly the marks of the set, so it is
/// accepting whenever the set is. Returns (stem, cycle); the stem excludes
/// the cycle's first state.
std::pair<std::vector<omega::State>, std::vector<omega::State>> lasso_in(
    const MarkedGraph& g, const std::vector<bool>& in_loop) {
  std::vector<omega::State> stem, cycle;
  omega::State anchor = 0;
  if (!in_loop[0]) {
    stem = shortest_path(g, 0, std::vector<bool>(g.size(), true),
                         [&](omega::State v) { return in_loop[v]; });
    anchor = stem.back();
    stem.pop_back();
  }
  std::vector<omega::State> goals;
  MarkSet unseen = 0;
  for (omega::State q = 0; q < g.size(); ++q)
    if (in_loop[q]) unseen |= g.marks[q];
  for (omega::State q = 0; q < g.size() && unseen; ++q)
    if (in_loop[q] && (g.marks[q] & unseen)) {
      goals.push_back(q);
      unseen &= ~g.marks[q];
    }
  goals.push_back(anchor);
  omega::State cur = anchor;
  for (std::size_t i = 0; i < goals.size(); ++i) {
    if (goals[i] == cur && i + 1 < goals.size()) continue;
    auto piece = shortest_path(g, cur, in_loop, [&](omega::State v) { return v == goals[i]; });
    cycle.insert(cycle.end(), piece.begin(), piece.end() - 1);
    cur = goals[i];
  }
  return {std::move(stem), std::move(cycle)};
}

/// On-the-fly emptiness of the product state graph × ¬spec automaton: one
/// iterative Tarjan search in Couvreur's style. Pairs are interned lazily,
/// the state cap enforced at every intern, and the automaton reads the
/// label of the source node on each step. Each root of the SCC stack
/// carries the marks of the (partial) component it heads; back edges fold
/// roots together and OR their marks, and the search stops as soon as a
/// component's marks satisfy the acceptance, read with Fin(m) as "m not in
/// the set". A component that closes with Fin atoms still undecided goes,
/// alone, to omega::find_good_loop. Successors are recomputed, never
/// stored.
class ProductSearch {
 public:
  /// Product pairs (indices into the interner) of a violating lasso.
  struct Lasso {
    std::vector<std::uint32_t> prefix, loop;
  };

  ProductSearch(const StateGraph& sg, const std::vector<lang::Symbol>& labels,
                const std::vector<MarkSet>& fair_marks, const NegSpec& neg, Acceptance acc,
                const Budget& budget)
      : sg_(sg),
        labels_(labels),
        fair_marks_(fair_marks),
        neg_(neg),
        acc_(std::move(acc)),
        budget_(budget) {}

  /// Some accepting product lasso, or nullopt when every fair computation
  /// satisfies the spec.
  std::optional<Lasso> run() {
    for (omega::State q0 : neg_.initial) {
      const std::uint32_t start = intern(0, q0);
      if (index_[start] != kUnvisited) continue;
      push(start);
      while (!frames_.empty()) {
        poll_budget();
        if (auto t = next_successor(frames_.back())) {
          if (index_[*t] == kUnvisited) {
            push(*t);
          } else if (index_[*t] != kDead) {
            // Back edge into the live stack: every root above the target
            // joins the target's component.
            MarkSet folded = 0;
            while (roots_.back().index > index_[*t]) {
              folded |= roots_.back().marks;
              roots_.pop_back();
            }
            Root& r = roots_.back();
            const bool grew = !r.cyclic || (folded & ~r.marks) != 0;
            r.marks |= folded;
            r.cyclic = true;
            if (grew && acc_.eval(r.marks)) {
              // A loop through the whole open component sees these marks.
              const MarkedGraph g = component(r.index - 1);
              return lasso(r.index - 1, g, std::vector<bool>(g.size(), true));
            }
          }
          continue;
        }
        const std::uint32_t pid = frames_.back().pid;
        frames_.pop_back();
        if (roots_.back().index != index_[pid]) continue;  // its component is still open
        const Root r = roots_.back();
        roots_.pop_back();
        const std::size_t base = r.index - 1;
        if (r.cyclic)
          if (auto lasso = refine(base, r.marks)) return lasso;
        for (std::size_t i = base; i < live_.size(); ++i) index_[live_[i]] = kDead;
        live_.resize(base);
      }
    }
    return std::nullopt;
  }

  /// Distinct (node, automaton state) pairs interned so far.
  std::size_t product_states() const { return pids_.size(); }

  std::size_t node_of_pid(std::uint32_t pid) const { return node_of(pids_[pid]); }

 private:
  // index_[pid]: 1 + position on the live stack, or one of these.
  static constexpr std::uint32_t kUnvisited = 0, kDead = ~std::uint32_t{0};

  struct Frame {
    std::uint32_t pid;
    std::uint32_t qi = 0;  // next automaton successor
    std::uint32_t ei = 0;  // next state-graph edge
  };
  struct Root {
    std::uint32_t index;  // index_ of the component's first state
    MarkSet marks;        // union over the component so far
    bool cyclic;          // the component holds an edge, so a loop
  };

  std::uint32_t intern(std::size_t n, omega::State q) {
    auto [idx, inserted] = pids_.intern(pack(n, q));
    if (inserted) {
      // The pair is already in the interner, but on exhaustion the whole
      // search unwinds immediately, so the extra key is never observed.
      budget_.require(pids_.size() - 1);
      index_.push_back(kUnvisited);
    }
    return static_cast<std::uint32_t>(idx);
  }

  /// Deadline/cancellation poll amortized over the search steps (the state
  /// cap is enforced exactly at every intern; the clock is read every 4096
  /// steps).
  void poll_budget() {
    if ((++steps_ & 0xFFFu) != 0) return;
    if (Outcome o = budget_.poll(); !is_complete(o)) throw BudgetExhausted(o);
  }

  MarkSet marks_of(std::uint32_t pid) const {
    return fair_marks_[node_of(pids_[pid])] | neg_.marks[aut_of(pids_[pid])];
  }

  void push(std::uint32_t pid) {
    live_.push_back(pid);
    index_[pid] = static_cast<std::uint32_t>(live_.size());
    roots_.push_back({index_[pid], marks_of(pid), false});
    frames_.push_back({pid});
  }

  /// The frame's next product successor, interned; nullopt when exhausted.
  std::optional<std::uint32_t> next_successor(Frame& f) {
    const std::size_t n = node_of(pids_[f.pid]);
    const auto qs = neg_.next(aut_of(pids_[f.pid]), labels_[n]);
    const auto& edges = sg_.edges[n];
    if (f.qi >= qs.size() || edges.empty()) return std::nullopt;
    const omega::State q2 = qs[f.qi];
    const std::size_t target = edges[f.ei].first;
    if (++f.ei == edges.size()) {
      f.ei = 0;
      ++f.qi;
    }
    return intern(target, q2);
  }

  /// The live states from position `base` up, as a graph on their own:
  /// state i is live_[base + i]; edges leaving the set are dropped.
  MarkedGraph component(std::size_t base) const {
    MarkedGraph g;
    const std::size_t k = live_.size() - base;
    g.succ.resize(k);
    g.marks.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t pid = live_[base + i];
      const std::size_t n = node_of(pids_[pid]);
      g.marks[i] = marks_of(pid);
      for (omega::State q2 : neg_.next(aut_of(pids_[pid]), labels_[n]))
        for (auto [target, t] : sg_.edges[n]) {
          (void)t;
          const std::size_t s = pids_.find(pack(target, q2));
          if (s == pids_.size() || index_[s] <= base || index_[s] == kDead) continue;
          g.succ[i].push_back(static_cast<omega::State>(index_[s] - 1 - base));
        }
      std::sort(g.succ[i].begin(), g.succ[i].end());
      g.succ[i].erase(std::unique(g.succ[i].begin(), g.succ[i].end()), g.succ[i].end());
    }
    return g;
  }

  /// A closed component whose marks as a whole do not satisfy the
  /// acceptance: with Fin atoms undecided some smaller loop inside may.
  std::optional<Lasso> refine(std::size_t base, MarkSet marks) const {
    const Acceptance phi = acc_.restrict_to(marks);
    if (phi.is_false() || phi.fin_marks() == 0) return std::nullopt;
    const MarkedGraph g = component(base);
    const auto loop = omega::find_good_loop(g, phi);
    if (!loop) return std::nullopt;
    std::vector<bool> in_loop(g.size(), false);
    for (omega::State q : *loop) in_loop[q] = true;
    return lasso(base, g, in_loop);
  }

  /// A lasso through the component from live position `base` (graph `g`)
  /// around its loop set. The prefix is the DFS stack below the
  /// component's first state: all of it once that state's frame is popped.
  Lasso lasso(std::size_t base, const MarkedGraph& g, const std::vector<bool>& in_loop) const {
    Lasso out;
    for (const Frame& f : frames_) {
      if (f.pid == live_[base]) break;
      out.prefix.push_back(f.pid);
    }
    auto [stem, cycle] = lasso_in(g, in_loop);
    for (omega::State i : stem) out.prefix.push_back(live_[base + i]);
    for (omega::State i : cycle) out.loop.push_back(live_[base + i]);
    return out;
  }

  const StateGraph& sg_;
  const std::vector<lang::Symbol>& labels_;
  const std::vector<MarkSet>& fair_marks_;
  const NegSpec& neg_;
  const Acceptance acc_;
  const Budget& budget_;
  std::uint64_t steps_ = 0;
  FlatInterner<std::uint64_t, IntHash> pids_;
  std::vector<std::uint32_t> index_;  // per pid
  std::vector<std::uint32_t> live_;   // Tarjan stack: visited, component still open
  std::vector<Root> roots_;
  std::vector<Frame> frames_;  // DFS stack
};

/// Label cache shared by every spec over the same atom vocabulary.
struct LabelCache {
  lang::Alphabet alphabet;
  std::vector<lang::Symbol> labels;
  double seconds = 0.0;
};

/// Checks one compiled spec against an explored state graph. The caller
/// provides the shared phases (exploration, fairness frame, labels); this
/// runs compilation and the emptiness search and fills the per-spec stats.
/// `diagnostics` overrides options.diagnostics (the batch hands each worker
/// a private engine).
CheckResult check_one(const StateGraph& sg, const FairnessFrame& fair, const LabelCache& cache,
                      const ltl::Formula& spec, const Budget& budget,
                      const CheckOptions& options, analysis::DiagnosticEngine* diagnostics) {
  const std::string subject = "check '" + spec.to_string() + "'";
  CheckResult result;
  result.stats.state_graph_nodes = sg.nodes.size();
  MPH_ASSERT(sg.nodes.size() < (std::uint64_t{1} << 32));  // product keys pack into 64 bits

  // Budget exhaustion ends the check with an *unknown* verdict: record the
  // outcome, report MPH-V004, and leave holds == false with no witness.
  auto give_up = [&](Outcome o, const std::string& phase) {
    result.outcome = result.stats.outcome = o;
    result.holds = false;
    result.counterexample.reset();
    if (diagnostics) {
      auto& d = diagnostics->emit(
          "MPH-V004", subject,
          "budget exhausted (" + std::string(to_string(o)) + ") during " + phase +
              " after " + std::to_string(result.stats.product_states) +
              " product state(s); verdict unknown");
      d.fix_hint = "raise CheckOptions::budget (state cap / deadline) or simplify "
                   "the model or specification";
    }
  };

  const bool dispatch = options.class_dispatch;
  core::Classification syn =
      dispatch ? ltl::syntactic_classification(spec) : core::Classification{};
  result.stats.class_source = dispatch ? ClassSource::Syntactic : ClassSource::None;

  // ΔΓ-normalization rescue (lazy, memoized, budget-capped): a completed
  // hierarchy normal form is an equivalent formula that (a) the syntactic
  // rules classify sharply and (b) always compiles deterministically. It is
  // consulted when the spec as written shows neither shortcut class, and
  // again whenever a compile below falls out of the old rewrite fragment.
  bool norm_tried = false;
  std::optional<ltl::Formula> normal;
  auto get_normal = [&]() -> const std::optional<ltl::Formula>& {
    if (!norm_tried && options.class_dispatch && options.normalize_steps > 0) {
      norm_tried = true;
      ltl::NormalizeOptions nopt;
      nopt.budget = Budget().with_state_cap(options.normalize_steps);
      ltl::NormalizeResult nr = ltl::normalize(spec, nopt);
      result.stats.normalize_steps = nr.steps;
      if (nr.complete()) normal = nr.form;
    }
    return normal;
  };

  ltl::Formula routed = spec;
  if (dispatch && !syn.safety && !syn.guarantee && get_normal()) {
    core::Classification exact = ltl::syntactic_classification(*normal);
    if (exact.safety || exact.guarantee) {
      syn = exact;
      routed = *normal;
      result.stats.class_source = ClassSource::Normalized;
    }
  }

  // Deterministic compilation of `f` (negated when `negate`). Outside the
  // old rewrite fragment the ΔΓ-normal form, when one was obtained, gets a
  // second chance: it is an equivalent hierarchy form (and so is its
  // negation), so it compiles, usually to a smaller automaton.
  auto compile_det = [&](const ltl::Formula& f, bool negate) -> std::optional<omega::DetOmega> {
    try {
      return ltl::compile(negate ? f_not(f) : f, cache.alphabet);
    } catch (const std::invalid_argument&) {
    }
    if (get_normal() && !(f == *normal)) try {
      auto m = ltl::compile(negate ? f_not(*normal) : *normal, cache.alphabet);
      result.stats.class_source = ClassSource::Normalized;
      return m;
    } catch (const std::invalid_argument&) {
    }
    return std::nullopt;
  };

  // Class shortcut 1 — syntactically-safety spec: det(spec) recognizes a
  // closed language, so a run is accepting iff it never enters a
  // residual-empty ("dead") state, and a computation violates the spec iff
  // some finite prefix already drives the automaton dead. Fairness drops out
  // entirely: transition fairness is machine-closed (every finite run of a
  // finite FTS extends to a fair computation — schedule enabled fair
  // transitions round-robin; stutter self-loops exist only where nothing is
  // enabled), so a bad prefix is reachable on a fair computation iff it is
  // reachable at all. Plain BFS over node × automaton pairs decides it.
  if (dispatch && syn.safety) {
    auto t_compile = Clock::now();
    const std::optional<omega::DetOmega> m = compile_det(routed, false);
    if (m) {  // otherwise fall through to the ω-engine
      result.stats.compile_seconds = elapsed(t_compile);
      result.stats.automaton_states = m->state_count();
      result.stats.product_bound = sg.nodes.size() * m->state_count();
      result.stats.engine = CheckEngine::SafetyPrefix;
      auto t_search = Clock::now();
      const std::vector<bool> live = omega::live_states(*m);
      FlatInterner<std::uint64_t, IntHash> pids;
      std::vector<std::int64_t> parent;  // per pid: BFS predecessor, -1 at the root
      std::deque<std::uint32_t> queue;
      auto intern = [&](std::size_t n, omega::State q, std::int64_t par) {
        auto [idx, inserted] = pids.intern(pack(n, q));
        if (inserted) {
          budget.require(pids.size() - 1);
          parent.push_back(par);
          queue.push_back(static_cast<std::uint32_t>(idx));
        }
      };
      std::optional<std::uint32_t> bad;
      try {
        intern(0, m->initial(), -1);
        while (!queue.empty()) {
          const std::uint32_t p = queue.front();
          queue.pop_front();
          const std::uint64_t key = pids[p];
          const std::size_t n = node_of(key);
          const omega::State q = aut_of(key);
          if (!live[q]) {
            bad = p;  // dead states are closed under successors; stop here
            break;
          }
          const omega::State q2 = m->next(q, cache.labels[n]);
          for (auto [target, t] : sg.edges[n]) {
            (void)t;
            intern(target, q2, static_cast<std::int64_t>(p));
          }
        }
      } catch (const BudgetExhausted& e) {
        result.product_states = result.stats.product_states = pids.size();
        result.stats.search_seconds = elapsed(t_search);
        give_up(e.outcome(), "the closed-prefix reachability scan");
        return result;
      }
      result.product_states = result.stats.product_states = pids.size();
      result.stats.search_seconds = elapsed(t_search);
      if (diagnostics)
        diagnostics->emit(
            "MPH-V002", subject,
            "product of " + std::to_string(sg.nodes.size()) + " system states × " +
                std::to_string(m->state_count()) + "-state det(spec) automaton scanned " +
                std::to_string(result.stats.product_states) + " of at most " +
                std::to_string(result.stats.product_bound) +
                " states (closed-prefix reachability; no ω-product)");
      if (!bad) {
        result.holds = true;
        return result;
      }
      result.holds = false;
      // Witness: the bad prefix, extended by an arbitrary cycle into a full
      // computation (every node has a successor; deadlocks stutter). Any
      // extension of a bad prefix violates a closed property, and by machine
      // closure some *fair* computation shares this prefix.
      std::vector<std::size_t> path_nodes;
      for (std::int64_t p = static_cast<std::int64_t>(*bad); p >= 0; p = parent[p])
        path_nodes.push_back(node_of(pids[static_cast<std::size_t>(p)]));
      std::reverse(path_nodes.begin(), path_nodes.end());
      Counterexample cex;
      for (std::size_t n : path_nodes) cex.prefix.push_back(sg.nodes[n].valuation);
      std::vector<std::int64_t> seen_at(sg.nodes.size(), -1);
      std::vector<std::size_t> walk{path_nodes.back()};
      seen_at[walk[0]] = 0;
      for (;;) {
        const std::size_t next = sg.edges[walk.back()].front().first;
        if (seen_at[next] >= 0) {
          // Computation: prefix ++ walk[1..] ++ (walk[j..])^ω where j is
          // where the walk re-entered itself.
          for (std::size_t i = 1; i < walk.size(); ++i)
            cex.prefix.push_back(sg.nodes[walk[i]].valuation);
          for (std::size_t i = static_cast<std::size_t>(seen_at[next]); i < walk.size(); ++i)
            cex.loop.push_back(sg.nodes[walk[i]].valuation);
          break;
        }
        seen_at[next] = static_cast<std::int64_t>(walk.size());
        walk.push_back(next);
      }
      result.counterexample = std::move(cex);
      if (diagnostics) {
        auto& d = diagnostics->emit("MPH-V003", subject,
                                    "a computation violates the specification");
        d.witness = "bad prefix of " + std::to_string(result.counterexample->prefix.size()) +
                    " state(s) (closed-prefix scan)";
      }
      return result;
    }
  }

  // Compile ¬spec: for a syntactically-guarantee spec under class dispatch,
  // det(¬spec) recognizes a *closed* language (shortcut 2): restrict it to
  // its live states and acceptance becomes ⊤ — the search degrades to a
  // fairness-only lasso hunt instead of inheriting the Fin-shaped
  // acceptance. Otherwise: deterministic route first, NBA tableau as
  // fallback.
  auto t_compile = Clock::now();
  std::optional<omega::DetOmega> det;
  std::optional<omega::Nba> nba;
  bool dual = false;
  if (dispatch && !syn.safety && syn.guarantee) {
    det = compile_det(routed, true);
    dual = det.has_value();
  }
  if (!det) det = compile_det(spec, true);
  if (!det) {
    result.stats.nba_fallback = true;
    auto tableau = ltl::to_nba(f_not(spec), cache.alphabet, budget);
    if (!tableau.complete()) {
      result.stats.compile_seconds = elapsed(t_compile);
      give_up(tableau.outcome, "the ¬spec NBA tableau construction");
      return result;
    }
    nba.emplace(std::move(*tableau.value));
    if (diagnostics)
      diagnostics
          ->emit("MPH-V001", subject,
                 "¬spec is outside the deterministic hierarchy fragment; using the "
                 "NBA tableau (product acceptance stays Büchi-shaped)")
          .fix_hint = "rewriting the specification into hierarchy form gives a "
                      "deterministic, usually smaller product";
  }

  // Product acceptance: the fairness marks first, the ¬spec marks shifted
  // past them, all in one MarkSet.
  const Acceptance neg_acc =
      dual ? Acceptance::t() : det ? det->acceptance() : Acceptance::buchi(0);
  const auto neg_marks = static_cast<std::size_t>(std::bit_width(neg_acc.mentioned_marks()));
  if (fair.mark_count() + neg_marks > kMarkLimit)
    throw std::invalid_argument(
        subject + ": the fair product needs " + std::to_string(fair.mark_count() + neg_marks) +
        " acceptance marks (" + std::to_string(fair.mark_count()) + " for fairness, " +
        std::to_string(neg_marks) + " for ¬spec), more than the limit of " +
        std::to_string(kMarkLimit));
  const Mark shift = static_cast<Mark>(fair.mark_count());
  std::vector<bool> live;
  if (dual) live = omega::live_states(*det);
  const NegSpec neg = det ? tabulate(*det, shift, dual ? &live : nullptr) : tabulate(*nba, shift);
  result.stats.compile_seconds = elapsed(t_compile);
  result.stats.automaton_states = neg.state_count();
  result.stats.product_bound = sg.nodes.size() * neg.state_count();
  result.stats.engine = dual ? CheckEngine::GuaranteeDual : CheckEngine::Scc;
  const Acceptance acc = Acceptance::conj(fair.acceptance(), neg_acc.shift(shift));

  auto emit_product_note = [&] {
    if (!diagnostics) return;
    diagnostics->emit(
        "MPH-V002", subject,
        "product of " + std::to_string(sg.nodes.size()) + " system states × " +
            std::to_string(neg.state_count()) + "-state ¬spec automaton built " +
            std::to_string(result.stats.product_states) + " of at most " +
            std::to_string(result.stats.product_bound) + " states (on-the-fly SCC search" +
            (dual ? "; guarantee dual, fairness-only acceptance" : "") + ")");
  };

  const std::vector<MarkSet>& fair_marks = fair.node_marks();
  auto t_search = Clock::now();
  ProductSearch search(sg, cache.labels, fair_marks, neg, acc, budget);
  std::optional<ProductSearch::Lasso> lasso;
  try {
    lasso = search.run();
  } catch (const BudgetExhausted& e) {
    result.product_states = result.stats.product_states = search.product_states();
    result.stats.search_seconds = elapsed(t_search);
    emit_product_note();
    give_up(e.outcome(), "the SCC product search");
    return result;
  }
  result.product_states = result.stats.product_states = search.product_states();
  result.stats.search_seconds = elapsed(t_search);
  emit_product_note();
  if (!lasso) {
    result.holds = true;
    return result;
  }
  result.holds = false;
  if (diagnostics) {
    auto& d = diagnostics->emit("MPH-V003", subject,
                                "a fair computation violates the specification");
    d.witness = "fair lasso through " + std::to_string(lasso->loop.size()) + " product state(s)";
  }
  Counterexample cex;
  for (std::uint32_t pid : lasso->prefix)
    cex.prefix.push_back(sg.nodes[search.node_of_pid(pid)].valuation);
  for (std::uint32_t pid : lasso->loop)
    cex.loop.push_back(sg.nodes[search.node_of_pid(pid)].valuation);
  result.counterexample = std::move(cex);
  return result;
}

std::vector<std::string> validated_atoms(const ltl::Formula& spec, const AtomMap& atoms) {
  // User input on the CLI and the wire: a plain refusal, no source location.
  auto atom_names = spec.atoms();
  if (atom_names.empty())
    throw std::invalid_argument("specification must mention at least one atom");
  for (const auto& name : atom_names)
    if (!atoms.contains(name))
      throw std::invalid_argument("specification atom not defined: " + name);
  return atom_names;
}

/// Exploration-free proofs: any spec the static prover certifies is done —
/// stamped StaticProof/Complete with zero states — before a single node is
/// expanded. Marks it in `resolved`; returns how many specs it settled.
std::size_t prove_statically(const std::vector<ltl::Formula>& specs, const AtomMap& atoms,
                             const CheckOptions& options, std::vector<CheckResult>& results,
                             std::vector<char>& resolved) {
  std::size_t n_resolved = 0;
  if (!options.static_prover) return n_resolved;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    validated_atoms(specs[i], atoms);  // same vocabulary contract as the engines
    auto proved = options.static_prover(specs[i]);
    if (!proved) continue;
    CheckResult r = std::move(*proved);
    MPH_REQUIRE(r.holds, "static_prover must only certify specs that hold");
    r.outcome = r.stats.outcome = Outcome::Complete;
    r.stats.engine = CheckEngine::StaticProof;
    r.stats.state_graph_nodes = 0;
    r.product_states = r.stats.product_states = r.stats.product_bound = 0;
    r.counterexample.reset();
    results[i] = std::move(r);
    resolved[i] = 1;
    ++n_resolved;
    if (options.diagnostics)
      options.diagnostics->emit("MPH-V005", specs[i].to_string(),
                                "proved from the interval invariant; 0 states explored");
  }
  return n_resolved;
}

/// Checks every spec not yet `resolved` against the explored graph `ex`,
/// read under the check's own state cap (outcome_under_cap).
void check_explored(const Fts& system, const ExploreResult& ex,
                    const std::vector<ltl::Formula>& specs, const AtomMap& atoms,
                    const CheckOptions& options, std::vector<CheckResult>& results,
                    const std::vector<char>& resolved) {
  const Budget budget = effective_budget(options);
  const Outcome explored = outcome_under_cap(ex, budget.state_cap());
  if (!is_complete(explored)) {
    // The shared exploration ran out of budget: every spec in the batch not
    // already proved statically gets the same unknown verdict, before any
    // worker thread starts — so the result (and the single MPH-V004) is
    // identical for threads == 1 and N.
    const std::size_t nodes = std::min(ex.graph.nodes.size(), budget.state_cap());
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (resolved[i]) continue;
      auto& r = results[i];
      r.outcome = r.stats.outcome = explored;
      r.stats.state_graph_nodes = nodes;
      r.stats.explore_seconds = ex.seconds;
    }
    if (options.diagnostics) {
      auto& d = options.diagnostics->emit(
          "MPH-V004", "state-graph exploration",
          "budget exhausted (" + std::string(to_string(explored)) + ") after " +
              std::to_string(nodes) + " system state(s); every spec in the batch is unverified");
      d.fix_hint = "raise CheckOptions::budget (state cap / deadline) or shrink "
                   "variable domains";
    }
    return;
  }
  const StateGraph& sg = ex.graph;
  const FairnessFrame fair(system, sg);

  std::map<std::vector<std::string>, LabelCache> caches;
  std::vector<const LabelCache*> cache_of(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (resolved[i]) continue;
    auto atom_names = validated_atoms(specs[i], atoms);
    auto it = caches.find(atom_names);
    if (it == caches.end()) {
      auto t_label = Clock::now();
      LabelCache cache{lang::Alphabet::of_props(atom_names),
                       label_nodes(system, sg, atoms, atom_names), 0.0};
      cache.seconds = elapsed(t_label);
      it = caches.emplace(std::move(atom_names), std::move(cache)).first;
    }
    cache_of[i] = &it->second;
  }

  auto run_one = [&](std::size_t i, analysis::DiagnosticEngine* engine) {
    CheckResult r = check_one(sg, fair, *cache_of[i], specs[i],
                              budget, options, engine);
    r.stats.explore_seconds = ex.seconds;
    r.stats.label_seconds = cache_of[i]->seconds;
    results[i] = std::move(r);
  };

  std::size_t threads = std::max<unsigned>(options.threads, 1);
  threads = std::min(threads, specs.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (!resolved[i]) run_one(i, options.diagnostics);
    return;
  }

  // Worker pool over independent specs. Each spec reports into its own
  // engine; merging in spec order afterwards keeps diagnostics deterministic.
  std::vector<analysis::DiagnosticEngine> engines(specs.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w)
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= specs.size()) return;
          if (resolved[i]) continue;
          try {
            run_one(i, &engines[i]);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
  }
  if (first_error) std::rethrow_exception(first_error);
  if (options.diagnostics)
    for (const auto& engine : engines) options.diagnostics->merge(engine);
}

}  // namespace

Budget effective_budget(const CheckOptions& options) {
  Budget budget = options.budget;
  if (!budget.has_state_cap()) budget.with_state_cap(kDefaultStateCap);
  return budget;
}

CheckResult check(const Fts& system, const ltl::Formula& spec, const AtomMap& atoms,
                  const CheckOptions& options) {
  return std::move(check_all(system, {spec}, atoms, options).front());
}

std::vector<CheckResult> check_all(const Fts& system, const ExploreResult& explored,
                                   const std::vector<ltl::Formula>& specs,
                                   const AtomMap& atoms, const CheckOptions& options) {
  std::vector<CheckResult> results(specs.size());
  std::vector<char> resolved(specs.size(), 0);
  if (prove_statically(specs, atoms, options, results, resolved) < specs.size())
    check_explored(system, explored, specs, atoms, options, results, resolved);
  return results;
}

std::vector<CheckResult> check_all(const Fts& system, const std::vector<ltl::Formula>& specs,
                                   const AtomMap& atoms, const CheckOptions& options) {
  std::vector<CheckResult> results(specs.size());
  std::vector<char> resolved(specs.size(), 0);
  if (prove_statically(specs, atoms, options, results, resolved) < specs.size())
    check_explored(system, explore(system, effective_budget(options)), specs, atoms, options,
                   results, resolved);
  return results;
}

}  // namespace mph::fts
