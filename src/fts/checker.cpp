#include "src/fts/checker.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <map>
#include <span>
#include <sstream>

#include "src/ltl/hierarchy.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/syntactic.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/det_omega.hpp"
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
/// the per-node marks are computed on first use, by the first spec whose
/// acceptance reads them (safety shapes and static verdicts do not). Both
/// accessors require mark_count() <= kMarkLimit.
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
    if (computed_) return node_marks_;
    computed_ = true;
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
    return node_marks_;
  }

 private:
  static Mark weak_mark(std::size_t i) { return static_cast<Mark>(i); }
  Mark taken_mark(std::size_t i) const { return static_cast<Mark>(weak_.size() + 2 * i); }

  const StateGraph& sg_;
  std::vector<std::size_t> weak_, strong_;
  mutable bool computed_ = false;
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
/// fairness marks. `universal[q]`: every word is accepted from q, so a
/// product run that reaches q violates the spec whatever follows.
struct NegSpec {
  std::vector<omega::State> initial;
  std::size_t symbols = 0;
  std::vector<std::uint32_t> row{0};
  std::vector<omega::State> succ;
  std::vector<MarkSet> marks;
  std::vector<bool> universal;

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

/// Table of a deterministic ¬spec automaton. Dead (residual-empty) states
/// are left out: no accepting run passes through one. Residual-universal
/// states are flagged. With `keep_marks` false the marks are dropped, for
/// the ⊥ and ⊤ acceptance shapes that read none.
NegSpec tabulate(const omega::DetOmega& m, Mark shift, bool keep_marks) {
  const std::vector<bool> live = omega::live_states(m);
  const std::vector<bool> escapable = omega::live_states(omega::complement(m));
  NegSpec neg;
  neg.symbols = m.alphabet().size();
  if (live[m.initial()]) neg.initial = {m.initial()};
  const MarkSet used = keep_marks ? m.acceptance().mentioned_marks() : 0;
  std::vector<std::pair<lang::Symbol, omega::State>> edges;
  for (omega::State q = 0; q < m.state_count(); ++q) {
    edges.clear();
    for (lang::Symbol s = 0; s < neg.symbols; ++s)
      if (live[m.next(q, s)]) edges.emplace_back(s, m.next(q, s));
    neg.add_row(edges);
    neg.marks.push_back(used ? (m.marks(q) & used) << shift : 0);
    neg.universal.push_back(!escapable[q]);
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
    neg.universal.push_back(false);
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
/// stored. Reaching a residual-universal ¬spec state stops the search at
/// once: the DFS stack is then a bad prefix.
class ProductSearch {
 public:
  /// Product pairs (indices into the interner) of a violating lasso. An
  /// empty loop means a bad prefix: its last pair holds a universal ¬spec
  /// state, and any fair continuation from its node completes the witness.
  struct Lasso {
    std::vector<std::uint32_t> prefix, loop;
  };

  /// Searches from state-graph node `start`. Under ⊥ acceptance no marks
  /// are read, and `fair_marks` may be empty.
  ProductSearch(const StateGraph& sg, const std::vector<lang::Symbol>& labels,
                const std::vector<MarkSet>& fair_marks, const NegSpec& neg, Acceptance acc,
                const Budget& budget, std::size_t start = 0)
      : sg_(sg),
        labels_(labels),
        fair_marks_(fair_marks),
        neg_(neg),
        acc_(std::move(acc)),
        budget_(budget),
        start_(start) {}

  /// Some accepting product lasso or bad prefix, or nullopt when every fair
  /// computation satisfies the spec.
  std::optional<Lasso> run() {
    for (omega::State q0 : neg_.initial) {
      const std::uint32_t start = intern(start_, q0);
      if (index_[start] != kUnvisited) continue;
      if (push(start)) return bad_prefix();
      while (!frames_.empty()) {
        poll_budget();
        if (auto t = next_successor(frames_.back())) {
          if (index_[*t] == kUnvisited) {
            if (push(*t)) return bad_prefix();
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
        if (roots_.empty() || roots_.back().index != index_[pid])
          continue;  // its component is still open, or none is tracked
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

  /// Pushes `pid` on the DFS stack; true when its ¬spec state is universal.
  /// Under ⊥ no loop is accepting, so no component is tracked: the pair is
  /// closed at once and the search is plain reachability.
  bool push(std::uint32_t pid) {
    if (acc_.is_false()) {
      index_[pid] = kDead;
    } else {
      live_.push_back(pid);
      index_[pid] = static_cast<std::uint32_t>(live_.size());
      roots_.push_back({index_[pid], marks_of(pid), false});
    }
    frames_.push_back({pid});
    return neg_.universal[aut_of(pids_[pid])];
  }

  /// The DFS stack, which ends at the universal pair just pushed.
  Lasso bad_prefix() const {
    Lasso out;
    for (const Frame& f : frames_) out.prefix.push_back(f.pid);
    return out;
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
  const std::size_t start_;
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

/// A fair computation of the system from node `from`, as node indices
/// (stem, loop); the stem starts at `from` unless the loop does. It comes
/// from a fairness-only search (one ¬spec state, acceptance = fairness),
/// which always succeeds: transition fairness is machine-closed. Past the
/// mark limit it is the walk along first edges, which need not be fair.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> fair_extension(
    const StateGraph& sg, const FairnessFrame& fair, const LabelCache& cache, std::size_t from,
    const Budget& budget) {
  std::vector<std::size_t> stem, loop;
  if (fair.mark_count() > kMarkLimit) {
    std::vector<std::size_t> seen_at(sg.nodes.size(), SIZE_MAX);
    for (std::size_t n = from; seen_at[n] == SIZE_MAX; n = sg.edges[n].front().first) {
      seen_at[n] = stem.size();
      stem.push_back(n);
    }
    const std::size_t back = seen_at[sg.edges[stem.back()].front().first];
    loop.assign(stem.begin() + static_cast<std::ptrdiff_t>(back), stem.end());
    stem.resize(back);
    return {std::move(stem), std::move(loop)};
  }
  NegSpec any;
  any.symbols = cache.alphabet.size();
  any.initial = {0};
  std::vector<std::pair<lang::Symbol, omega::State>> edges;
  for (lang::Symbol s = 0; s < any.symbols; ++s) edges.emplace_back(s, 0);
  any.add_row(edges);
  any.marks = {0};
  any.universal = {false};
  ProductSearch search(sg, cache.labels, fair.node_marks(), any, fair.acceptance(), budget, from);
  const auto lasso = search.run();
  MPH_ASSERT(lasso && !lasso->loop.empty());
  for (std::uint32_t pid : lasso->prefix) stem.push_back(search.node_of_pid(pid));
  for (std::uint32_t pid : lasso->loop) loop.push_back(search.node_of_pid(pid));
  return {std::move(stem), std::move(loop)};
}

/// Checks one spec against an explored state graph. The caller provides the
/// shared phases (exploration, fairness frame, labels); this compiles ¬spec,
/// picks the acceptance shape from the spec's class, runs the product
/// search and fills the per-spec stats.
CheckResult check_one(const StateGraph& sg, const FairnessFrame& fair, const LabelCache& cache,
                      const ltl::Formula& spec, const Budget& budget,
                      const CheckOptions& options) {
  analysis::DiagnosticEngine* const diagnostics = options.diagnostics;
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

  // ΔΓ-normalization (lazy, memoized, capped by normalize_steps): a
  // completed hierarchy normal form is an equivalent formula that the
  // syntactic rules classify sharply and that always compiles
  // deterministically.
  bool norm_tried = false;
  std::optional<ltl::Formula> normal;
  auto get_normal = [&]() -> const std::optional<ltl::Formula>& {
    if (!norm_tried && options.normalize_steps > 0) {
      norm_tried = true;
      ltl::NormalizeOptions nopt;
      nopt.budget = Budget().with_state_cap(options.normalize_steps);
      ltl::NormalizeResult nr = ltl::normalize(spec, nopt);
      result.stats.normalize_steps = nr.steps;
      if (nr.complete()) normal = nr.form;
    }
    return normal;
  };
  auto compiles = [&](const ltl::Formula& f) -> std::optional<omega::DetOmega> {
    try {
      return ltl::compile(f, cache.alphabet);
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  };

  // The class picks the acceptance shape: the spec's syntactic class, else
  // that of its normal form.
  auto t_compile = Clock::now();
  core::Classification cls = ltl::syntactic_classification(spec);
  ClassSource cls_source = ClassSource::Syntactic;
  if (!cls.safety && !cls.guarantee && get_normal()) {
    cls = ltl::syntactic_classification(*normal);
    cls_source = ClassSource::Normalized;
  }

  // Deterministic ¬spec from the first source that gives one: ¬spec
  // compiled, spec compiled and complemented, ¬(normal form) compiled.
  // Otherwise the NBA tableau.
  std::optional<omega::DetOmega> det = compiles(f_not(spec));
  if (!det)
    if (auto m = compiles(spec)) det = omega::complement(*m);
  bool det_from_normal = false;
  if (!det && get_normal()) {
    det = compiles(f_not(*normal));
    det_from_normal = det.has_value();
  }
  std::optional<omega::Nba> nba;
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

  // Acceptance shape. Safety spec: ¬spec is open, so a run is accepting iff
  // it reaches a universal state; the search stops there and no loop is
  // accepting (⊥). Guarantee spec: ¬spec is closed, so a run is accepting
  // iff it stays live; dead states are never interned and the ¬spec
  // acceptance is ⊤. Otherwise the fairness marks and the ¬spec marks,
  // shifted past them, in one MarkSet.
  CheckEngine shape = CheckEngine::Scc;
  if (det && cls.safety) shape = CheckEngine::SafetyPrefix;
  else if (det && cls.guarantee) shape = CheckEngine::GuaranteeDual;
  result.stats.engine = shape;
  result.stats.class_source = det_from_normal           ? ClassSource::Normalized
                              : shape != CheckEngine::Scc ? cls_source
                                                          : ClassSource::None;
  const Acceptance neg_acc = shape != CheckEngine::Scc ? Acceptance::t()
                             : det                     ? det->acceptance()
                                                       : Acceptance::buchi(0);
  const auto neg_marks = static_cast<std::size_t>(std::bit_width(neg_acc.mentioned_marks()));
  if (shape != CheckEngine::SafetyPrefix && fair.mark_count() + neg_marks > kMarkLimit)
    throw std::invalid_argument(
        subject + ": the fair product needs " + std::to_string(fair.mark_count() + neg_marks) +
        " acceptance marks (" + std::to_string(fair.mark_count()) + " for fairness, " +
        std::to_string(neg_marks) + " for ¬spec), more than the limit of " +
        std::to_string(kMarkLimit));
  const Mark shift = static_cast<Mark>(fair.mark_count());
  const NegSpec neg =
      det ? tabulate(*det, shift, shape == CheckEngine::Scc) : tabulate(*nba, shift);
  result.stats.compile_seconds = elapsed(t_compile);
  result.stats.automaton_states = neg.state_count();
  result.stats.product_bound = sg.nodes.size() * neg.state_count();
  const Acceptance acc = shape == CheckEngine::SafetyPrefix
                             ? Acceptance::f()
                             : Acceptance::conj(fair.acceptance(), neg_acc.shift(shift));

  auto emit_product_note = [&] {
    if (!diagnostics) return;
    const char* shape_note = shape == CheckEngine::SafetyPrefix
                                 ? "; safety, stops at a bad prefix"
                             : shape == CheckEngine::GuaranteeDual
                                 ? "; guarantee dual, fairness-only acceptance"
                                 : "";
    diagnostics->emit(
        "MPH-V002", subject,
        "product of " + std::to_string(sg.nodes.size()) + " system states × " +
            std::to_string(neg.state_count()) + "-state ¬spec automaton built " +
            std::to_string(result.stats.product_states) + " of at most " +
            std::to_string(result.stats.product_bound) + " states (on-the-fly SCC search" +
            shape_note + ")");
  };

  static const std::vector<MarkSet> kNoMarks;
  const std::vector<MarkSet>& fair_marks =
      shape == CheckEngine::SafetyPrefix ? kNoMarks : fair.node_marks();
  auto t_search = Clock::now();
  ProductSearch search(sg, cache.labels, fair_marks, neg, acc, budget);
  std::optional<ProductSearch::Lasso> lasso;
  Counterexample cex;
  try {
    lasso = search.run();
    if (lasso) {
      std::vector<std::size_t> stem, loop;
      for (std::uint32_t pid : lasso->prefix) stem.push_back(search.node_of_pid(pid));
      for (std::uint32_t pid : lasso->loop) loop.push_back(search.node_of_pid(pid));
      if (loop.empty()) {
        // A bad prefix: complete it with a fair computation from its last node.
        auto [more, cycle] = fair_extension(sg, fair, cache, stem.back(), budget);
        stem.pop_back();
        stem.insert(stem.end(), more.begin(), more.end());
        loop = std::move(cycle);
      }
      for (std::size_t n : stem) cex.prefix.push_back(sg.nodes[n].valuation);
      for (std::size_t n : loop) cex.loop.push_back(sg.nodes[n].valuation);
    }
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
    d.witness = !lasso->loop.empty()
                    ? "fair lasso through " + std::to_string(lasso->loop.size()) +
                          " product state(s)"
                    : "bad prefix of " + std::to_string(lasso->prefix.size()) +
                          " product state(s), extended " +
                          (fair.mark_count() > kMarkLimit ? "along first edges"
                                                          : "by a fair lasso");
  }
  result.counterexample = std::move(cex);
  return result;
}

std::vector<std::string> validated_atoms(const ltl::Formula& spec, const AtomMap& atoms) {
  // User input on the CLI and the wire: a plain refusal, no source location.
  auto atom_names = spec.atoms();
  if (atom_names.empty())
    throw std::invalid_argument("specification must mention at least one atom");
  if (atom_names.size() > lang::kMaxProps)
    throw std::invalid_argument("specification mentions " + std::to_string(atom_names.size()) +
                                " atoms; the checker supports at most " +
                                std::to_string(lang::kMaxProps));
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
    // already proved statically gets the same unknown verdict and one
    // batch-level MPH-V004.
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

  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (resolved[i]) continue;
    results[i] = check_one(sg, fair, *cache_of[i], specs[i], budget, options);
    results[i].stats.explore_seconds = ex.seconds;
    results[i].stats.label_seconds = cache_of[i]->seconds;
  }
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
