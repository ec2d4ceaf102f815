#include "src/fts/checker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
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
    case CheckEngine::NestedDfs: return "nested-DFS";
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

/// A uniform view over the two automaton back-ends for ¬spec: the
/// deterministic hierarchy-fragment compiler and the NBA tableau.
struct NegSpecView {
  std::vector<omega::State> initial;
  std::function<std::vector<omega::State>(omega::State, lang::Symbol)> step;
  std::function<MarkSet(omega::State)> marks;
  Acceptance acceptance = Acceptance::t();
  std::size_t state_count = 0;
};

/// 64-bit product keys: state-graph node in the high half, automaton state
/// in the low half.
constexpr std::uint64_t pack(std::size_t n, omega::State q) {
  return (static_cast<std::uint64_t>(n) << 32) | q;
}
constexpr std::size_t node_of(std::uint64_t key) { return key >> 32; }
constexpr omega::State aut_of(std::uint64_t key) {
  return static_cast<omega::State>(key & 0xffffffffu);
}

NegSpecView deterministic_view(std::shared_ptr<omega::DetOmega> m) {
  NegSpecView v;
  v.initial = {m->initial()};
  v.step = [m](omega::State q, lang::Symbol s) {
    return std::vector<omega::State>{m->next(q, s)};
  };
  v.marks = [m](omega::State q) { return m->marks(q); };
  v.acceptance = m->acceptance();
  v.state_count = m->state_count();
  return v;
}

NegSpecView nba_view(std::shared_ptr<omega::Nba> n) {
  NegSpecView v;
  v.initial = n->initial_states();
  v.step = [n](omega::State q, lang::Symbol s) {
    std::vector<omega::State> out;
    for (auto [sym, t] : n->edges(q))
      if (sym == s) out.push_back(t);
    return out;
  };
  v.marks = [n](omega::State q) {
    return n->accepting(q) ? omega::mark_bit(0) : MarkSet{0};
  };
  v.acceptance = Acceptance::buchi(0);
  v.state_count = n->state_count();
  return v;
}

/// Fairness marks: one per weak transition ("ok": disabled or just taken),
/// two per strong transition (taken / enabled). ¬spec marks are shifted
/// past them. The frame depends only on the system, so a batch computes it
/// once and shares it across specs.
struct FairnessFrame {
  std::vector<std::size_t> weak, strong;
  Mark mark_count = 0;
  Acceptance acceptance = Acceptance::t();  // the fairness conjuncts only
};

FairnessFrame fairness_frame(const Fts& system) {
  FairnessFrame f;
  for (std::size_t t = 0; t < system.transition_count(); ++t) {
    if (system.transition_fairness(t) == Fairness::Weak) f.weak.push_back(t);
    if (system.transition_fairness(t) == Fairness::Strong) f.strong.push_back(t);
  }
  f.mark_count = static_cast<Mark>(f.weak.size() + 2 * f.strong.size());
  for (std::size_t i = 0; i < f.weak.size(); ++i)
    f.acceptance =
        Acceptance::conj(std::move(f.acceptance), Acceptance::inf(static_cast<Mark>(i)));
  for (std::size_t i = 0; i < f.strong.size(); ++i) {
    const Mark taken_mark = static_cast<Mark>(f.weak.size() + 2 * i);
    const Mark enabled_mark = static_cast<Mark>(f.weak.size() + 2 * i + 1);
    f.acceptance = Acceptance::conj(
        std::move(f.acceptance),
        Acceptance::disj(Acceptance::inf(taken_mark), Acceptance::fin(enabled_mark)));
  }
  return f;
}

/// Per-node fairness marks, computed once per state graph.
std::vector<MarkSet> fair_node_marks(const StateGraph& sg, const FairnessFrame& fair) {
  std::vector<MarkSet> out(sg.nodes.size(), 0);
  for (std::size_t n = 0; n < sg.nodes.size(); ++n) {
    MarkSet marks = 0;
    for (std::size_t i = 0; i < fair.weak.size(); ++i) {
      bool ok = !sg.enabled[n][fair.weak[i]] ||
                sg.nodes[n].last_taken == static_cast<int>(fair.weak[i]);
      if (ok) marks |= omega::mark_bit(static_cast<Mark>(i));
    }
    for (std::size_t i = 0; i < fair.strong.size(); ++i) {
      if (sg.nodes[n].last_taken == static_cast<int>(fair.strong[i]))
        marks |= omega::mark_bit(static_cast<Mark>(fair.weak.size() + 2 * i));
      if (sg.enabled[n][fair.strong[i]])
        marks |= omega::mark_bit(static_cast<Mark>(fair.weak.size() + 2 * i + 1));
    }
    out[n] = marks;
  }
  return out;
}

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

/// If acc is a pure conjunction of Inf atoms (generalized Büchi), collects
/// the required marks and returns true; otherwise the product needs the
/// general Emerson–Lei good-loop engine.
bool collect_inf_conjuncts(const Acceptance& acc, std::vector<Mark>& out) {
  switch (acc.kind()) {
    case Acceptance::Kind::True:
      return true;
    case Acceptance::Kind::Inf:
      out.push_back(acc.mark());
      return true;
    case Acceptance::Kind::And: {
      for (const auto& c : acc.children())
        if (!collect_inf_conjuncts(c, out)) return false;
      return true;
    }
    default:
      return false;
  }
}

/// On-the-fly emptiness for generalized-Büchi product acceptance: the
/// product is interned lazily while a nested DFS (CVWY with the blue-stack
/// shortcut) searches for an accepting lasso, so a violation is reported
/// before the full product exists. Degeneralization is by counter: a cell is
/// (product state, index of the next required mark to see); the counter
/// advances on marked cells and a cell is accepting when it completes the
/// round.
class OnTheFlyEngine {
 public:
  struct Cell {
    std::uint32_t pid;  // index of the (node, automaton state) pair
    std::uint32_t c;    // degeneralization counter
    bool operator==(const Cell&) const = default;
  };

  OnTheFlyEngine(const StateGraph& sg, const std::vector<lang::Symbol>& labels,
                 const std::vector<MarkSet>& fair_marks, Mark shift, const NegSpecView& neg,
                 std::vector<Mark> req, const Budget& budget)
      : sg_(sg),
        labels_(labels),
        fair_marks_(fair_marks),
        shift_(shift),
        neg_(neg),
        req_(std::move(req)),
        k_(std::max<std::size_t>(req_.size(), 1)),
        budget_(budget) {}

  /// Some accepting product lasso as (prefix cells, loop cells), or nullopt
  /// when every fair computation satisfies the spec.
  std::optional<std::pair<std::vector<Cell>, std::vector<Cell>>> run() {
    for (omega::State q0 : neg_.initial) {
      Cell root{intern(0, q0), 0};
      if (flags(root) & kBlue) continue;
      if (auto lasso = blue_dfs(root)) return lasso;
    }
    return std::nullopt;
  }

  /// Distinct (node, automaton state) pairs interned so far.
  std::size_t product_states() const { return pids_.size(); }

  std::size_t node_of_cell(Cell cell) const { return node_of(pids_[cell.pid]); }

 private:
  static constexpr std::uint8_t kBlue = 1, kRed = 2, kOnStack = 4;

  struct Frame {
    std::uint32_t pid;
    std::uint32_t c;
    std::vector<std::uint32_t> succ;
    std::size_t i = 0;
  };

  std::uint32_t intern(std::size_t n, omega::State q) {
    auto [idx, inserted] = pids_.intern(pack(n, q));
    if (inserted) {
      // The pair is already in the interner, but on exhaustion the whole
      // search unwinds immediately, so the extra key is never observed.
      budget_.require(pids_.size() - 1);
      marks_.push_back(fair_marks_[n] | (neg_.marks(q) << shift_));
      cell_flags_.resize(pids_.size() * k_, 0);
    }
    return static_cast<std::uint32_t>(idx);
  }

  /// Deadline/cancellation poll amortized over the DFS steps (the state cap
  /// is enforced exactly at every intern; the clock is read every 4096
  /// steps).
  void poll_budget() {
    if ((++steps_ & 0xFFFu) != 0) return;
    if (Outcome o = budget_.poll(); !is_complete(o)) throw BudgetExhausted(o);
  }

  std::vector<std::uint32_t> successors(std::uint32_t pid) {
    const std::uint64_t key = pids_[pid];
    const std::size_t n = node_of(key);
    std::vector<std::uint32_t> out;
    for (omega::State q2 : neg_.step(aut_of(key), labels_[n]))
      for (auto [target, t] : sg_.edges[n]) {
        (void)t;
        out.push_back(intern(target, q2));
      }
    return out;
  }

  bool has_required_mark(std::uint32_t pid, std::size_t i) const {
    return req_.empty() || (marks_[pid] & omega::mark_bit(req_[i]));
  }
  std::uint32_t advance(std::uint32_t pid, std::uint32_t c) const {
    return has_required_mark(pid, c) ? static_cast<std::uint32_t>((c + 1) % k_) : c;
  }
  bool accepting(Cell cell) const {
    return cell.c == k_ - 1 && has_required_mark(cell.pid, k_ - 1);
  }

  std::uint8_t& flags(Cell cell) { return cell_flags_[std::size_t{cell.pid} * k_ + cell.c]; }

  std::optional<std::pair<std::vector<Cell>, std::vector<Cell>>> blue_dfs(Cell root) {
    std::vector<Frame> frames;
    flags(root) |= kBlue | kOnStack;
    frames.push_back({root.pid, root.c, successors(root.pid), 0});
    while (!frames.empty()) {
      poll_budget();
      Frame& f = frames.back();
      if (f.i < f.succ.size()) {
        Cell next{f.succ[f.i++], advance(f.pid, f.c)};
        if (!(flags(next) & kBlue)) {
          flags(next) |= kBlue | kOnStack;
          frames.push_back({next.pid, next.c, successors(next.pid), 0});
        }
        continue;
      }
      const Cell cur{f.pid, f.c};
      frames.pop_back();  // postorder; `frames` now holds cur's ancestors
      if (accepting(cur)) {
        if (auto red_path = red_dfs(cur)) return assemble(frames, cur, *red_path);
      }
      flags(cur) &= static_cast<std::uint8_t>(~kOnStack);
    }
    return std::nullopt;
  }

  /// Red search from an accepting seed: a path seed → ... → u with u on the
  /// blue DFS stack (u may be the seed itself). Red cells persist across
  /// seeds, keeping the whole nested search linear.
  std::optional<std::vector<Cell>> red_dfs(Cell seed) {
    if (flags(seed) & kRed) return std::nullopt;
    flags(seed) |= kRed;
    std::vector<Frame> frames{{seed.pid, seed.c, successors(seed.pid), 0}};
    while (!frames.empty()) {
      poll_budget();
      Frame& f = frames.back();
      if (f.i == f.succ.size()) {
        frames.pop_back();
        continue;
      }
      Cell next{f.succ[f.i++], advance(f.pid, f.c)};
      if (flags(next) & kOnStack) {
        std::vector<Cell> path;
        path.reserve(frames.size() + 1);
        for (const Frame& fr : frames) path.push_back({fr.pid, fr.c});
        path.push_back(next);
        return path;
      }
      if (!(flags(next) & kRed)) {
        flags(next) |= kRed;
        frames.push_back({next.pid, next.c, successors(next.pid), 0});
      }
    }
    return std::nullopt;
  }

  /// Lasso from the blue ancestors of the seed plus the red path seed→…→u:
  /// prefix = ancestors, loop = seed →red→ u →blue stack→ last ancestor
  /// (whose successor closes the loop back at the seed).
  std::pair<std::vector<Cell>, std::vector<Cell>> assemble(const std::vector<Frame>& frames,
                                                           Cell seed,
                                                           const std::vector<Cell>& red_path) {
    std::vector<Cell> prefix;
    prefix.reserve(frames.size());
    for (const Frame& fr : frames) prefix.push_back({fr.pid, fr.c});
    const Cell u = red_path.back();
    std::vector<Cell> loop(red_path.begin(), red_path.end() - 1);  // seed .. pred(u)
    if (!(u == seed)) {
      std::size_t idx = frames.size();
      for (std::size_t j = frames.size(); j-- > 0;)
        if (Cell{frames[j].pid, frames[j].c} == u) {
          idx = j;
          break;
        }
      MPH_ASSERT(idx < frames.size());  // u is on the blue stack
      for (std::size_t j = idx; j < frames.size(); ++j)
        loop.push_back({frames[j].pid, frames[j].c});
    }
    MPH_ASSERT(!loop.empty());
    return {std::move(prefix), std::move(loop)};
  }

  const StateGraph& sg_;
  const std::vector<lang::Symbol>& labels_;
  const std::vector<MarkSet>& fair_marks_;
  const Mark shift_;
  const NegSpecView& neg_;
  const std::vector<Mark> req_;
  const std::size_t k_;
  const Budget& budget_;
  std::uint64_t steps_ = 0;
  FlatInterner<std::uint64_t, IntHash> pids_;
  std::vector<MarkSet> marks_;            // per pid
  std::vector<std::uint8_t> cell_flags_;  // per pid × counter
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
CheckResult check_one(const StateGraph& sg, const FairnessFrame& fair,
                      const std::vector<MarkSet>& fair_marks, const LabelCache& cache,
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

  const bool dispatch = options.class_dispatch && !options.force_scc;
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
    std::shared_ptr<omega::DetOmega> m;
    try {
      m = std::make_shared<omega::DetOmega>(ltl::compile(routed, cache.alphabet));
    } catch (const std::invalid_argument&) {
      // Outside the old rewrite fragment: compile the normal form instead.
      if (get_normal() && !(routed == *normal)) try {
        m = std::make_shared<omega::DetOmega>(ltl::compile(*normal, cache.alphabet));
        result.stats.class_source = ClassSource::Normalized;
      } catch (const std::invalid_argument&) {
      }
      // Otherwise fall through to the ω-engines.
    }
    if (m) {
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
  // fairness-only lasso hunt instead of inheriting the Fin-shaped acceptance
  // that forces the SCC engine. Otherwise: deterministic route first, NBA
  // tableau as fallback.
  auto t_compile = Clock::now();
  NegSpecView neg;
  bool dual = false;
  if (dispatch && !syn.safety && syn.guarantee) {
    std::shared_ptr<omega::DetOmega> m;
    try {
      m = std::make_shared<omega::DetOmega>(ltl::compile(f_not(routed), cache.alphabet));
    } catch (const std::invalid_argument&) {
      // Outside the old rewrite fragment: negate the normal form instead
      // (the negation of a hierarchy form is still a hierarchy form).
      if (get_normal() && !(routed == *normal)) try {
        m = std::make_shared<omega::DetOmega>(ltl::compile(f_not(*normal), cache.alphabet));
        result.stats.class_source = ClassSource::Normalized;
      } catch (const std::invalid_argument&) {
      }
    }
    if (m) {
      auto live = std::make_shared<const std::vector<bool>>(omega::live_states(*m));
      if ((*live)[m->initial()]) neg.initial = {m->initial()};
      neg.step = [m, live](omega::State q, lang::Symbol s) {
        const omega::State t = m->next(q, s);
        return (*live)[t] ? std::vector<omega::State>{t} : std::vector<omega::State>{};
      };
      neg.marks = [](omega::State) { return MarkSet{0}; };
      neg.acceptance = Acceptance::t();
      neg.state_count = m->state_count();
      dual = true;
    }
  }
  if (!dual) try {
    neg = deterministic_view(
        std::make_shared<omega::DetOmega>(ltl::compile(f_not(spec), cache.alphabet)));
  } catch (const std::invalid_argument&) {
    // Second chance: the ΔΓ-normal form (when one was obtained) is an
    // equivalent formula inside the deterministic fragment — negating a
    // hierarchy form stays a hierarchy form, so this compile succeeds and
    // the check keeps a deterministic (and usually smaller) product.
    bool rescued = false;
    if (get_normal()) {
      try {
        neg = deterministic_view(
            std::make_shared<omega::DetOmega>(ltl::compile(f_not(*normal), cache.alphabet)));
        rescued = true;
        result.stats.class_source = ClassSource::Normalized;
      } catch (const std::invalid_argument&) {
      }
    }
    if (!rescued) {
    result.stats.nba_fallback = true;
    auto nba = ltl::to_nba(f_not(spec), cache.alphabet, budget);
    if (!nba.complete()) {
      result.stats.compile_seconds = elapsed(t_compile);
      give_up(nba.outcome, "the ¬spec NBA tableau construction");
      return result;
    }
    neg = nba_view(std::make_shared<omega::Nba>(std::move(*nba.value)));
    if (diagnostics)
      diagnostics
          ->emit("MPH-V001", subject,
                 "¬spec is outside the deterministic hierarchy fragment; using the "
                 "NBA tableau (product acceptance stays Büchi-shaped)")
          .fix_hint = "rewriting the specification into hierarchy form gives a "
                      "deterministic, usually smaller product";
    }
  }
  result.stats.compile_seconds = elapsed(t_compile);
  result.stats.automaton_states = neg.state_count;
  result.stats.product_bound = sg.nodes.size() * neg.state_count;

  Acceptance acc =
      Acceptance::conj(Acceptance(fair.acceptance), neg.acceptance.shift(fair.mark_count));
  MPH_REQUIRE((acc.mentioned_marks() >> 63) == 0, "too many fairness marks");

  auto emit_product_note = [&] {
    if (!diagnostics) return;
    diagnostics->emit(
        "MPH-V002", subject,
        "product of " + std::to_string(sg.nodes.size()) + " system states × " +
            std::to_string(neg.state_count) + "-state ¬spec automaton built " +
            std::to_string(result.stats.product_states) + " of at most " +
            std::to_string(result.stats.product_bound) + " states (" +
            (result.stats.on_the_fly ? "on-the-fly nested DFS" : "SCC good-loop engine") +
            (dual ? "; guarantee dual, fairness-only acceptance" : "") + ")");
  };

  auto t_search = Clock::now();
  std::vector<Mark> req;
  if (!options.force_scc && collect_inf_conjuncts(acc, req)) {
    // Generalized Büchi: interleave product construction with a nested-DFS
    // emptiness check — a violating lasso exits before the product is full.
    std::sort(req.begin(), req.end());
    req.erase(std::unique(req.begin(), req.end()), req.end());
    result.stats.on_the_fly = true;
    result.stats.engine = dual ? CheckEngine::GuaranteeDual : CheckEngine::NestedDfs;
    OnTheFlyEngine engine(sg, cache.labels, fair_marks, fair.mark_count, neg,
                          std::move(req), budget);
    decltype(engine.run()) lasso;
    try {
      lasso = engine.run();
    } catch (const BudgetExhausted& e) {
      result.product_states = result.stats.product_states = engine.product_states();
      result.stats.search_seconds = elapsed(t_search);
      emit_product_note();
      give_up(e.outcome(), "the nested-DFS product search");
      return result;
    }
    result.product_states = result.stats.product_states = engine.product_states();
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
      d.witness =
          "fair lasso through " + std::to_string(lasso->second.size()) + " product state(s)";
    }
    Counterexample cex;
    for (auto cell : lasso->first)
      cex.prefix.push_back(sg.nodes[engine.node_of_cell(cell)].valuation);
    for (auto cell : lasso->second)
      cex.loop.push_back(sg.nodes[engine.node_of_cell(cell)].valuation);
    result.counterexample = std::move(cex);
    return result;
  }

  // General Emerson–Lei acceptance (strong fairness, Streett/Rabin-shaped
  // ¬spec): build the reachable product lazily and run the SCC good-loop
  // engine. The automaton reads the label of the source node on each step.
  result.stats.engine = dual ? CheckEngine::GuaranteeDual : CheckEngine::Scc;
  FlatInterner<std::uint64_t, IntHash> pids;
  auto intern = [&](std::size_t n, omega::State q) {
    auto [idx, inserted] = pids.intern(pack(n, q));
    if (inserted) budget.require(pids.size() - 1);
    return static_cast<omega::State>(idx);
  };
  MarkedGraph g;
  try {
    for (omega::State q0 : neg.initial) intern(0, q0);
  } catch (const BudgetExhausted& e) {
    result.product_states = result.stats.product_states = pids.size();
    result.stats.search_seconds = elapsed(t_search);
    give_up(e.outcome(), "the SCC product construction");
    return result;
  }
  if (pids.size() == 0) {
    // The ¬spec automaton has no initial states (the NBA tableau of an
    // unsatisfiable negation), so the product has no runs: the spec holds
    // over every fair computation.
    result.stats.search_seconds = elapsed(t_search);
    emit_product_note();
    result.holds = true;
    return result;
  }
  g.initial = 0;
  try {
    for (omega::State p = 0; p < pids.size(); ++p) {
      if ((p & 0x3FFu) == 0) {
        if (Outcome o = budget.poll(); !is_complete(o)) throw BudgetExhausted(o);
      }
      const std::uint64_t key = pids[p];
      const std::size_t n = node_of(key);
      const omega::State q = aut_of(key);
      std::vector<omega::State> succ;
      for (omega::State q2 : neg.step(q, cache.labels[n]))
        for (auto [target, t] : sg.edges[n]) {
          (void)t;
          succ.push_back(intern(target, q2));
        }
      g.succ.push_back(std::move(succ));
      g.marks.push_back(fair_marks[n] | (neg.marks(q) << fair.mark_count));
    }
  } catch (const BudgetExhausted& e) {
    result.product_states = result.stats.product_states = pids.size();
    result.stats.search_seconds = elapsed(t_search);
    give_up(e.outcome(), "the SCC product construction");
    return result;
  }
  // Multiple NBA initial states: add a virtual root so the good-loop search
  // sees all of them as reachable.
  if (neg.initial.size() > 1) {
    const omega::State root = static_cast<omega::State>(g.succ.size());
    g.succ.emplace_back();
    g.marks.push_back(0);
    for (std::size_t i = 0; i < neg.initial.size(); ++i)
      g.succ[root].push_back(static_cast<omega::State>(i));
    g.initial = root;
  }

  result.product_states = result.stats.product_states = pids.size();
  auto loop = omega::find_good_loop(g, acc);
  result.stats.search_seconds = elapsed(t_search);
  emit_product_note();
  if (!loop) {
    result.holds = true;
    return result;
  }
  result.holds = false;
  if (diagnostics) {
    auto& d = diagnostics->emit("MPH-V003", subject,
                                "a fair computation violates the specification");
    d.witness = "fair loop through " + std::to_string(loop->size()) + " product state(s)";
  }
  // Counterexample: shortest path from some initial product node to the
  // loop, then a cycle covering it.
  std::vector<bool> in_loop(g.size(), false);
  for (omega::State q : *loop) in_loop[q] = true;
  std::vector<std::int64_t> parent(g.size(), -2);
  std::deque<omega::State> queue;
  for (std::size_t i = 0; i < neg.initial.size(); ++i) {
    parent[i] = -1;
    queue.push_back(static_cast<omega::State>(i));
  }
  omega::State anchor = static_cast<omega::State>(~0u);
  for (std::size_t i = 0; i < neg.initial.size() && anchor == static_cast<omega::State>(~0u);
       ++i)
    if (in_loop[i]) anchor = static_cast<omega::State>(i);
  while (!queue.empty() && anchor == static_cast<omega::State>(~0u)) {
    omega::State u = queue.front();
    queue.pop_front();
    for (omega::State v : g.succ[u]) {
      if (parent[v] != -2) continue;
      parent[v] = static_cast<std::int64_t>(u);
      if (in_loop[v]) {
        anchor = v;
        break;
      }
      queue.push_back(v);
    }
  }
  MPH_ASSERT(anchor != static_cast<omega::State>(~0u));
  Counterexample cex;
  auto valuation_of = [&](omega::State p) -> const Valuation& {
    return sg.nodes[node_of(pids[p])].valuation;
  };
  {
    std::vector<omega::State> path;
    for (omega::State cur = anchor;;) {
      path.push_back(cur);
      if (parent[cur] < 0) break;
      cur = static_cast<omega::State>(parent[cur]);
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it)
      cex.prefix.push_back(valuation_of(*it));
    cex.prefix.pop_back();  // the anchor starts the loop instead
  }
  // Cycle through all loop nodes by chaining shortest paths within the loop.
  auto seg = [&](omega::State from, omega::State to) {
    MPH_ASSERT(from != to);
    std::vector<std::int64_t> par(g.size(), -2);
    std::deque<omega::State> q2{from};
    par[from] = -1;
    while (!q2.empty()) {
      omega::State u = q2.front();
      q2.pop_front();
      for (omega::State v : g.succ[u]) {
        if (!in_loop[v] || par[v] != -2) continue;
        par[v] = static_cast<std::int64_t>(u);
        q2.push_back(v);
      }
    }
    MPH_ASSERT(par[to] != -2);
    std::vector<omega::State> rev;
    for (omega::State c = static_cast<omega::State>(par[to]); par[c] >= 0;
         c = static_cast<omega::State>(par[c]))
      rev.push_back(c);
    std::vector<omega::State> fwd{from};
    fwd.insert(fwd.end(), rev.rbegin(), rev.rend());
    return fwd;
  };
  std::vector<omega::State> cycle;
  omega::State cur = anchor;
  for (omega::State goal : *loop) {
    if (goal == cur) continue;
    auto piece = seg(cur, goal);
    cycle.insert(cycle.end(), piece.begin(), piece.end());
    cur = goal;
  }
  if (cur != anchor) {
    auto piece = seg(cur, anchor);
    cycle.insert(cycle.end(), piece.begin(), piece.end());
  } else if (cycle.empty()) {
    cycle.push_back(anchor);  // singleton loop with a self-edge
  }
  for (omega::State q : cycle) cex.loop.push_back(valuation_of(q));
  result.counterexample = std::move(cex);
  return result;
}

std::vector<std::string> validated_atoms(const ltl::Formula& spec, const AtomMap& atoms) {
  auto atom_names = spec.atoms();
  MPH_REQUIRE(!atom_names.empty(), "specification must mention at least one atom");
  for (const auto& name : atom_names)
    MPH_REQUIRE(atoms.contains(name), "specification atom not defined: " + name);
  return atom_names;
}

}  // namespace

CheckResult check(const Fts& system, const ltl::Formula& spec, const AtomMap& atoms,
                  const CheckOptions& options) {
  return std::move(check_all(system, {spec}, atoms, options).front());
}

std::vector<CheckResult> check_all(const Fts& system, const std::vector<ltl::Formula>& specs,
                                   const AtomMap& atoms, const CheckOptions& options) {
  std::vector<CheckResult> results(specs.size());
  if (specs.empty()) return results;

  // Exploration-free proofs first: any spec the static prover certifies is
  // done — stamped StaticProof/Complete with zero states — before a single
  // node is expanded. force_scc demands the SCC engine, so the hook is
  // skipped there (the fuzz oracles rely on force_scc meaning exactly that).
  std::vector<char> resolved(specs.size(), 0);
  std::size_t n_resolved = 0;
  if (options.static_prover && !options.force_scc) {
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
    if (n_resolved == specs.size()) return results;
  }

  // Effective budget: options.budget, with kDefaultStateCap when the budget
  // itself carries no state cap.
  Budget budget = options.budget;
  if (!budget.has_state_cap()) budget.with_state_cap(kDefaultStateCap);

  // Shared phases: one exploration, one fairness frame, one label cache per
  // distinct atom vocabulary.
  auto t_explore = Clock::now();
  ExploreResult ex = explore(system, budget);
  const double explore_seconds = elapsed(t_explore);
  if (!is_complete(ex.outcome)) {
    // The shared exploration ran out of budget: every spec in the batch not
    // already proved statically gets the same unknown verdict, before any
    // worker thread starts — so the result (and the single MPH-V004) is
    // identical for threads == 1 and N.
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (resolved[i]) continue;
      auto& r = results[i];
      r.outcome = r.stats.outcome = ex.outcome;
      r.stats.state_graph_nodes = ex.graph.nodes.size();
      r.stats.explore_seconds = explore_seconds;
    }
    if (options.diagnostics) {
      auto& d = options.diagnostics->emit(
          "MPH-V004", "state-graph exploration",
          "budget exhausted (" + std::string(to_string(ex.outcome)) + ") after " +
              std::to_string(ex.graph.nodes.size()) +
              " system state(s); every spec in the batch is unverified");
      d.fix_hint = "raise CheckOptions::budget (state cap / deadline) or shrink "
                   "variable domains";
    }
    return results;
  }
  const StateGraph& sg = ex.graph;
  FairnessFrame fair = fairness_frame(system);
  std::vector<MarkSet> fair_marks = fair_node_marks(sg, fair);

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
    CheckResult r = check_one(sg, fair, fair_marks, *cache_of[i], specs[i],
                              budget, options, engine);
    r.stats.explore_seconds = explore_seconds;
    r.stats.label_seconds = cache_of[i]->seconds;
    results[i] = std::move(r);
  };

  std::size_t threads = std::max<unsigned>(options.threads, 1);
  threads = std::min(threads, specs.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (!resolved[i]) run_one(i, options.diagnostics);
    return results;
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
  return results;
}

}  // namespace mph::fts
