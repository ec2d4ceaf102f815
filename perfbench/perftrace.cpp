// mph-perftrace — the benchmark's traced runner (perfbench/README.md).
//
// Reads one plan document (a single JSON line) on stdin, runs the plan's
// inputs through each module's public functions in one process, and prints
// one JSON line: the answers it reached (checked by run.py against the
// known-answer tables, exactly like the untraced runs) and the per-layer
// metrics aggregated from its spans.
//
//   {"workload": "ladder-holds" | "ladder-violated",
//    "items": [{"model": NAME, "specs": [...]}, ...]}
//   {"workload": "spec-battery", "classify": [[FORMULA...], ...],
//    "subsume": [FORMULA...]}
//   {"workload": "serve-mix", "requests": [LINE, ...]}
//
// Spans are taken only here, around the calls into src/; nothing inside the
// program is instrumented. With --spans FILE every span (name, start, end,
// parent) is written out as JSON lines when the run ends.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/analysis/passes.hpp"
#include "src/analysis/subsume.hpp"
#include "src/core/classify.hpp"
#include "src/fts/checker.hpp"
#include "src/fts/programs.hpp"
#include "src/lang/alphabet.hpp"
#include "src/ltl/ast.hpp"
#include "src/ltl/eval.hpp"
#include "src/ltl/hierarchy.hpp"
#include "src/ltl/normalize.hpp"
#include "src/ltl/to_nba.hpp"
#include "src/omega/inclusion.hpp"
#include "src/serve/json.hpp"
#include "src/serve/server.hpp"

namespace {

using namespace mph;
using Clock = std::chrono::steady_clock;
using serve::Json;
using serve::JsonWriter;

/// State cap of the default check / explore budget (fts::CheckOptions).
constexpr std::size_t kStateCap = 200000;

// ---------------------------------------------------------------- spans ---

struct Span {
  std::string name;
  double start_s = 0, end_s = 0;
  int parent = -1;
};

class Tracer {
 public:
  /// Opens a span; returns its index for close().
  int open(std::string name) {
    spans_.push_back({std::move(name), now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Closes the span and returns its duration in seconds.
  double close(int id) {
    spans_[id].end_s = now();
    stack_.pop_back();
    return spans_[id].end_s - spans_[id].start_s;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const auto& sp : spans_)
      out << JsonWriter()
                 .field("name", sp.name)
                 .field("start_s", sp.start_s)
                 .field("end_s", sp.end_s)
                 .field("parent", Json::number(sp.parent))
                 .build()
                 .dump()
          << "\n";
  }

 private:
  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer tracer;

/// Seconds spent on work the traced runner does and the shipped tools do
/// not (spans "trace.extra"): run.py leaves it out of the tracing overhead.
double extra_s = 0;

/// Runs `fn` inside a span called `name`; returns the span's duration.
template <class Fn>
double timed(const std::string& name, Fn&& fn) {
  const int id = tracer.open(name);
  fn();
  return tracer.close(id);
}

// -------------------------------------------------------------- helpers ---

/// The built-in models under the names mph-lint and mph-serve give them.
fts::programs::Program make_model(const std::string& name) {
  using namespace fts::programs;
  if (name == "peterson") return peterson();
  if (name == "trivial-mutex") return trivial_mutex();
  if (name == "semaphore-weak") return semaphore_mutex(3, fts::Fairness::Weak);
  if (name == "semaphore-strong") return semaphore_mutex(3, fts::Fairness::Strong);
  if (name.rfind("dining-", 0) == 0) return dining(std::stoul(name.substr(7)));
  if (name.rfind("ring-", 0) == 0) return ring_leader(std::stoul(name.substr(5)));
  throw std::invalid_argument("unknown model '" + name + "'");
}

/// Resident set size of this process in bytes (/proc/self/statm).
double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * 4096.0;
}

/// Does the counterexample replay to a violation of `spec` under
/// ltl::evaluates? (The same replay the tab11 checker bench performs.)
bool replay_violates(const fts::programs::Program& prog, const ltl::Formula& spec,
                     const fts::CheckResult& result) {
  if (result.holds || !result.counterexample || result.counterexample->loop.empty())
    return false;
  const auto atom_names = spec.atoms();
  const auto alphabet = lang::Alphabet::of_props(atom_names);
  auto symbol_of = [&](const fts::Valuation& v) {
    lang::Symbol s = 0;
    for (std::size_t i = 0; i < atom_names.size(); ++i)
      if (prog.atoms.at(atom_names[i])(prog.system, v, fts::StateGraph::kNone))
        s |= lang::Symbol{1} << i;
    return s;
  };
  omega::Lasso word;
  for (const auto& v : result.counterexample->prefix) word.prefix.push_back(symbol_of(v));
  for (const auto& v : result.counterexample->loop) word.loop.push_back(symbol_of(v));
  return !ltl::evaluates(spec, word, alphabet);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<std::string> strings_of(const Json& array) {
  std::vector<std::string> out;
  for (const auto& item : array.as_array()) out.push_back(item.as_string());
  return out;
}

/// Every per-layer metric of the benchmark, zero until a layer reports.
/// A workload whose inputs never reach a layer leaves that layer at 0.
std::map<std::string, double> zero_metrics() {
  std::map<std::string, double> m;
  for (const char* name :
       {"fts.build_s", "fts.explore_s", "fts.explore_nodes", "fts.explore_edges",
        "fts.explore_states_per_s", "fts.valuations", "fts.nodes_per_valuation",
        "fts.bytes_per_node", "fts.check_all_s", "fts.search_s", "fts.label_s",
        "fts.compile_s", "fts.search_us_per_product_state", "fts.product_states",
        "fts.product_fill", "fts.explore_per_touched", "analysis.model_lint_s",
        "analysis.subsume_s", "analysis.implies_calls", "ltl.parse_s", "ltl.normalize_s",
        "ltl.normalize_steps", "ltl.compile_s", "ltl.automaton_states", "ltl.to_nba_s",
        "ltl.nba_states", "ltl.refused_share", "core.classify_s", "omega.inclusion_s",
        "omega.inclusion_states", "omega.undecided_share", "serve.json_parse_us",
        "serve.json_dump_us", "serve.handle_us.check_hit", "serve.handle_us.classify",
        "serve.handle_us.check_miss", "serve.handle_us.invalidate",
        "serve.resolve_model_us", "serve.verdict_hit_rate", "serve.formula_hit_rate",
        "serve.subsume_hits", "serve.implication_checks", "serve.batch_dedups"})
    m[name] = 0.0;
  return m;
}

// ------------------------------------------------------------- ladders ---

/// Both ladders: per model, build → explore → model lint → check_all, then
/// the NBA tableau of each ¬spec the checker had to fall back on.
Json run_ladder(const Json& plan, std::map<std::string, double>& m) {
  std::vector<Json> answers;
  double explore_nodes = 0, explore_edges = 0, rss_growth = 0;
  double product_states = 0, product_bound = 0, nodes_per_check = 0;
  double label_s = 0;
  for (const Json& item : plan.find("items")->as_array()) {
    const std::string name = item.find("model")->as_string();
    const std::vector<std::string> texts = strings_of(*item.find("specs"));

    std::optional<fts::programs::Program> built;
    m["fts.build_s"] += timed("fts.build", [&] { built.emplace(make_model(name)); });
    const fts::programs::Program& prog = *built;

    std::vector<ltl::Formula> specs;
    m["ltl.parse_s"] += timed("ltl.parse", [&] {
      for (const auto& t : texts) specs.push_back(ltl::parse_formula(t));
    });

    // Explore once on its own for the graph-shape counters. mph-lint does
    // not do this, so the whole step is extra work. malloc_trim first, so
    // the RSS growth is this graph's and not recycled heap.
    extra_s += timed("trace.extra", [&] {
      malloc_trim(0);
      const double rss_before = rss_bytes();
      fts::ExploreResult ex;
      m["fts.explore_s"] += timed("fts.explore", [&] {
        ex = fts::explore(prog.system, Budget().with_state_cap(kStateCap));
      });
      rss_growth += std::max(0.0, rss_bytes() - rss_before);
      explore_nodes += static_cast<double>(ex.graph.nodes.size());
      std::set<fts::Valuation> valuations;
      for (const auto& node : ex.graph.nodes) valuations.insert(node.valuation);
      m["fts.valuations"] += static_cast<double>(valuations.size());
      for (const auto& out : ex.graph.edges) explore_edges += static_cast<double>(out.size());
    });

    analysis::DiagnosticEngine lint;
    m["analysis.model_lint_s"] += timed("analysis.model_lint", [&] {
      analysis::run_passes(analysis::Subject::of(prog.system, "model '" + name + "'"), lint);
    });

    std::vector<fts::CheckResult> results;
    m["fts.check_all_s"] += timed("fts.check_all", [&] {
      results = fts::check_all(prog.system, specs, prog.atoms);
    });
    double batch_label = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const fts::CheckResult& r = results[i];
      const fts::CheckStats& s = r.stats;
      m["fts.search_s"] += s.search_seconds;
      m["fts.compile_s"] += s.compile_seconds;
      batch_label = std::max(batch_label, s.label_seconds);  // shared by the batch
      product_states += static_cast<double>(s.product_states);
      product_bound += static_cast<double>(s.product_bound);
      nodes_per_check += static_cast<double>(s.state_graph_nodes);
      const bool complete = is_complete(r.outcome);
      const bool replayed = complete && !r.holds && replay_violates(prog, specs[i], r);
      answers.push_back(JsonWriter()
                            .field("model", name)
                            .field("spec", texts[i])
                            .field("verdict", !complete ? "unknown"
                                              : r.holds ? "holds"
                                                        : "violated")
                            .field("replayed", replayed)
                            .build());
      if (s.nba_fallback) {
        // check_all built this tableau already and does not report its
        // size or time; building it again here is extra work.
        const auto alphabet = lang::Alphabet::of_props(specs[i].atoms());
        extra_s += timed("trace.extra", [&] {
          m["ltl.to_nba_s"] += timed("ltl.to_nba", [&] {
            auto nba = ltl::to_nba(ltl::f_not(specs[i]), alphabet,
                                   Budget().with_state_cap(kStateCap));
            if (nba.complete())
              m["ltl.nba_states"] += static_cast<double>(nba.value->state_count());
          });
        });
      }
    }
    label_s += batch_label;
  }
  m["fts.label_s"] = label_s;
  m["fts.explore_nodes"] = explore_nodes;
  m["fts.explore_edges"] = explore_edges;
  m["fts.explore_states_per_s"] = ratio(explore_nodes, m["fts.explore_s"]);
  m["fts.nodes_per_valuation"] = ratio(explore_nodes, m["fts.valuations"]);
  m["fts.bytes_per_node"] = ratio(rss_growth, explore_nodes);
  m["fts.product_states"] = product_states;
  m["fts.product_fill"] = ratio(product_states, product_bound);
  m["fts.search_us_per_product_state"] = ratio(m["fts.search_s"] * 1e6, product_states);
  m["fts.explore_per_touched"] = ratio(nodes_per_check, product_states);
  return Json::array(std::move(answers));
}

// -------------------------------------------------------- spec battery ---

/// Exact classification split by layer — the steps ltl::exact_classification
/// takes: normalize (ltl), compile the normal form (ltl), classify the
/// automaton (core). A refused rewrite takes exact_classification's own NBA
/// route, timed as core.classify.
std::string classify_traced(const ltl::Formula& f, std::map<std::string, double>& m,
                            double& refused) {
  std::optional<ltl::NormalizeResult> nr;
  m["ltl.normalize_s"] += timed("ltl.normalize", [&] { nr.emplace(ltl::normalize(f)); });
  m["ltl.normalize_steps"] += static_cast<double>(nr->steps);
  std::optional<core::Classification> cls;
  if (nr->complete()) {
    std::vector<std::string> names = f.atoms();
    for (const auto& a : nr->form.atoms())
      if (std::find(names.begin(), names.end(), a) == names.end()) names.push_back(a);
    if (names.empty()) names.push_back("p");
    const auto alphabet = lang::Alphabet::of_props(names);
    std::optional<omega::DetOmega> det;
    m["ltl.compile_s"] += timed("ltl.compile", [&] {
      det = ltl::compile_hierarchy_form(nr->form, alphabet);
    });
    if (det) {
      m["ltl.automaton_states"] += static_cast<double>(det->state_count());
      m["core.classify_s"] += timed("core.classify", [&] { cls = core::classify(*det); });
    }
  }
  if (!cls) {
    refused += 1;
    m["core.classify_s"] += timed("core.classify", [&] {
      if (auto exact = ltl::exact_classification(f)) cls = exact->value;
    });
  }
  return cls ? core::to_string(cls->lowest()) : "unknown";
}

/// analysis::implies, split by layer: both tableaux (ltl), then inclusion
/// (omega). Unknown where implies gives Unknown.
omega::InclusionVerdict implies_traced(const ltl::Formula& stronger, const ltl::Formula& weaker,
                                       const analysis::SubsumeOptions& opts,
                                       std::map<std::string, double>& m) {
  std::vector<std::string> atoms = stronger.atoms();
  for (const auto& a : weaker.atoms())
    if (std::find(atoms.begin(), atoms.end(), a) == atoms.end()) atoms.push_back(a);
  if (atoms.size() > opts.max_atoms) return omega::InclusionVerdict::Unknown;
  if (atoms.empty()) atoms.push_back("p");
  const auto alphabet = lang::Alphabet::of_props(atoms);
  try {
    Budgeted<omega::Nba> a, b;
    m["ltl.to_nba_s"] +=
        timed("ltl.to_nba", [&] { a = ltl::to_nba(stronger, alphabet, opts.budget); });
    if (!a.complete()) return omega::InclusionVerdict::Unknown;
    m["ltl.to_nba_s"] +=
        timed("ltl.to_nba", [&] { b = ltl::to_nba(weaker, alphabet, opts.budget); });
    if (!b.complete()) return omega::InclusionVerdict::Unknown;
    m["ltl.nba_states"] += static_cast<double>(a.value->state_count() + b.value->state_count());
    omega::InclusionOptions io;
    io.budget = opts.budget;
    omega::InclusionResult ir;
    m["omega.inclusion_s"] +=
        timed("omega.inclusion", [&] { ir = omega::included(*a.value, *b.value, io); });
    m["omega.inclusion_states"] += static_cast<double>(ir.product_states);
    return ir.verdict;
  } catch (const std::invalid_argument&) {
    return omega::InclusionVerdict::Unknown;  // outside the tableau fragment
  }
}

Json run_battery(const Json& plan, std::map<std::string, double>& m) {
  std::vector<Json> classes;
  double formulas = 0, refused = 0;
  for (const Json& family : plan.find("classify")->as_array()) {
    for (const auto& text : strings_of(family)) {
      ltl::Formula f = ltl::f_true();
      m["ltl.parse_s"] += timed("ltl.parse", [&] { f = ltl::parse_formula(text); });
      formulas += 1;
      classes.push_back(JsonWriter()
                            .field("formula", text)
                            .field("class", classify_traced(f, m, refused))
                            .build());
    }
  }
  m["ltl.refused_share"] = ratio(refused, formulas);

  // Subsumption, direction by direction, as analysis::lint_subsume decides
  // it through analysis::implies, with the layers it calls split out.
  const std::vector<std::string> texts = strings_of(*plan.find("subsume"));
  std::vector<ltl::Formula> reqs;
  m["ltl.parse_s"] += timed("ltl.parse", [&] {
    for (const auto& t : texts) reqs.push_back(ltl::parse_formula(t));
  });
  const analysis::SubsumeOptions sopts;
  const std::size_t n = reqs.size();
  std::vector<std::vector<omega::InclusionVerdict>> verdicts(
      n, std::vector<omega::InclusionVerdict>(n, omega::InclusionVerdict::Unknown));
  std::vector<Json> directions;
  double undecided = 0, checked = 0;
  m["analysis.subsume_s"] += timed("analysis.subsume", [&] {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        checked += 1;
        verdicts[i][j] = implies_traced(reqs[i], reqs[j], sopts, m);
        if (verdicts[i][j] == omega::InclusionVerdict::Unknown) undecided += 1;
        directions.push_back(JsonWriter()
                                 .field("stronger", texts[i])
                                 .field("weaker", texts[j])
                                 .field("verdict", std::string(omega::to_string(verdicts[i][j])))
                                 .build());
      }
  });
  m["analysis.implies_calls"] = checked;
  m["omega.undecided_share"] = ratio(undecided, checked);

  // The pairs lint_subsume reports: each unordered pair once.
  std::vector<Json> pairs;
  auto pair = [&](std::size_t stronger, std::size_t weaker, bool equivalent) {
    pairs.push_back(JsonWriter()
                        .field("stronger", texts[stronger])
                        .field("weaker", texts[weaker])
                        .field("equivalent", equivalent)
                        .build());
  };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool fwd = verdicts[i][j] == omega::InclusionVerdict::Included;
      const bool bwd = verdicts[j][i] == omega::InclusionVerdict::Included;
      if (fwd || bwd) pair(fwd ? i : j, fwd ? j : i, fwd && bwd);
    }
  return JsonWriter()
      .field("classes", Json::array(std::move(classes)))
      .field("directions", Json::array(std::move(directions)))
      .field("pairs", Json::array(std::move(pairs)))
      .field("unknown", static_cast<std::uint64_t>(undecided))
      .build();
}

// ------------------------------------------------------------ serve mix ---

/// The request stream through an in-process serve::Server, split into the
/// three steps handle_line performs: Json::parse, Server::handle, dump.
Json run_serve(const Json& plan, std::map<std::string, double>& m) {
  serve::Server server;
  std::vector<Json> responses;
  std::vector<double> parse_us, dump_us, resolve_us, handle_line_us;
  std::map<std::string, std::vector<double>> handle_us;
  for (const auto& line : strings_of(*plan.find("requests"))) {
    const int root = tracer.open("serve.handle_line");
    Json request;
    parse_us.push_back(1e6 * timed("serve.json_parse", [&] { request = Json::parse(line); }));
    const std::string op = request.find("op")->as_string();
    Json response;
    const double h = 1e6 * timed("serve.handle." + op, [&] { response = server.handle(request); });
    std::string text;
    dump_us.push_back(1e6 * timed("serve.json_dump", [&] { text = response.dump(); }));
    handle_line_us.push_back(1e6 * tracer.close(root));

    std::string kind = op;
    if (op == "check") {
      bool all_hit = true;
      if (const Json* results = response.find("results"))
        for (const auto& r : results->as_array())
          if (const Json* c = r.find("cache"); !c || c->as_string() == "miss") all_hit = false;
      kind = all_hit ? "check_hit" : "check_miss";
      // Model resolution on its own (the server resolves inside handle, so
      // this is extra work).
      extra_s += timed("trace.extra", [&] {
        resolve_us.push_back(1e6 * timed("serve.resolve_model", [&] {
          serve::resolve_model(*request.find("model"));
        }));
      });
    }
    handle_us[kind].push_back(h);
    responses.push_back(Json::string(text));
  }
  m["serve.json_parse_us"] = median(parse_us);
  m["serve.json_dump_us"] = median(dump_us);
  m["serve.resolve_model_us"] = median(resolve_us);
  for (const char* kind : {"check_hit", "check_miss", "classify", "invalidate"})
    m[std::string("serve.handle_us.") + kind] = median(handle_us[kind]);

  const Json stats = server.stats_json();
  const Json& caches = *stats.find("caches");
  auto num = [](const Json& obj, const char* key) { return obj.find(key)->as_number(); };
  const Json& verdict = *caches.find("verdict");
  const Json& formula = *caches.find("formula");
  m["serve.verdict_hit_rate"] =
      ratio(num(verdict, "hits"), num(verdict, "hits") + num(verdict, "misses"));
  m["serve.formula_hit_rate"] =
      ratio(num(formula, "hits"), num(formula, "hits") + num(formula, "misses"));
  m["serve.subsume_hits"] = static_cast<double>(server.subsume_hits());
  m["serve.implication_checks"] = static_cast<double>(server.implication_checks());
  m["serve.batch_dedups"] = static_cast<double>(server.batch_dedups());

  std::vector<Json> per_request;
  for (double us : handle_line_us) per_request.push_back(Json::number(us));
  return JsonWriter()
      .field("responses", Json::array(std::move(responses)))
      .field("handle_line_us", Json::array(std::move(per_request)))
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else {
      std::cerr << "usage: mph-perftrace [--spans FILE] < PLAN\n";
      return 2;
    }
  }
  std::string line;
  if (!std::getline(std::cin, line)) {
    std::cerr << "mph-perftrace: no plan on stdin\n";
    return 2;
  }
  try {
    const Json plan = Json::parse(line);
    const std::string workload = plan.find("workload")->as_string();
    std::map<std::string, double> metrics = zero_metrics();
    Json answers;
    const int root = tracer.open("workload");
    if (workload == "ladder-holds" || workload == "ladder-violated")
      answers = run_ladder(plan, metrics);
    else if (workload == "spec-battery")
      answers = run_battery(plan, metrics);
    else if (workload == "serve-mix")
      answers = run_serve(plan, metrics);
    else
      throw std::invalid_argument("unknown workload '" + workload + "'");
    const double wall = tracer.close(root);
    if (!spans_path.empty()) tracer.write(spans_path);

    JsonWriter out_metrics;
    for (const auto& [name, value] : metrics) out_metrics.field(name, value);
    std::cout << JsonWriter()
                     .field("answers", answers)
                     .field("metrics", out_metrics.build())
                     .field("wall_s", wall)
                     .field("extra_s", extra_s)
                     .build()
                     .dump()
              << "\n";
  } catch (const std::exception& e) {
    std::cerr << "mph-perftrace: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
