#include "src/fts/spec_model.hpp"

#include "src/fts/programs.hpp"
#include "src/support/check.hpp"

namespace mph::fts {

int wrap_into(int value, int lo, int hi) {
  const int span = hi - lo + 1;
  int off = (value - lo) % span;
  if (off < 0) off += span;
  return lo + off;
}

Fts FtsSpec::build() const {
  Fts f;
  for (const auto& v : vars) f.add_var(v.name, v.lo, v.hi, v.init);
  for (const auto& t : transitions) {
    // Capture by value: the spec may go away before the system is explored.
    auto guard = t.guard;
    auto effects = t.effects;
    auto domains = vars;
    f.add_transition(
        t.name, t.fairness,
        [guard](const Valuation& v) {
          for (const auto& c : guard) {
            const int x = v[c.var];
            if (c.op == 0 && !(x <= c.rhs)) return false;
            if (c.op == 1 && !(x >= c.rhs)) return false;
            if (c.op == 2 && !(x == c.rhs)) return false;
          }
          return true;
        },
        [effects, domains](Valuation& v) {
          for (const auto& e : effects)
            v[e.var] = wrap_into(v[e.src] + e.add, domains[e.var].lo, domains[e.var].hi);
        });
  }
  return f;
}

AtomMap FtsSpec::atoms() const {
  AtomMap out;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const int hi = vars[i].hi, lo = vars[i].lo;
    out[vars[i].name + "hi"] = [i, hi](const Fts&, const Valuation& v, int) {
      return v[i] == hi;
    };
    out[vars[i].name + "lo"] = [i, lo](const Fts&, const Valuation& v, int) {
      return v[i] == lo;
    };
  }
  return out;
}

namespace {

/// The alarm latch shared by the symbolic families: a variable that never
/// leaves its initial value because its only setter is guarded on the alarm
/// already being raised. Interval analysis proves alarm = [0,0], making the
/// escalate transition dead (MPH-F010), the domain strictly tightened
/// (MPH-F011), and `G alarmlo` statically provable.
void add_alarm_latch(FtsSpec& spec) {
  const std::size_t alarm = spec.vars.size();
  spec.vars.push_back({"alarm", 0, 2, 0});
  FtsSpec::Trans esc;
  esc.name = "escalate";
  esc.guard.push_back({alarm, 1, 1});           // alarm >= 1: never, concretely
  esc.effects.push_back({alarm, alarm, 1});
  spec.transitions.push_back(std::move(esc));
}

}  // namespace

FtsSpec symbolic_dining(std::size_t n) {
  MPH_REQUIRE(n >= 2, "symbolic_dining: need at least 2 philosophers");
  FtsSpec spec;
  const auto pc = [](std::size_t i) { return i; };
  const auto fork = [n](std::size_t i) { return n + (i % n); };
  for (std::size_t i = 0; i < n; ++i)
    spec.vars.push_back({"pc" + std::to_string(i), 0, 2, 0});
  for (std::size_t i = 0; i < n; ++i)
    spec.vars.push_back({"fork" + std::to_string(i), 0, 1, 0});
  for (std::size_t i = 0; i < n; ++i) {
    FtsSpec::Trans grab_left;
    grab_left.name = "grab_left" + std::to_string(i);
    grab_left.fairness = Fairness::Weak;
    grab_left.guard.push_back({pc(i), 2, 0});
    grab_left.guard.push_back({fork(i), 2, 0});
    grab_left.effects.push_back({pc(i), pc(i), 1});
    grab_left.effects.push_back({fork(i), fork(i), 1});
    spec.transitions.push_back(std::move(grab_left));

    FtsSpec::Trans grab_right;
    grab_right.name = "grab_right" + std::to_string(i);
    grab_right.fairness = Fairness::Weak;
    grab_right.guard.push_back({pc(i), 2, 1});
    grab_right.guard.push_back({fork(i + 1), 2, 0});
    grab_right.effects.push_back({pc(i), pc(i), 1});
    grab_right.effects.push_back({fork(i + 1), fork(i + 1), 1});
    spec.transitions.push_back(std::move(grab_right));

    // put_down wraps the program counter 2 → 0 through the modular effect —
    // the concrete wrap witness for MPH-F012 — and releases both forks.
    FtsSpec::Trans put_down;
    put_down.name = "put_down" + std::to_string(i);
    put_down.fairness = Fairness::Weak;
    put_down.guard.push_back({pc(i), 2, 2});
    put_down.effects.push_back({pc(i), pc(i), 1});
    put_down.effects.push_back({fork(i), fork(i), -1});
    put_down.effects.push_back({fork(i + 1), fork(i + 1), -1});
    spec.transitions.push_back(std::move(put_down));
  }
  add_alarm_latch(spec);
  return spec;
}

FtsSpec symbolic_ring(std::size_t n) {
  MPH_REQUIRE(n >= 2, "symbolic_ring: need at least 2 ring slots");
  FtsSpec spec;
  for (std::size_t i = 0; i < n; ++i)
    spec.vars.push_back({"token" + std::to_string(i), 0, 1, i == 0 ? 1 : 0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    FtsSpec::Trans pass;
    pass.name = "pass" + std::to_string(i);
    pass.fairness = Fairness::Weak;
    pass.guard.push_back({i, 2, 1});
    pass.guard.push_back({next, 2, 0});
    pass.effects.push_back({i, i, -1});
    pass.effects.push_back({next, next, 1});
    spec.transitions.push_back(std::move(pass));
  }
  add_alarm_latch(spec);
  return spec;
}

std::optional<FtsSpec> find_symbolic_model(std::string_view name) {
  if (const auto n = programs::member_size(programs::kDiningFamily, name))
    return symbolic_dining(*n);
  if (const auto n = programs::member_size(programs::kRingFamily, name))
    return symbolic_ring(*n);
  return std::nullopt;
}

}  // namespace mph::fts
