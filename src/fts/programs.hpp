// The paper's worked programs (§1, §4): mutual-exclusion algorithms and a
// producer–consumer loop, each packaged with the atom vocabulary its
// specifications use, plus the dining-N / ring-N scaling families. The
// registry at the end is the one map from a model name to a program that
// mph-lint, mph-serve and the benches share.
//
// Location encoding for mutex processes: 0 = noncritical (N), 1 = trying
// (T/W), 2 = critical (C); atoms "t<i>" and "c<i>" expose the trying and
// critical locations of process i (1-based).
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "src/fts/fts.hpp"

namespace mph::fts::programs {

struct Program {
  Fts system;
  AtomMap atoms;
};

/// Peterson's two-process mutual exclusion. Entering and exiting the
/// critical section are weakly fair; deciding to compete is not (a process
/// may stay noncritical forever). Satisfies both mutual exclusion and
/// accessibility.
Program peterson();

/// The introduction's defective "implementation": processes may start
/// trying, but nothing ever admits them. Satisfies mutual exclusion,
/// violates accessibility — the canonical underspecification witness.
Program trivial_mutex();

/// Semaphore-based mutual exclusion for `n_processes` (2..4). The acquire
/// transitions carry the given fairness: with Weak the semaphore may starve
/// a process (enabledness flickers), with Strong accessibility holds —
/// the paper's motivation for strong fairness / simple reactivity.
Program semaphore_mutex(std::size_t n_processes, Fairness acquire_fairness);

/// Bounded producer–consumer over a counter in [0, capacity]; producing is
/// unfair (the producer may stop), consuming is weakly fair. Atoms "empty",
/// "full", "nonempty".
Program producer_consumer(int capacity);

/// Dining philosophers for `n` philosophers (2..12), each grabbing the left
/// fork then the right. The naive protocol can deadlock (everyone holds the
/// left fork); atom "deadlock" exposes it, atoms "eat<i>" the eating states.
/// Pick-up and eating transitions are weakly fair.
Program dining(std::size_t n);

/// Chang–Roberts leader election on a unidirectional ring of `n` nodes
/// (2..10) with distinct ids 1..n, every node initiating. One-slot channels;
/// a node drops smaller ids, forwards bigger ones (blocking while its
/// outgoing slot is full), and elects itself on seeing its own id. All
/// receives are weakly fair. Atoms: "elected" (some leader chosen),
/// "maxleader" (the leader is node n — the only possible winner), "quiet"
/// (no message in flight). Under weak fairness "F elected" and
/// "G(elected -> maxleader)" both hold.
Program ring_leader(std::size_t n);

/// A scaling family: member "<prefix>N" is make(N), for N in min_n..max_n
/// spelled in canonical decimal (no sign, no leading zero).
struct Family {
  std::string_view prefix;
  std::size_t min_n, max_n;
  Program (*make)(std::size_t);
};
inline constexpr Family kDiningFamily{"dining-", 2, 12, &dining};
inline constexpr Family kRingFamily{"ring-", 2, 10, &ring_leader};

struct NamedModel {
  std::string_view name;
  Program (*make)();
};

/// The fixed-name models (what `mph-lint --models` lints) and the families,
/// each in `--list-models` order.
std::span<const NamedModel> named_models();
std::span<const Family> model_families();

/// N when `name` is a canonical, in-range member of `family`, else nullopt.
std::optional<std::size_t> member_size(const Family& family, std::string_view name);

/// Builds the built-in model `name`, or nullopt when nothing is so named.
/// A family prefix without a valid N ("dining-99", "dining-", "ring-007")
/// throws std::invalid_argument naming the valid range.
std::optional<Program> find_model(std::string_view name);

/// Whether find_model(name) would build a program, decided without building
/// one; throws exactly where find_model throws.
bool has_model(std::string_view name);

}  // namespace mph::fts::programs
