// Finite alphabets Σ, in two flavours:
//   - plain: an explicit list of named letters ("a", "b", ...), the setting of
//     the paper's §2 examples;
//   - propositional: Σ = 2^AP for a finite set of atomic propositions, the
//     setting of the temporal-logic and predicate-automata views (§4–§5).
//     Symbol value s is the bitmask of true propositions.
// Alphabets are small (≤ 1024 symbols, ≤ 10 propositions) because automata
// store dense transition tables indexed by symbol; the paper's canonical
// constructions are over a handful of letters, but randomized cross-checking
// (src/fuzz) deliberately exercises the larger prop-based alphabets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mph::lang {

using Symbol = std::uint32_t;

/// Most atomic propositions a propositional alphabet holds (2^10 symbols).
inline constexpr std::size_t kMaxProps = 10;

class Alphabet {
 public:
  /// Alphabet with explicitly named letters, e.g. {"a","b","c"}.
  static Alphabet plain(std::vector<std::string> letters);

  /// Alphabet 2^AP over atomic propositions; size is 2^|props|.
  /// Symbol s has proposition i true iff bit i of s is set.
  static Alphabet of_props(std::vector<std::string> props);

  std::size_t size() const { return names_.size(); }
  const std::string& name(Symbol s) const;
  std::optional<Symbol> find(std::string_view name) const;

  bool prop_based() const { return !props_.empty(); }
  std::size_t prop_count() const { return props_.size(); }
  const std::string& prop_name(std::size_t i) const;
  std::optional<std::size_t> prop_index(std::string_view name) const;
  /// Whether proposition `prop` holds in symbol `s` (prop-based only).
  bool holds(Symbol s, std::size_t prop) const;

  bool operator==(const Alphabet& other) const;
  bool operator!=(const Alphabet& other) const = default;

 private:
  Alphabet() = default;
  std::vector<std::string> names_;
  std::vector<std::string> props_;  // empty for plain alphabets
};

}  // namespace mph::lang
