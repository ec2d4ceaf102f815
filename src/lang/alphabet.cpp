#include "src/lang/alphabet.hpp"

#include <set>

#include "src/support/check.hpp"

namespace mph::lang {

Alphabet Alphabet::plain(std::vector<std::string> letters) {
  MPH_REQUIRE(!letters.empty(), "alphabet must be non-empty");
  MPH_REQUIRE(letters.size() <= 1024, "alphabets are limited to 1024 symbols");
  MPH_REQUIRE(std::set<std::string>(letters.begin(), letters.end()).size() == letters.size(),
              "duplicate letter names");
  Alphabet a;
  a.names_ = std::move(letters);
  return a;
}

Alphabet Alphabet::of_props(std::vector<std::string> props) {
  MPH_REQUIRE(!props.empty() && props.size() <= kMaxProps,
              "propositional alphabets support 1..10 props");
  MPH_REQUIRE(std::set<std::string>(props.begin(), props.end()).size() == props.size(),
              "duplicate proposition names");
  Alphabet a;
  a.props_ = std::move(props);
  const std::size_t n = std::size_t{1} << a.props_.size();
  a.names_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::string name = "{";
    for (std::size_t i = 0; i < a.props_.size(); ++i) {
      if (s & (std::size_t{1} << i)) {
        if (name.size() > 1) name += ",";
        name += a.props_[i];
      }
    }
    name += "}";
    a.names_.push_back(std::move(name));
  }
  return a;
}

const std::string& Alphabet::name(Symbol s) const {
  MPH_REQUIRE(s < names_.size(), "symbol out of range");
  return names_[s];
}

std::optional<Symbol> Alphabet::find(std::string_view name) const {
  for (Symbol s = 0; s < names_.size(); ++s)
    if (names_[s] == name) return s;
  return std::nullopt;
}

const std::string& Alphabet::prop_name(std::size_t i) const {
  MPH_REQUIRE(i < props_.size(), "proposition index out of range");
  return props_[i];
}

std::optional<std::size_t> Alphabet::prop_index(std::string_view name) const {
  for (std::size_t i = 0; i < props_.size(); ++i)
    if (props_[i] == name) return i;
  return std::nullopt;
}

bool Alphabet::holds(Symbol s, std::size_t prop) const {
  MPH_REQUIRE(prop_based(), "holds() requires a propositional alphabet");
  MPH_REQUIRE(s < names_.size() && prop < props_.size(), "symbol or proposition out of range");
  return (s >> prop) & 1;
}

bool Alphabet::operator==(const Alphabet& other) const {
  return names_ == other.names_ && props_ == other.props_;
}

}  // namespace mph::lang
