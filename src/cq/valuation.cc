#include "cq/valuation.h"

#include <cassert>
#include <sstream>

namespace cqa {

bool Valuation::Bind(SymbolId var, SymbolId value) {
  for (const auto& [v, existing] : entries_) {
    if (v == var) return existing == value;
  }
  entries_.emplace_back(var, value);
  return true;
}

void Valuation::Unbind(SymbolId var) {
  for (size_t i = entries_.size(); i > 0; --i) {
    if (entries_[i - 1].first == var) {
      entries_.erase(entries_.begin() + (i - 1));
      return;
    }
  }
}

Fact Valuation::Apply(const Atom& atom) const {
  std::vector<SymbolId> values;
  values.reserve(atom.terms().size());
  for (const Term& t : atom.terms()) {
    std::optional<SymbolId> v = Resolve(t);
    assert(v.has_value() && "valuation must cover the atom");
    values.push_back(*v);
  }
  return Fact(atom.relation(), std::move(values), atom.key_arity());
}

std::string Valuation::ToString() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [var, value] : entries_) {
    if (!first) os << ", ";
    first = false;
    os << SymbolName(var) << "->" << SymbolName(value);
  }
  os << "}";
  return os.str();
}

}  // namespace cqa
