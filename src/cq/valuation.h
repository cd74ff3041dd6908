#ifndef CQA_CQ_VALUATION_H_
#define CQA_CQ_VALUATION_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cq/atom.h"
#include "db/fact.h"

/// \file
/// A valuation: a mapping from variables to constants, extended to be the
/// identity on constants (Section 3).
///
/// Stored as a flat (variable, value) vector: queries bind a handful of
/// variables, so the linear probe beats hashing in the matcher's
/// bind/unbind inner loop, and backtracking pops from the tail for free.

namespace cqa {

class Valuation {
 public:
  Valuation() = default;

  /// The binding of `var`, if any.
  std::optional<SymbolId> Get(SymbolId var) const {
    for (const auto& [v, value] : entries_) {
      if (v == var) return value;
    }
    return std::nullopt;
  }

  /// Binds `var` to `value`. Returns false (and leaves the valuation
  /// unchanged) when `var` is already bound to a different value.
  bool Bind(SymbolId var, SymbolId value);

  void Unbind(SymbolId var);

  size_t size() const { return entries_.size(); }

  /// The bindings, in binding order.
  const std::vector<std::pair<SymbolId, SymbolId>>& entries() const {
    return entries_;
  }

  /// Resolves a term: constants map to themselves, variables to their
  /// binding (nullopt when unbound).
  std::optional<SymbolId> Resolve(const Term& t) const {
    if (t.is_const()) return t.id();
    return Get(t.id());
  }

  /// θ(F): every variable of `atom` must be bound (or be a constant).
  Fact Apply(const Atom& atom) const;

  std::string ToString() const;

 private:
  std::vector<std::pair<SymbolId, SymbolId>> entries_;
};

}  // namespace cqa

#endif  // CQA_CQ_VALUATION_H_
