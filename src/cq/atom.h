#ifndef CQA_CQ_ATOM_H_
#define CQA_CQ_ATOM_H_

#include <set>
#include <string>
#include <vector>

#include "cq/term.h"
#include "db/fact.h"
#include "util/interner.h"

/// \file
/// An atom R(x⃗, y⃗): a relation name applied to terms, where the first
/// `key_arity` positions are the primary key. key(F) denotes the set of
/// variables in key positions; vars(F) the set of all variables (Section 3).

namespace cqa {

/// Set of variables, ordered for deterministic iteration.
using VarSet = std::set<SymbolId>;

class Atom {
 public:
  Atom() : relation_(0), key_arity_(0) {}
  Atom(SymbolId relation, std::vector<Term> terms, int key_arity)
      : relation_(relation), terms_(std::move(terms)), key_arity_(key_arity) {}

  /// Convenience constructor: terms given as strings, where names that
  /// start with a quote (') are constants and everything else a variable.
  static Atom Make(std::string_view relation,
                   const std::vector<std::string>& terms, int key_arity);

  SymbolId relation() const { return relation_; }
  const std::vector<Term>& terms() const { return terms_; }
  int arity() const { return static_cast<int>(terms_.size()); }
  int key_arity() const { return key_arity_; }

  /// key(F): variables occurring in the key positions.
  VarSet KeyVars() const;
  /// vars(F): variables occurring anywhere in the atom.
  VarSet Vars() const;

  /// True iff the atom has no variables.
  bool IsGround() const;
  /// True iff every position is a key position.
  bool IsAllKey() const { return key_arity_ == arity(); }

  /// Replaces every occurrence of variable `var` with constant `value`.
  Atom Substitute(SymbolId var, SymbolId value) const;

  /// Replaces every occurrence of variable `from` with variable `to`.
  Atom RenameVar(SymbolId from, SymbolId to) const;

  /// Interprets a ground atom as a fact. Must be ground.
  Fact ToFact() const;

  /// True if `fact` could be θ(F) for some valuation θ: same relation,
  /// constants agree, repeated variables consistent.
  bool Matches(const Fact& fact) const;

  bool operator==(const Atom& o) const {
    return relation_ == o.relation_ && key_arity_ == o.key_arity_ &&
           terms_ == o.terms_;
  }
  bool operator!=(const Atom& o) const { return !(*this == o); }
  bool operator<(const Atom& o) const;

  /// e.g. "R(x, y | z)" — the bar separates key from non-key positions.
  std::string ToString() const;

 private:
  SymbolId relation_;
  std::vector<Term> terms_;
  int key_arity_;
};

}  // namespace cqa

#endif  // CQA_CQ_ATOM_H_
