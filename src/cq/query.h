#ifndef CQA_CQ_QUERY_H_
#define CQA_CQ_QUERY_H_

#include <string>
#include <vector>

#include "cq/atom.h"
#include "db/schema.h"
#include "util/status.h"

/// \file
/// A Boolean conjunctive query: a finite *set* of atoms, representing the
/// existential closure of their conjunction (Section 3). Atom order is kept
/// stable for deterministic output, but duplicates are removed.

namespace cqa {

class Query {
 public:
  Query() = default;
  explicit Query(std::vector<Atom> atoms);

  /// Adds an atom unless an identical atom is already present.
  void AddAtom(const Atom& atom);

  const std::vector<Atom>& atoms() const { return atoms_; }
  int size() const { return static_cast<int>(atoms_.size()); }
  bool empty() const { return atoms_.empty(); }
  const Atom& atom(int i) const { return atoms_[i]; }

  /// vars(q): all variables of the query.
  VarSet Vars() const;

  /// True iff some relation name occurs in two distinct atoms.
  bool HasSelfJoin() const;

  /// Replaces variable `var` by constant `value` in every atom.
  /// Note: substitution can merge previously distinct atoms.
  Query Substitute(SymbolId var, SymbolId value) const;

  /// Replaces variable `from` with variable `to` in every atom.
  Query RenameVar(SymbolId from, SymbolId to) const;

  /// The query q \ {atoms_[i]}.
  Query WithoutAtom(int i) const;

  /// Index of the (unique, if no self-join) atom with this relation, or -1.
  int AtomIndexByRelation(SymbolId relation) const;

  /// Schema induced by the atoms' signatures. Fails on inconsistent use of
  /// a relation name (different arity/key in two atoms).
  Result<Schema> InducedSchema() const;

  bool operator==(const Query& o) const;

  /// e.g. "R(x, y | z), S(y | x)".
  std::string ToString() const;

 private:
  std::vector<Atom> atoms_;
};

}  // namespace cqa

#endif  // CQA_CQ_QUERY_H_
