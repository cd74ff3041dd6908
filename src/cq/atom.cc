#include "cq/atom.h"

#include <cassert>
#include <sstream>

namespace cqa {

std::string Term::ToString() const {
  if (is_var()) return SymbolName(id_);
  return "'" + SymbolName(id_) + "'";
}

Atom Atom::Make(std::string_view relation,
                const std::vector<std::string>& terms, int key_arity) {
  std::vector<Term> ts;
  ts.reserve(terms.size());
  for (const std::string& t : terms) {
    if (!t.empty() && t[0] == '\'') {
      std::string name = t.substr(1);
      if (!name.empty() && name.back() == '\'') name.pop_back();
      ts.push_back(Term::Const(name));
    } else {
      ts.push_back(Term::Var(t));
    }
  }
  return Atom(InternSymbol(relation), std::move(ts), key_arity);
}

VarSet Atom::KeyVars() const {
  VarSet out;
  for (int i = 0; i < key_arity_; ++i) {
    if (terms_[i].is_var()) out.insert(terms_[i].id());
  }
  return out;
}

VarSet Atom::Vars() const {
  VarSet out;
  for (const Term& t : terms_) {
    if (t.is_var()) out.insert(t.id());
  }
  return out;
}

bool Atom::IsGround() const {
  for (const Term& t : terms_) {
    if (t.is_var()) return false;
  }
  return true;
}

Atom Atom::Substitute(SymbolId var, SymbolId value) const {
  Atom out = *this;
  for (Term& t : out.terms_) {
    if (t.is_var() && t.id() == var) t = Term::Const(value);
  }
  return out;
}

Atom Atom::RenameVar(SymbolId from, SymbolId to) const {
  Atom out = *this;
  for (Term& t : out.terms_) {
    if (t.is_var() && t.id() == from) t = Term::Var(to);
  }
  return out;
}

Fact Atom::ToFact() const {
  assert(IsGround());
  std::vector<SymbolId> values;
  values.reserve(terms_.size());
  for (const Term& t : terms_) values.push_back(t.id());
  return Fact(relation_, std::move(values), key_arity_);
}

bool Atom::Matches(const Fact& fact) const {
  if (fact.relation() != relation_ || fact.arity() != arity()) return false;
  const std::vector<SymbolId>& v = fact.values();
  for (int i = 0; i < arity(); ++i) {
    // A variable must repeat the value at its first occurrence.
    int first = 0;
    while (terms_[i].is_var() && terms_[first] != terms_[i]) ++first;
    if (v[i] != (terms_[i].is_const() ? terms_[i].id() : v[first])) {
      return false;
    }
  }
  return true;
}

bool Atom::operator<(const Atom& o) const {
  if (relation_ != o.relation_) return relation_ < o.relation_;
  return terms_ < o.terms_;
}

std::string Atom::ToString() const {
  std::ostringstream os;
  os << SymbolName(relation_) << "(";
  for (int i = 0; i < arity(); ++i) {
    if (i > 0) os << (i == key_arity_ ? " | " : ", ");
    os << terms_[i].ToString();
  }
  os << ")";
  return os.str();
}

}  // namespace cqa
