#include "cq/query.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace cqa {

Query::Query(std::vector<Atom> atoms) {
  for (const Atom& a : atoms) AddAtom(a);
}

void Query::AddAtom(const Atom& atom) {
  if (std::find(atoms_.begin(), atoms_.end(), atom) == atoms_.end()) {
    atoms_.push_back(atom);
  }
}

VarSet Query::Vars() const {
  VarSet out;
  for (const Atom& a : atoms_) {
    VarSet v = a.Vars();
    out.insert(v.begin(), v.end());
  }
  return out;
}

bool Query::HasSelfJoin() const {
  std::unordered_set<SymbolId> seen;
  for (const Atom& a : atoms_) {
    if (!seen.insert(a.relation()).second) return true;
  }
  return false;
}

Query Query::Substitute(SymbolId var, SymbolId value) const {
  Query out;
  for (const Atom& a : atoms_) out.AddAtom(a.Substitute(var, value));
  return out;
}

Query Query::RenameVar(SymbolId from, SymbolId to) const {
  Query out;
  for (const Atom& a : atoms_) out.AddAtom(a.RenameVar(from, to));
  return out;
}

Query Query::WithoutAtom(int i) const {
  Query out;
  for (int j = 0; j < size(); ++j) {
    if (j != i) out.AddAtom(atoms_[j]);
  }
  return out;
}

int Query::AtomIndexByRelation(SymbolId relation) const {
  for (int i = 0; i < size(); ++i) {
    if (atoms_[i].relation() == relation) return i;
  }
  return -1;
}

Result<Schema> Query::InducedSchema() const {
  Schema schema;
  for (const Atom& a : atoms_) {
    CQA_RETURN_NOT_OK(schema.AddRelation(a.relation(), a.arity(),
                                         a.key_arity()));
  }
  return schema;
}

bool Query::operator==(const Query& o) const {
  if (size() != o.size()) return false;
  for (const Atom& a : atoms_) {
    if (std::find(o.atoms_.begin(), o.atoms_.end(), a) == o.atoms_.end()) {
      return false;
    }
  }
  return true;
}

std::string Query::ToString() const {
  std::ostringstream os;
  for (int i = 0; i < size(); ++i) {
    if (i > 0) os << ", ";
    os << atoms_[i].ToString();
  }
  return os.str();
}

}  // namespace cqa
