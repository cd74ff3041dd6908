#include "fo/rewriter.h"

#include <string>
#include <unordered_map>

#include "core/attack_graph.h"

namespace cqa {

namespace {

/// Fresh-name factory for the universally quantified block variables.
class FreshVars {
 public:
  Result<SymbolId> Next() {
    return TryInternSymbol("$u" + std::to_string(counter_++));
  }

 private:
  int counter_ = 0;
};

/// Replaces every frozen variable by a fresh constant so that attack
/// graphs of subqueries are computed as if those variables were ground
/// (they are bound by outer quantifiers at evaluation time).
Result<Query> FreezeVars(const Query& q, const VarSet& frozen) {
  Query out = q;
  for (SymbolId v : frozen) {
    Result<SymbolId> c = TryInternSymbol("$frozen_" + SymbolName(v));
    if (!c.ok()) return c.status();
    out = out.Substitute(v, *c);
  }
  return out;
}

Result<FormulaPtr> RewriteRec(const Query& q, const VarSet& frozen,
                              FreshVars* fresh) {
  if (q.empty()) return Formula::True();

  Result<Query> frozen_q = FreezeVars(q, frozen);
  if (!frozen_q.ok()) return frozen_q.status();
  Result<AttackGraph> graph = AttackGraph::Compute(*frozen_q);
  if (!graph.ok()) return graph.status();
  std::vector<int> unattacked = graph->UnattackedAtoms();
  if (unattacked.empty()) {
    return Status::InvalidArgument(
        "attack graph is cyclic: no certain FO rewriting exists "
        "(Theorem 1)");
  }
  int fi = unattacked.front();
  const Atom& f = q.atom(fi);

  // Build the universal guard G = R(s⃗, u⃗) with fresh non-key variables,
  // the pattern equalities, and the renaming into the rest query.
  std::vector<Term> guard_terms(f.terms().begin(),
                                f.terms().begin() + f.key_arity());
  std::vector<FormulaPtr> body;
  VarSet key_vars = f.KeyVars();
  // First fresh variable chosen for each distinct non-key variable of F.
  std::unordered_map<SymbolId, SymbolId> rename;
  std::vector<Term> fresh_terms;
  for (int j = f.key_arity(); j < f.arity(); ++j) {
    Result<SymbolId> next = fresh->Next();
    if (!next.ok()) return next.status();
    SymbolId u = *next;
    fresh_terms.push_back(Term::Var(u));
    const Term& t = f.terms()[j];
    if (t.is_const()) {
      // Every block member must carry the constant here.
      body.push_back(Formula::Equals(Term::Var(u), t));
    } else if (key_vars.count(t.id()) || frozen.count(t.id())) {
      // Variable already bound via the key positions, or frozen (a query
      // parameter / bound by an outer quantifier): it acts as a
      // constant, so every block member must agree with it.
      body.push_back(Formula::Equals(Term::Var(u), t));
    } else {
      auto [it, inserted] = rename.emplace(t.id(), u);
      if (!inserted) {
        // Repeated non-key variable: positions must agree.
        body.push_back(
            Formula::Equals(Term::Var(u), Term::Var(it->second)));
      }
    }
  }
  guard_terms.insert(guard_terms.end(), fresh_terms.begin(),
                     fresh_terms.end());
  Atom guard(f.relation(), std::move(guard_terms), f.key_arity());

  // q' = (q \ {F}) with non-key variables of F renamed to the fresh ones.
  Query rest = q.WithoutAtom(fi);
  for (const auto& [from, to] : rename) {
    rest = rest.RenameVar(from, to);
  }
  VarSet frozen_next = frozen;
  for (SymbolId v : key_vars) frozen_next.insert(v);
  for (const Term& t : fresh_terms) frozen_next.insert(t.id());

  Result<FormulaPtr> child = RewriteRec(rest, frozen_next, fresh);
  if (!child.ok()) return child.status();
  body.push_back(*child);

  return Formula::ExistsGuard(
      f, Formula::ForallGuard(guard, Formula::And(std::move(body))));
}

}  // namespace

Result<FormulaPtr> CertainRewriting(const Query& q) {
  return CertainRewriting(q, VarSet());
}

Result<FormulaPtr> CertainRewriting(const Query& q, const VarSet& params) {
  if (q.HasSelfJoin()) {
    return Status::Unsupported("rewriting assumes a self-join-free query");
  }
  FreshVars fresh;
  return RewriteRec(q, params, &fresh);
}

}  // namespace cqa
