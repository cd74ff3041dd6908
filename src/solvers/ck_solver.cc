#include "solvers/ck_solver.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "db/purify.h"
#include "solvers/ack_solver.h"

namespace cqa {

CkSolver::CkSolver(Query q)
    : Solver(std::move(q)), shape_(MatchCkPattern(query_)) {}

Result<SolverCall> CkSolver::Decide(EvalContext& ctx) const {
  const Query& q = query_;
  const std::optional<CkShape>& shape = shape_;
  if (!shape.has_value()) {
    return Status::InvalidArgument("query does not match C(k)");
  }
  int k = shape->k;
  const Database& db = ctx.db();
  PurifiedView view = PurifyView(db, q);

  internal::LayeredCycleSolver solver(k);
  solver.ForbidAllKCycles();
  std::map<SymbolId, int> layer_of;
  for (int i = 0; i < k; ++i) {
    layer_of[q.atom(shape->atom_order[i]).relation()] = i;
  }
  for (int b = 0; b < static_cast<int>(db.blocks().size()); ++b) {
    if (!view.kept[b]) continue;
    for (int fid : db.blocks()[b].fact_ids) {
      const Fact& f = db.facts()[fid];
      auto it = layer_of.find(f.relation());
      if (it == layer_of.end()) continue;
      solver.AddEdge(it->second, f.values()[0], f.values()[1], fid);
    }
  }
  SolverCall call;
  call.certain = !solver.FindFalsifyingChoice().has_value();
  return call;
}

Result<bool> CkSolver::IsCertainViaLemma9(const Database& db) const {
  const Query& q = query_;
  const std::optional<CkShape>& shape = shape_;
  if (!shape.has_value()) {
    return Status::InvalidArgument("query does not match C(k)");
  }
  int k = shape->k;
  // Build AC(k) over the same relation names plus a fresh S relation.
  Query ack = q;
  Result<SymbolId> s_name = TryInternSymbol("$S" + std::to_string(k));
  if (!s_name.ok()) return s_name.status();
  SymbolId s_rel = *s_name;
  std::vector<Term> s_terms;
  s_terms.reserve(k);
  for (SymbolId v : shape->var_cycle) s_terms.push_back(Term::Var(v));
  ack.AddAtom(Atom(s_rel, std::move(s_terms), k));

  // f(db): original facts plus S_k = D^k (Lemma 9).
  Database padded = db;
  std::vector<SymbolId> domain = db.ActiveDomain();
  std::vector<SymbolId> tuple(k, 0);
  std::function<Status(int)> fill = [&](int pos) -> Status {
    if (pos == k) {
      return padded.AddFact(Fact(s_rel, tuple, k));
    }
    for (SymbolId a : domain) {
      tuple[pos] = a;
      CQA_RETURN_NOT_OK(fill(pos + 1));
    }
    return Status::OK();
  };
  CQA_RETURN_NOT_OK(fill(0));
  return AckSolver(ack).IsCertain(padded);
}

}  // namespace cqa
