#include "solvers/terminal_cycle_solver.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "core/attack_graph.h"
#include "cq/matcher.h"
#include "db/purify.h"
#include "solvers/two_atom_solver.h"

namespace cqa {

namespace {

/// Distinct key variables of `atom`, in term order.
std::vector<SymbolId> DistinctKeyVars(const Atom& atom) {
  std::vector<SymbolId> out;
  std::set<SymbolId> seen;
  for (int i = 0; i < atom.key_arity(); ++i) {
    const Term& t = atom.terms()[i];
    if (t.is_var() && seen.insert(t.id()).second) out.push_back(t.id());
  }
  return out;
}

/// Bindings for `vars` extracted by unifying `atom` against `fact`.
/// Returns false when the fact does not match the atom's pattern.
bool ExtractBinding(const Atom& atom, const Fact& fact,
                    std::map<SymbolId, SymbolId>* binding) {
  if (!atom.Matches(fact)) return false;
  binding->clear();
  for (int i = 0; i < atom.arity(); ++i) {
    const Term& t = atom.terms()[i];
    if (t.is_var()) (*binding)[t.id()] = fact.values()[i];
  }
  return true;
}

Result<bool> Solve(const Database& db_in, const Query& q);

/// Base case: the attack graph is a disjoint union of weak 2-cycles
/// covering all atoms. `db` must be purified relative to `q`.
Result<bool> SolveBase(const Database& db, const Query& q,
                       const AttackGraph& graph) {
  std::vector<std::pair<int, int>> cycles = graph.TwoCycles();
  // Every atom must sit in exactly one cycle.
  std::vector<bool> covered(q.size(), false);
  for (auto [i, j] : cycles) {
    if (covered[i] || covered[j]) {
      return Status::Internal("attack cycles are not disjoint");
    }
    covered[i] = covered[j] = true;
  }
  for (bool c : covered) {
    if (!c) return Status::Internal("unattacked-free graph must be cycles");
  }

  // Variables shared between distinct cycles.
  std::vector<VarSet> cycle_vars(cycles.size());
  for (size_t i = 0; i < cycles.size(); ++i) {
    VarSet a = q.atom(cycles[i].first).Vars();
    VarSet b = q.atom(cycles[i].second).Vars();
    cycle_vars[i].insert(a.begin(), a.end());
    cycle_vars[i].insert(b.begin(), b.end());
  }

  Database selected;  // ⋃ ⟦db_i⟧.
  for (size_t i = 0; i < cycles.size(); ++i) {
    const Atom& f = q.atom(cycles[i].first);
    const Atom& g = q.atom(cycles[i].second);
    Query qi;
    qi.AddAtom(f);
    qi.AddAtom(g);
    // x⃗_i: variables of this cycle occurring in another cycle, in a
    // fixed order.
    std::vector<SymbolId> shared;
    for (SymbolId v : cycle_vars[i]) {
      for (size_t j = 0; j < cycles.size(); ++j) {
        if (j != i && cycle_vars[j].count(v)) {
          shared.push_back(v);
          break;
        }
      }
    }
    // Partition db_i by the values of x⃗_i. Only the two cycle relations
    // participate, so iterate their per-relation fact lists instead of
    // scanning the whole database once per cycle.
    std::map<std::vector<SymbolId>, Database> partitions;
    std::vector<std::pair<const Atom*, const std::vector<int>*>> sources = {
        {&f, &db.FactsOf(f.relation())}, {&g, &db.FactsOf(g.relation())}};
    for (const auto& [atom, fact_ids] : sources) {
      for (int fact_id : *fact_ids) {
        const Fact& fact = db.facts()[fact_id];
        std::map<SymbolId, SymbolId> binding;
        if (!ExtractBinding(*atom, fact, &binding)) {
          // Purified databases only hold matchable facts.
          return Status::Internal("unmatchable fact in purified database");
        }
        std::vector<SymbolId> vec;
        vec.reserve(shared.size());
        for (SymbolId v : shared) {
          auto it = binding.find(v);
          if (it == binding.end()) {
            return Status::Internal(
                "shared cycle variable missing from key (Lemma 7)");
          }
          vec.push_back(it->second);
        }
        Status st = partitions[vec].AddFact(fact);
        if (!st.ok()) return st;
      }
    }
    // ⟦db_i⟧: partitions that are certain for q_i.
    TwoAtomSolver two_atom(qi);
    for (auto& [vec, part] : partitions) {
      Result<bool> certain = two_atom.IsCertain(part);
      if (!certain.ok()) return certain.status();
      if (*certain) {
        for (const Fact& fact : part.facts()) {
          Status st = selected.AddFact(fact);
          if (!st.ok()) return st;
        }
      }
    }
  }
  return Satisfies(selected, q);
}

Result<bool> Solve(const Database& db_in, const Query& q) {
  if (q.empty()) return true;  // Empty conjunction holds in every repair.
  Database db = Purify(db_in, q);
  if (db.empty()) return false;

  Result<AttackGraph> graph = AttackGraph::Compute(q);
  if (!graph.ok()) return graph.status();

  std::vector<int> unattacked = graph->UnattackedAtoms();
  if (unattacked.empty()) {
    return SolveBase(db, q, *graph);
  }

  int fi = unattacked.front();
  const Atom& f = q.atom(fi);
  std::vector<SymbolId> key_vars = DistinctKeyVars(f);

  // Candidate groundings a⃗ of key(F): the key projections of matching
  // facts (any other a⃗ purifies to the empty database => not certain).
  std::set<std::vector<SymbolId>> candidates;
  for (int fid : db.FactsOf(f.relation())) {
    std::map<SymbolId, SymbolId> binding;
    if (!ExtractBinding(f, db.facts()[fid], &binding)) continue;
    std::vector<SymbolId> vec;
    vec.reserve(key_vars.size());
    for (SymbolId v : key_vars) vec.push_back(binding.at(v));
    candidates.insert(vec);
  }

  for (const std::vector<SymbolId>& a : candidates) {
    Query q_a = q;
    Atom f_a = f;
    for (size_t i = 0; i < key_vars.size(); ++i) {
      q_a = q_a.Substitute(key_vars[i], a[i]);
      f_a = f_a.Substitute(key_vars[i], a[i]);
    }
    Database db_a = Purify(db, q_a);
    if (db_a.empty()) continue;

    // Lemma 8: eliminate F (its key is ground now). Every fact matching
    // F's pattern must leave a certain residue.
    bool all_residues_certain = true;
    bool some_match = false;
    for (int fid : db_a.FactsOf(f_a.relation())) {
      const Fact& fact = db_a.facts()[fid];
      std::map<SymbolId, SymbolId> binding;
      if (!ExtractBinding(f_a, fact, &binding)) continue;
      some_match = true;
      Query residue = q_a.WithoutAtom(q_a.AtomIndexByRelation(f.relation()));
      for (const auto& [var, value] : binding) {
        residue = residue.Substitute(var, value);
      }
      Result<bool> sub = Solve(db_a, residue);
      if (!sub.ok()) return sub.status();
      if (!*sub) {
        all_residues_certain = false;
        break;
      }
    }
    if (some_match && all_residues_certain) return true;
  }
  return false;
}

}  // namespace

namespace {

Status ValidateTheorem3(const Query& q) {
  if (q.HasSelfJoin()) {
    return Status::Unsupported("Theorem 3 assumes no self-join");
  }
  Result<AttackGraph> graph = AttackGraph::Compute(q);
  if (!graph.ok()) return graph.status();
  if (graph->HasStrongCycle() || !graph->AllCyclesTerminal()) {
    return Status::InvalidArgument(
        "Theorem 3 needs all attack cycles weak and terminal");
  }
  return Status::OK();
}

}  // namespace

TerminalCycleSolver::TerminalCycleSolver(Query q)
    : Solver(std::move(q)), validation_(ValidateTheorem3(query_)) {}

Result<SolverCall> TerminalCycleSolver::Decide(EvalContext& ctx) const {
  if (!validation_.ok()) return validation_;
  Result<bool> certain = Solve(ctx.db(), query_);
  if (!certain.ok()) return certain.status();
  SolverCall call;
  call.certain = *certain;
  return call;
}

}  // namespace cqa
