#include "plan/query_plan.h"

#include <cassert>
#include <utility>

namespace cqa {

namespace {

SolverKind KindForComplexity(ComplexityClass complexity) {
  switch (complexity) {
    case ComplexityClass::kFirstOrder:
      return SolverKind::kFoRewriting;
    case ComplexityClass::kPtimeTerminalCycles:
      return SolverKind::kTerminalCycles;
    case ComplexityClass::kPtimeAck:
      return SolverKind::kAck;
    case ComplexityClass::kPtimeCk:
      return SolverKind::kCk;
    case ComplexityClass::kConpComplete:
    case ComplexityClass::kOpenConjecturedPtime:
      return SolverKind::kSat;
  }
  return SolverKind::kSat;
}

/// Freezes the canonical parameters to constants for classification:
/// grounding cannot add attacks (Lemma 5), and the attack graph ignores
/// constant identity, so one classification is valid for every row.
Query FreezeParams(const Query& q, const std::vector<SymbolId>& params) {
  Query frozen = q;
  for (SymbolId v : params) {
    frozen = frozen.Substitute(v, InternSymbol("$param_" + SymbolName(v)));
  }
  return frozen;
}

}  // namespace

Status ValidateFreeVars(const Query& q,
                        const std::vector<SymbolId>& free_vars) {
  VarSet query_vars = q.Vars();
  for (SymbolId v : free_vars) {
    if (query_vars.count(v) == 0) {
      return Status::InvalidArgument(
          "free variable '" + SymbolName(v) +
          "' does not occur in the query " + q.ToString());
    }
  }
  return Status::OK();
}

const FoSolver* QueryPlan::fo_solver() const {
  // MakeSolver is a closed switch: a kFoRewriting solver is an FoSolver.
  return kind_ == SolverKind::kFoRewriting
             ? static_cast<const FoSolver*>(solver_.get())
             : nullptr;
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::Compile(const Query& q) {
  return CompileCanonical(Canonicalize(q));
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::Compile(
    const Query& q, const std::vector<SymbolId>& free_vars) {
  CQA_RETURN_NOT_OK(ValidateFreeVars(q, free_vars));
  return CompileCanonical(Canonicalize(q, free_vars));
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::CompileCanonical(
    CanonicalQuery canonical) {
  return Build(std::move(canonical), std::nullopt);
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::CompileForcedSolver(
    const Query& q, SolverKind kind) {
  CanonicalQuery canonical = Canonicalize(q);
  if (!canonical.params.empty()) {
    return Status::InvalidArgument(
        "solver override requires a Boolean query");
  }
  // Tag the key: everything keyed by cache_key() — the Service's
  // prepared-handle dedup AND the session answer cache — must keep a
  // forced plan's results apart from the classifier-chosen plan's.
  canonical.key += std::string(";solver=") + ToString(kind);
  return Build(std::move(canonical), kind);
}

Result<std::shared_ptr<const QueryPlan>> QueryPlan::Build(
    CanonicalQuery canonical, std::optional<SolverKind> forced) {
  std::shared_ptr<QueryPlan> plan(new QueryPlan());
  plan->canonical_ = std::move(canonical);
  const CanonicalQuery& c = plan->canonical_;
  // Free-variable occurrence is validated against the ORIGINAL query
  // (ValidateFreeVars, run by Compile and by the PlanCache) — the
  // canonical form cannot express it: a duplicated free variable is
  // legal but leaves its later #p_i placeholders without occurrences.
  Result<Classification> cls = ClassifyQuery(
      c.params.empty() ? c.query : FreezeParams(c.query, c.params));
  if (cls.ok()) {
    plan->classification_ = *cls;
    plan->complexity_ = cls->complexity;
  } else if (cls.status().code() != StatusCode::kUnsupported) {
    return cls.status();
  }
  // An unsupported fragment (self-join, non-C(k) cyclic query) keeps
  // kOpenConjecturedPtime and compiles to the sound-and-complete SAT
  // search.
  plan->kind_ = forced.value_or(KindForComplexity(plan->complexity_));

  if (plan->kind_ != SolverKind::kFoRewriting) {
    // Parameterized non-FO plans keep solver_ null: rows are decided by
    // grounding the canonical query (IsCertainRow).
    if (c.params.empty()) {
      Result<std::unique_ptr<Solver>> solver = MakeSolver(plan->kind_, c.query);
      if (!solver.ok()) return solver.status();
      plan->solver_ = std::move(solver).value();
    }
    return std::shared_ptr<const QueryPlan>(std::move(plan));
  }
  // The rewriting is compiled over the *unfrozen* canonical query with
  // the parameters kept free, so one formula serves every binding.
  VarSet params(c.params.begin(), c.params.end());
  Result<std::unique_ptr<Solver>> solver =
      MakeSolver(SolverKind::kFoRewriting, c.query, params);
  if (!solver.ok()) return solver.status();
  plan->solver_ = std::move(solver).value();
  const FoSolver* fo = plan->fo_solver();
  if (c.params.empty()) {
    plan->fo_program_ = fo->program();
  } else {
    // The solver's own program orders parameters by SymbolId; the
    // plan's rows arrive in canonical positional order, so lower a
    // second program over the same (shared) rewriting with the
    // positional parameter list. Lowering a rewriting cannot fail.
    Result<FoProgram> program = FoProgram::Lower(fo->rewriting(), c.params);
    if (!program.ok()) return program.status();
    plan->fo_program_ = std::make_shared<const FoProgram>(std::move(*program));
  }
  return std::shared_ptr<const QueryPlan>(std::move(plan));
}

Result<SolveOutcome> QueryPlan::Solve(const Database& db) const {
  EvalContext ctx(db);
  return Solve(ctx);
}

Result<SolveOutcome> QueryPlan::Solve(EvalContext& ctx) const {
  if (parameterized()) {
    return Status::InvalidArgument(
        "parameterized plan cannot be solved as a Boolean query; use "
        "IsCertainRow");
  }
  Result<SolverCall> call = solver_->Decide(ctx);
  if (!call.ok()) return call.status();
  solver_->Record(*call);
  SolveOutcome out;
  out.certain = call->certain;
  out.complexity = complexity_;
  out.solver = kind_;
  out.sat_vars = call->sat_vars;
  out.sat_clauses = call->sat_clauses;
  out.sat_decisions = call->sat_decisions;
  return out;
}

Result<std::optional<std::vector<Fact>>> QueryPlan::FindFalsifyingRepair(
    const Database& db) const {
  if (parameterized()) {
    return Status::InvalidArgument(
        "parameterized plan has no Boolean falsifying repair");
  }
  return solver_->FindFalsifyingRepair(db);
}

Result<std::vector<char>> QueryPlan::IsCertainRows(
    EvalContext& ctx, const std::vector<std::vector<SymbolId>>& rows,
    const Deadline& deadline) const {
  std::vector<char> out(rows.size(), 0);
  Status s = IsCertainRowSpan(ctx, rows, 0, rows.size(), &out, deadline);
  if (!s.ok()) return s;
  return out;
}

Status QueryPlan::IsCertainRowSpan(
    EvalContext& ctx, const std::vector<std::vector<SymbolId>>& rows,
    size_t begin, size_t end, std::vector<char>* out,
    const Deadline& deadline) const {
  if (!parameterized()) {
    return Status::InvalidArgument("plan has no parameters; use Solve");
  }
  assert(begin <= end && end <= rows.size() && out->size() == rows.size());
  for (size_t i = begin; i < end; ++i) {
    if (rows[i].size() != canonical_.params.size()) {
      return Status::InvalidArgument("row arity does not match plan params");
    }
  }
  if (fo_program_ != nullptr) {
    static const std::vector<SymbolId> kNoAdom;
    const std::vector<SymbolId>& adom =
        fo_program_->needs_adom() ? ctx.evaluator().adom() : kNoAdom;
    Result<std::vector<char>> mask = fo_program_->EvaluateRows(
        ctx.fact_index(), adom, rows, begin, end, deadline);
    if (!mask.ok()) return mask.status();
    std::copy(mask->begin(), mask->end(), out->begin() + begin);
    return Status::OK();
  }
  // Row-at-a-time path of the non-FO plans. Rows here can be
  // arbitrarily expensive (grounded SAT calls), so the deadline is
  // polled before every row.
  for (size_t i = begin; i < end; ++i) {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("deadline expired deciding rows");
    }
    Result<bool> certain = IsCertainRow(ctx, rows[i]);
    if (!certain.ok()) return certain.status();
    (*out)[i] = *certain ? 1 : 0;
  }
  return Status::OK();
}

Result<bool> QueryPlan::IsCertainRow(
    EvalContext& ctx, const std::vector<SymbolId>& row) const {
  if (!parameterized()) {
    return Status::InvalidArgument("plan has no parameters; use Solve");
  }
  if (row.size() != canonical_.params.size()) {
    return Status::InvalidArgument("row arity does not match plan params");
  }
  if (const FoSolver* fo = fo_solver()) {
    Valuation binding;
    for (size_t i = 0; i < row.size(); ++i) {
      binding.Bind(canonical_.params[i], row[i]);
    }
    return fo->IsCertainRow(ctx.evaluator(), binding);
  }
  Query ground = canonical_.query;
  for (size_t i = 0; i < row.size(); ++i) {
    ground = ground.Substitute(canonical_.params[i], row[i]);
  }
  // The compiled kind decides the ground row; for kSat this is exact
  // and never fails — which also covers the unsupported fragments.
  Result<std::unique_ptr<Solver>> solver = MakeSolver(kind_, ground);
  if (solver.ok()) {
    Result<bool> r = (*solver)->IsCertain(ctx);
    if (r.ok()) return r;
    // Precondition drifted under grounding (substitution can merge
    // atoms); fall through to the full dispatch.
  }
  // Full re-compile of the ground row query — reproduces the complete
  // dispatch, including the SAT fallback for unsupported fragments.
  // Uncached on purpose: row constants would thrash the plan cache.
  Result<std::shared_ptr<const QueryPlan>> fallback = Compile(ground);
  if (!fallback.ok()) return fallback.status();
  Result<SolveOutcome> out = (*fallback)->Solve(ctx);
  if (!out.ok()) return out.status();
  return out->certain;
}

}  // namespace cqa
