#ifndef CQA_SOLVERS_SOLVER_H_
#define CQA_SOLVERS_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "fo/evaluator.h"
#include "util/status.h"

/// \file
/// The unified solver layer. Every CERTAINTY(q) decision procedure in the
/// library is an instance of the polymorphic `Solver` interface: it is
/// constructed from (and owns) its query, carries per-instance atomic
/// statistics, and decides databases handed to it at call time. Instances
/// are immutable after construction and safe to share across threads —
/// this is what lets a compiled `QueryPlan` serve concurrent traffic.
///
/// Solvers are created by `MakeSolver`, one closed switch over
/// `SolverKind`: the plan compiler maps a complexity class to a kind, and
/// the kind alone fixes the implementation.
///
/// `EvalContext` bundles the per-thread evaluation state (a lazily built
/// `FactIndex` and `FormulaEvaluator` for one database) so a batch worker
/// reuses one set of indexes across every query it serves instead of
/// rebuilding them per call.

namespace cqa {

/// Identity of a decision procedure. Replaces the old stringly-typed
/// `SolveOutcome::solver` so dispatch tests cannot silently pass on a
/// typo.
enum class SolverKind {
  kFoRewriting,
  kTerminalCycles,
  kAck,
  kCk,
  kSat,
  kOracle,
};

/// Stable wire/display name: "fo-rewriting", "terminal-cycles", "ack",
/// "ck", "sat", "oracle".
const char* ToString(SolverKind kind);

std::ostream& operator<<(std::ostream& os, SolverKind kind);

/// Inverse of ToString; nullopt for unknown names.
std::optional<SolverKind> SolverKindFromString(std::string_view name);

/// Per-call result and metrics of one certainty decision. The SAT fields
/// stay zero off the SAT path.
struct SolverCall {
  bool certain = false;
  int64_t sat_vars = 0;
  int64_t sat_clauses = 0;
  int64_t sat_decisions = 0;
};

/// Per-instance accumulated statistics. Atomic so a solver shared by a
/// plan can be probed while worker threads are using it; copyable so
/// value-semantic solvers (Result<FoSolver>) keep working.
struct SolverStats {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> certain{0};
  std::atomic<int64_t> sat_vars{0};
  std::atomic<int64_t> sat_clauses{0};
  std::atomic<int64_t> sat_decisions{0};

  SolverStats() = default;
  SolverStats(const SolverStats& o) { *this = o; }
  SolverStats& operator=(const SolverStats& o);

  /// Plain-value copy for reporting.
  struct Snapshot {
    int64_t calls = 0;
    int64_t certain = 0;
    int64_t sat_vars = 0;
    int64_t sat_clauses = 0;
    int64_t sat_decisions = 0;
  };
  Snapshot snapshot() const;

  void Record(const SolverCall& call);
};

/// Per-thread evaluation state for one database: the database reference
/// plus lazily built, reusable indexes. Not thread-safe — each serving
/// worker owns one. The solvers that can exploit shared indexes (FO
/// evaluation, SAT embedding enumeration) pull them from here; the rest
/// just read `db()`.
class EvalContext {
 public:
  explicit EvalContext(const Database& db) : db_(db) {}

  const Database& db() const { return db_; }

  /// Lazily built hash index over db's facts, shared across calls.
  FactIndex& fact_index();

  /// Lazily built FO evaluator. Borrows fact_index() (one set of
  /// buckets per context, not two) and snapshots the active domain.
  const FormulaEvaluator& evaluator();

  // ----------------------------------------------- serving-session hooks
  // A long-lived serving `Session` keeps one EvalContext per worker and
  // patches the lazily built state in place after each database delta
  // instead of rebuilding it (see serve/session.cc). State that was
  // never built needs no patching: its first use reads the post-delta
  // database.

  /// The fact index, when already built (null otherwise).
  FactIndex* fact_index_if_built() {
    return index_.has_value() ? &*index_ : nullptr;
  }

  /// The FO evaluator, when already built (null otherwise). Mutable so
  /// the session can swap in the post-delta active domain.
  FormulaEvaluator* evaluator_if_built() {
    return evaluator_.has_value() ? &*evaluator_ : nullptr;
  }

 private:
  const Database& db_;
  std::optional<FactIndex> index_;
  std::optional<FormulaEvaluator> evaluator_;
};

/// The unified interface all decision procedures implement. A solver is
/// bound to one query at construction; `Decide` answers db ∈
/// CERTAINTY(q). Implementations must be const-thread-safe: `Decide` and
/// `FindFalsifyingRepair` may run concurrently on one instance.
class Solver {
 public:
  explicit Solver(Query q) : query_(std::move(q)) {}
  virtual ~Solver() = default;

  virtual SolverKind kind() const = 0;
  std::string_view name() const { return ToString(kind()); }
  const Query& query() const { return query_; }

  /// Decides ctx.db() ∈ CERTAINTY(query()) and reports per-call metrics.
  virtual Result<SolverCall> Decide(EvalContext& ctx) const = 0;

  /// A repair of ctx.db() falsifying query(), or nullopt when certain.
  /// The default implementation runs the sound-and-complete SAT search;
  /// solvers with a native witness extraction (Ack) override it.
  virtual Result<std::optional<std::vector<Fact>>> FindFalsifyingRepair(
      EvalContext& ctx) const;

  /// Convenience entry points creating a one-shot context. These also
  /// accumulate the per-instance stats().
  Result<bool> IsCertain(const Database& db) const;
  Result<bool> IsCertain(EvalContext& ctx) const;
  Result<std::optional<std::vector<Fact>>> FindFalsifyingRepair(
      const Database& db) const;

  /// Accumulated per-instance statistics (never global, never static).
  SolverStats::Snapshot stats() const { return stats_.snapshot(); }

  /// Accumulates one call into stats(). Exposed for callers that drive
  /// Decide directly to harvest the per-call metrics (QueryPlan::Solve).
  void Record(const SolverCall& call) const { stats_.Record(call); }

 protected:
  Query query_;
  mutable SolverStats stats_;
};

/// Builds the solver of `kind` for `q`. `params` is only meaningful for
/// the compile-time-parameterized FO rewriting; the rest ignore it.
/// Construction is cheap for the P-time solvers (validation happens at
/// Decide time); the FO rewriting is computed here and fails on cyclic
/// attack graphs.
Result<std::unique_ptr<Solver>> MakeSolver(SolverKind kind, const Query& q,
                                           const VarSet& params = {});

}  // namespace cqa

#endif  // CQA_SOLVERS_SOLVER_H_
