#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cq/canonicalize.h"
#include "cq/corpus.h"
#include "cq/parser.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "plan/plan_cache.h"
#include "plan/query_plan.h"
#include "solvers/ack_solver.h"
#include "solvers/ck_solver.h"
#include "solve_helpers.h"
#include "solvers/fo_solver.h"
#include "solvers/oracle_solver.h"
#include "solvers/sat_solver.h"
#include "solvers/terminal_cycle_solver.h"

namespace cqa {
namespace {

std::shared_ptr<const QueryPlan> MustCompile(const Query& q) {
  Result<std::shared_ptr<const QueryPlan>> plan = QueryPlan::Compile(q);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

TEST(QueryPlanTest, CompileTimeFactsPerClass) {
  auto fo = MustCompile(corpus::ConferenceQuery());
  EXPECT_EQ(fo->solver_kind(), SolverKind::kFoRewriting);
  EXPECT_EQ(fo->complexity(), ComplexityClass::kFirstOrder);
  ASSERT_TRUE(fo->classification().has_value());
  EXPECT_TRUE(fo->classification()->fo_expressible);
  EXPECT_NE(fo->fo_solver(), nullptr);
  EXPECT_NE(fo->fo_solver()->rewriting(), nullptr);

  auto tc = MustCompile(corpus::Fig4Query());
  EXPECT_EQ(tc->solver_kind(), SolverKind::kTerminalCycles);
  EXPECT_EQ(tc->complexity(), ComplexityClass::kPtimeTerminalCycles);

  auto ack = MustCompile(corpus::Ack(3));
  EXPECT_EQ(ack->solver_kind(), SolverKind::kAck);

  auto ck = MustCompile(corpus::Ck(3));
  EXPECT_EQ(ck->solver_kind(), SolverKind::kCk);

  auto conp = MustCompile(corpus::Q1());
  EXPECT_EQ(conp->solver_kind(), SolverKind::kSat);
  EXPECT_EQ(conp->complexity(), ComplexityClass::kConpComplete);

  // Self-join: unsupported fragment, SAT fallback, no classification.
  Query self_join;
  self_join.AddAtom(Atom::Make("R", {"x", "y"}, 1));
  self_join.AddAtom(Atom::Make("R", {"y", "x"}, 1));
  auto sj = MustCompile(self_join);
  EXPECT_EQ(sj->solver_kind(), SolverKind::kSat);
  EXPECT_FALSE(sj->classification().has_value());
}

TEST(QueryPlanTest, SolveAgreesWithSolverAndSurfacesSatStats) {
  BlockDbGenOptions options;
  options.seed = 5;
  Database db = RandomBlockDatabase(corpus::Q0(), options);
  auto plan = MustCompile(corpus::Q0());
  Result<SolveOutcome> out = plan->Solve(db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->solver, SolverKind::kSat);
  EXPECT_GT(out->sat_vars, 0);
  EXPECT_GT(out->sat_clauses, 0);
  // Per-instance stats accumulated on the plan's solver.
  EXPECT_EQ(plan->solver()->stats().calls, 1);
  EXPECT_EQ(plan->solver()->stats().sat_vars, out->sat_vars);
}

/// The acceptance differential: testutil::Solve through compiled plans
/// must agree with the direct per-class dispatch (the pre-refactor
/// behavior: classify, then run the matching solver on the *original*
/// query) on the full randomized corpus of matcher_property_test, and
/// with the repair-enumeration oracle where feasible.
class PlanDifferential : public ::testing::TestWithParam<uint64_t> {};

Result<bool> DirectDispatch(const Database& db, const Query& q) {
  Result<Classification> cls = ClassifyQuery(q);
  if (!cls.ok()) {
    if (cls.status().code() != StatusCode::kUnsupported) {
      return cls.status();
    }
    return SatSolver(q).IsCertain(db);
  }
  switch (cls->complexity) {
    case ComplexityClass::kFirstOrder: {
      Result<FoSolver> fo = FoSolver::Create(q);
      if (!fo.ok()) return fo.status();
      return fo->IsCertain(db);
    }
    case ComplexityClass::kPtimeTerminalCycles:
      return TerminalCycleSolver(q).IsCertain(db);
    case ComplexityClass::kPtimeAck:
      return AckSolver(q).IsCertain(db);
    case ComplexityClass::kPtimeCk:
      return CkSolver(q).IsCertain(db);
    case ComplexityClass::kConpComplete:
    case ComplexityClass::kOpenConjecturedPtime:
      return SatSolver(q).IsCertain(db);
  }
  return Status::Internal("unreachable");
}

void ExpectPlanAgrees(const Database& db, const Query& q,
                      const std::string& context) {
  Result<SolveOutcome> via_plan = testutil::Solve(db, q);
  ASSERT_TRUE(via_plan.ok()) << context << ": " << via_plan.status();
  Result<bool> direct = DirectDispatch(db, q);
  ASSERT_TRUE(direct.ok()) << context << ": " << direct.status();
  ASSERT_EQ(via_plan->certain, *direct)
      << context << "\nquery: " << q.ToString() << "\ndb:\n"
      << db.ToString();
  if (db.RepairCount() <= BigInt(4096)) {
    EXPECT_EQ(via_plan->certain, *OracleSolver(q).IsCertain(db))
        << context << "\nquery: " << q.ToString() << "\ndb:\n"
        << db.ToString();
  }
}

TEST_P(PlanDifferential, RandomQueriesUniformDb) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed;
  qopts.num_atoms = 2 + static_cast<int>(seed % 4);
  qopts.max_arity = 3 + static_cast<int>(seed % 2);
  qopts.constant_percent = static_cast<int>(seed % 25);
  Query q = RandomAcyclicQuery(qopts);
  DbGenOptions dopts;
  dopts.seed = seed * 31 + 7;
  dopts.domain_size = 3 + static_cast<int>(seed % 4);
  dopts.facts_per_relation = 6 + static_cast<int>(seed % 8);
  ExpectPlanAgrees(RandomDatabase(q, dopts), q, "uniform");
}

TEST_P(PlanDifferential, RandomQueriesBlockDb) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed * 13 + 1;
  qopts.num_atoms = 2 + static_cast<int>(seed % 3);
  Query q = RandomAcyclicQuery(qopts);
  BlockDbGenOptions bopts;
  bopts.seed = seed * 17 + 3;
  bopts.blocks_per_relation = 3 + static_cast<int>(seed % 3);
  bopts.max_block_size = 2 + static_cast<int>(seed % 2);
  bopts.domain_size = 3 + static_cast<int>(seed % 3);
  ExpectPlanAgrees(RandomBlockDatabase(q, bopts), q, "block");
}

TEST_P(PlanDifferential, CorpusQueries) {
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    BlockDbGenOptions bopts;
    bopts.seed = GetParam() * 7 + 5;
    bopts.blocks_per_relation = 3;
    bopts.max_block_size = 2;
    bopts.domain_size = 4;
    ExpectPlanAgrees(RandomBlockDatabase(q, bopts), q, name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{120}));

TEST(PlanCacheTest, AlphaEquivalentQueriesShareOnePlan) {
  PlanCache cache;
  Query a = MustParseQuery("R(x | y), S(y | z)");
  Query b = MustParseQuery("S(q | w), R(p | q)");
  auto plan_a = cache.GetOrCompile(a);
  auto plan_b = cache.GetOrCompile(b);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  EXPECT_EQ(plan_a->get(), plan_b->get());
  PlanCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(cache.Lookup(b).get(), plan_a->get());
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache::Options options;
  options.capacity = 2;
  options.num_shards = 1;
  PlanCache cache(options);
  Query a = MustParseQuery("A(x | y)");
  Query b = MustParseQuery("B(x | y)");
  Query c = MustParseQuery("C0(x | y)");
  ASSERT_TRUE(cache.GetOrCompile(a).ok());
  ASSERT_TRUE(cache.GetOrCompile(b).ok());
  ASSERT_TRUE(cache.GetOrCompile(a).ok());  // touch a: b is now LRU
  ASSERT_TRUE(cache.GetOrCompile(c).ok());  // evicts b
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.Snapshot().evictions, 1u);
  cache.Clear();
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  EXPECT_EQ(cache.Lookup(a), nullptr);
}

TEST(PlanCacheTest, UnsupportedFragmentCompilesToCachedSatPlan) {
  PlanCache cache;
  // Self-join: outside the dichotomy's fragment, compiled to the exact
  // SAT fallback — and cached like any other plan (the fallback decision
  // is itself compile-time knowledge).
  Query q;
  q.AddAtom(Atom::Make("R", {"x", "y"}, 1));
  q.AddAtom(Atom::Make("R", {"y", "x"}, 1));
  auto plan = cache.GetOrCompile(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->solver_kind(), SolverKind::kSat);
  Query renamed;
  renamed.AddAtom(Atom::Make("R", {"b", "a"}, 1));
  renamed.AddAtom(Atom::Make("R", {"a", "b"}, 1));
  auto again = cache.GetOrCompile(renamed);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(plan->get(), again->get());
  EXPECT_EQ(cache.Snapshot().hits, 1u);
}

TEST(PlanCacheTest, MalformedQueriesAreNegativelyCached) {
  PlanCache cache;
  // A free variable that does not occur in the query: compile rejects
  // it, and the Status itself is cached so repeated bad traffic never
  // recompiles (canonicalization still runs to find the key).
  Query q = MustParseQuery("R(x | y)");
  std::vector<SymbolId> bad = {InternSymbol("nosuchvar")};
  auto first = cache.GetOrCompile(q, bad);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
  PlanCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);

  // The repeat (and any α-variant with the same malformed shape) is a
  // negative hit: same Status, no second compile.
  auto again = cache.GetOrCompile(q, bad);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), first.status().code());
  EXPECT_EQ(again.status().message(), first.status().message());
  stats = cache.Snapshot();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);

  // Lookup never serves a plan from a negative entry.
  EXPECT_EQ(cache.Lookup(q), nullptr);

  // The same query with a valid parameter list is a distinct key and
  // compiles fine.
  auto good = cache.GetOrCompile(q, {InternSymbol("x")});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(cache.Snapshot().negative_entries, 1u);
  EXPECT_EQ(cache.Snapshot().entries, 2u);

  // Clear drops negative entries and counters with everything else.
  cache.Clear();
  stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.negative_hits, 0u);
}

TEST(PlanCacheTest, DuplicatedFreeVariablesStayValid) {
  // A repeated free variable projects the same column twice — legal,
  // and must not be confused with a variable that never occurs (the
  // later canonical placeholders have no occurrences by construction).
  PlanCache cache;
  Query q = MustParseQuery("R(x | y)");
  SymbolId x = InternSymbol("x");
  auto plan = cache.GetOrCompile(q, {x, x});
  ASSERT_TRUE(plan.ok()) << plan.status();
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  EvalContext ctx(db);
  Result<std::vector<char>> rows =
      (*plan)->IsCertainRows(ctx, {{InternSymbol("a"), InternSymbol("a")}});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_NE((*rows)[0], 0);
}

TEST(PlanCacheTest, ArgumentSignatureKeepsValidAndMalformedListsApart) {
  // {x, x} (legal duplicate) and {x, nosuchvar} (malformed) leave the
  // same trace in the canonical rendering; the cache's argument
  // signature must keep their entries apart in BOTH request orders.
  Query q = MustParseQuery("R(x | y)");
  SymbolId x = InternSymbol("x");
  SymbolId bad = InternSymbol("nosuchvar");
  {
    PlanCache cache;  // malformed first: must not poison the valid key
    ASSERT_FALSE(cache.GetOrCompile(q, {x, bad}).ok());
    auto valid = cache.GetOrCompile(q, {x, x});
    EXPECT_TRUE(valid.ok()) << valid.status();
  }
  {
    PlanCache cache;  // valid first: must not legitimize the bad list
    ASSERT_TRUE(cache.GetOrCompile(q, {x, x}).ok());
    auto invalid = cache.GetOrCompile(q, {x, bad});
    ASSERT_FALSE(invalid.ok());
    EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PlanCacheTest, NegativeEntriesAreEvictedBeforePlans) {
  PlanCache::Options options;
  options.capacity = 2;
  options.num_shards = 1;
  PlanCache cache(options);
  Query good = MustParseQuery("A(x | y)");
  ASSERT_TRUE(cache.GetOrCompile(good).ok());
  // Two distinct malformed parameterized requests: the overflow evicts
  // the OLDER NEGATIVE entry, never the compiled plan.
  Query bad1 = MustParseQuery("B(x | y)");
  Query bad2 = MustParseQuery("C0(x | y)");
  ASSERT_FALSE(cache.GetOrCompile(bad1, {InternSymbol("zz")}).ok());
  ASSERT_FALSE(cache.GetOrCompile(bad2, {InternSymbol("zz")}).ok());
  EXPECT_EQ(cache.Snapshot().evictions, 1u);
  EXPECT_NE(cache.Lookup(good), nullptr);  // plan survived the flood
  EXPECT_EQ(cache.Snapshot().negative_entries, 1u);
}

TEST(MakeSolverTest, BuildsEveryKindAndRoundTripsNames) {
  // Every SolverKind enumerator, in declaration order.
  for (SolverKind kind :
       {SolverKind::kFoRewriting, SolverKind::kTerminalCycles,
        SolverKind::kAck, SolverKind::kCk, SolverKind::kSat,
        SolverKind::kOracle}) {
    EXPECT_EQ(SolverKindFromString(ToString(kind)), kind);
    Result<std::unique_ptr<Solver>> solver =
        MakeSolver(kind, corpus::ConferenceQuery());
    ASSERT_TRUE(solver.ok()) << kind << ": " << solver.status();
    EXPECT_EQ((*solver)->kind(), kind);
    EXPECT_EQ((*solver)->name(), ToString(kind));
  }
  Result<std::unique_ptr<Solver>> sat = MakeSolver(SolverKind::kSat,
                                                   corpus::Q0());
  ASSERT_TRUE(sat.ok());
  EXPECT_EQ((*sat)->kind(), SolverKind::kSat);
  EXPECT_EQ((*sat)->name(), "sat");
  // The FO rewriting is computed at construction: a cyclic attack graph
  // fails.
  EXPECT_FALSE(MakeSolver(SolverKind::kFoRewriting, corpus::Q1()).ok());
  Result<std::unique_ptr<Solver>> fo =
      MakeSolver(SolverKind::kFoRewriting, corpus::ConferenceQuery());
  ASSERT_TRUE(fo.ok());
  EXPECT_FALSE(
      *(*fo)->IsCertain(corpus::ConferenceDatabase()));
}

TEST(QueryPlanTest, FoProgramIsNullExactlyForNonFoPlans) {
  // The solver follows from the classification alone, so every FO plan,
  // Boolean or parameterized, carries its set-at-a-time program.
  int fo_plans = 0;
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    std::vector<std::vector<SymbolId>> free_var_lists = {{}};
    VarSet vars = q.Vars();
    if (!vars.empty()) free_var_lists.push_back({*vars.begin()});
    for (const std::vector<SymbolId>& free_vars : free_var_lists) {
      Result<std::shared_ptr<const QueryPlan>> plan =
          QueryPlan::Compile(q, free_vars);
      ASSERT_TRUE(plan.ok()) << name << ": " << plan.status();
      bool fo = (*plan)->solver_kind() == SolverKind::kFoRewriting;
      fo_plans += fo ? 1 : 0;
      EXPECT_EQ((*plan)->fo_program() != nullptr, fo) << name;
      EXPECT_EQ((*plan)->fo_solver() != nullptr, fo) << name;
    }
  }
  EXPECT_GT(fo_plans, 0);
}

TEST(QueryPlanTest, ParameterizedPlanMatchesGroundSolve) {
  Database db = corpus::ConferenceDatabase();
  ASSERT_TRUE(db.AddFact(Fact::Make("C", {"ICDT", "2018", "Lyon"}, 2)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"ICDT", "A"}, 1)).ok());
  Query q = MustParseQuery("C(x, y | c), R(x | r)");
  std::vector<SymbolId> free_vars = {InternSymbol("c"), InternSymbol("r")};
  Result<std::shared_ptr<const QueryPlan>> plan =
      QueryPlan::Compile(q, free_vars);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->parameterized());
  auto possible = testutil::PossibleAnswers(db, q, free_vars);
  ASSERT_TRUE(possible.ok());
  ASSERT_FALSE(possible->empty());
  EvalContext ctx(db);
  for (const auto& row : *possible) {
    Result<bool> via_plan = (*plan)->IsCertainRow(ctx, row);
    ASSERT_TRUE(via_plan.ok());
    Query ground = q;
    for (size_t i = 0; i < free_vars.size(); ++i) {
      ground = ground.Substitute(free_vars[i], row[i]);
    }
    Result<SolveOutcome> solved = testutil::Solve(db, ground);
    ASSERT_TRUE(solved.ok());
    EXPECT_EQ(*via_plan, solved->certain);
  }
}

/// R0(x0 | x1), ..., R<n-1>(x<n-1> | x<n>) over relations named
/// `prefix`<i>: an FO-rewritable path with n + 1 variables.
Query PathShape(const std::string& prefix, int n) {
  std::vector<Atom> atoms;
  for (int i = 0; i < n; ++i) {
    atoms.push_back(Atom::Make(prefix + std::to_string(i),
                               {"x" + std::to_string(i),
                                "x" + std::to_string(i + 1)},
                               1));
  }
  return Query(std::move(atoms));
}

TEST(QueryPlanTest, NewShapePastTheSymbolCapFailsCleanly) {
  // Every name the two queries carry, and their canonical variables, are
  // interned before the cap drops; only the names compiling them mints
  // are new: the rewriting's fresh and frozen variables, and the frozen
  // parameters of the parameterized plan.
  Query boolean = PathShape("CapBool", 24);
  Query with_params = PathShape("CapParam", 24);
  std::vector<SymbolId> params;
  for (int i = 0; i < 24; ++i) {
    params.push_back(InternSymbol("x" + std::to_string(i)));
  }
  ASSERT_TRUE(Canonicalize(boolean).ok());
  ASSERT_TRUE(Canonicalize(with_params, params).ok());

  Interner& interner = GlobalInterner();
  size_t saved = interner.max_symbols();
  interner.set_max_symbols(interner.size());
  Result<std::shared_ptr<const QueryPlan>> rewritten =
      QueryPlan::Compile(boolean);
  Result<std::shared_ptr<const QueryPlan>> frozen =
      QueryPlan::Compile(with_params, params);
  interner.set_max_symbols(saved);
  EXPECT_EQ(rewritten.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(frozen.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(QueryPlan::Compile(boolean).ok());
  EXPECT_TRUE(QueryPlan::Compile(with_params, params).ok());
}

}  // namespace
}  // namespace cqa
