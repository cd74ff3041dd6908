#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cq/corpus.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "fo/evaluator.h"
#include "fo/program.h"
#include "fo/rewriter.h"
#include "plan/plan_cache.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "solve_helpers.h"

/// Differential tests for the set-at-a-time FO program executor: the
/// compiled program must agree with the tree-walking interpreter
/// (FormulaEvaluator) on every formula and every database — the same
/// oracle pattern as the indexed-vs-naive matcher suite. Plus unit
/// coverage for the edges the rewriting shape makes easy to miss:
/// antijoins over empty relations, constant-only queries, repeated
/// variables, and the unguarded domain quantifiers.

namespace cqa {
namespace {

/// Program-vs-interpreter check of a (formula, params) pair over `db`:
/// Boolean when rows is empty-of-columns, else one batched EvaluateRows
/// against a per-row interpreter loop.
void ExpectAgreement(const FormulaPtr& formula,
                     const std::vector<SymbolId>& params,
                     const std::vector<std::vector<SymbolId>>& rows,
                     const Database& db, const std::string& context) {
  Result<FoProgram> program = FoProgram::Lower(formula, params);
  ASSERT_TRUE(program.ok()) << context << ": " << program.status();
  FactIndex index(db);
  std::vector<SymbolId> adom = db.ActiveDomain();
  FormulaEvaluator interpreter(db);
  std::vector<char> batched = program->EvaluateRows(index, adom, rows);
  ASSERT_EQ(batched.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    Valuation binding;
    for (size_t j = 0; j < params.size(); ++j) {
      binding.Bind(params[j], rows[i][j]);
    }
    bool expected = interpreter.Eval(formula, binding);
    EXPECT_EQ(batched[i] != 0, expected)
        << context << " row " << i << "\n"
        << program->ToString() << "\ndb:\n"
        << db.ToString();
  }
}

// ------------------------------------------- randomized differentials

/// Boolean rewritings of random acyclic queries over random databases —
/// the matcher_property corpus recipe, pointed at the FO layer.
class ProgramDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramDifferential, BooleanRewritingsOnRandomDbs) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed;
  qopts.num_atoms = 2 + static_cast<int>(seed % 4);
  qopts.max_arity = 3 + static_cast<int>(seed % 2);
  qopts.constant_percent = static_cast<int>(seed % 25);
  Query q = RandomAcyclicQuery(qopts);
  Result<FormulaPtr> rewriting = CertainRewriting(q);
  if (!rewriting.ok()) return;  // Cyclic attack graph: not FO.

  DbGenOptions dopts;
  dopts.seed = seed * 31 + 7;
  dopts.domain_size = 3 + static_cast<int>(seed % 4);
  dopts.facts_per_relation = 6 + static_cast<int>(seed % 8);
  Database uniform = RandomDatabase(q, dopts);
  ExpectAgreement(*rewriting, {}, {{}}, uniform,
                  "uniform " + q.ToString());

  BlockDbGenOptions bopts;
  bopts.seed = seed * 17 + 3;
  bopts.blocks_per_relation = 3 + static_cast<int>(seed % 3);
  bopts.max_block_size = 2 + static_cast<int>(seed % 2);
  bopts.domain_size = 3 + static_cast<int>(seed % 3);
  Database blocked = RandomBlockDatabase(q, bopts);
  ExpectAgreement(*rewriting, {}, {{}}, blocked, "block " + q.ToString());
}

TEST_P(ProgramDifferential, ParameterizedRewritingsDecideRowBatches) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed * 13 + 1;
  qopts.num_atoms = 2 + static_cast<int>(seed % 3);
  Query q = RandomAcyclicQuery(qopts);
  VarSet vars = q.Vars();
  if (vars.empty()) return;
  // One or two parameters, in ascending SymbolId order.
  std::vector<SymbolId> params(vars.begin(), vars.end());
  params.resize(1 + (seed % 2 != 0 && params.size() > 1 ? 1 : 0));
  VarSet param_set(params.begin(), params.end());
  Result<FormulaPtr> rewriting = CertainRewriting(q, param_set);
  if (!rewriting.ok()) return;

  BlockDbGenOptions bopts;
  bopts.seed = seed * 7 + 5;
  bopts.blocks_per_relation = 4;
  bopts.max_block_size = 2;
  bopts.domain_size = 4;
  Database db = RandomBlockDatabase(q, bopts);
  FactIndex index(db);
  // Candidate rows (the production shape) plus noise rows from the raw
  // domain, most of which are not possible answers.
  std::vector<std::vector<SymbolId>> rows =
      CollectProjectionsSorted(index, q, Valuation(), params);
  std::vector<SymbolId> adom = db.ActiveDomain();
  for (size_t i = 0; i + 1 < adom.size() && i < 4; ++i) {
    std::vector<SymbolId> noise(params.size(), adom[i]);
    rows.push_back(std::move(noise));
  }
  ExpectAgreement(*rewriting, params, rows, db,
                  "parameterized " + q.ToString());
}

TEST_P(ProgramDifferential, CorpusFoQueriesEndToEnd) {
  // The FO-rewritable subset of the named corpus, end to end through
  // the plan layer: testutil::CertainAnswers (the program, via
  // IsCertainRows or Solve) must keep exactly the possible answers the
  // tree interpreter (the per-row oracle IsCertainRow) keeps.
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    if (!CertainRewriting(q).ok()) continue;  // not FO-rewritable
    BlockDbGenOptions bopts;
    bopts.seed = GetParam() * 11 + 13;
    bopts.blocks_per_relation = 3;
    bopts.max_block_size = 2;
    bopts.domain_size = 4;
    Database db = RandomBlockDatabase(q, bopts);
    VarSet vars = q.Vars();
    std::vector<SymbolId> free_vars;
    if (!vars.empty()) free_vars.push_back(*vars.begin());

    auto with_program = testutil::CertainAnswers(db, q, free_vars);
    ASSERT_TRUE(with_program.ok()) << name << ": " << with_program.status();

    auto plan = testutil::CompilePlan(q, free_vars);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status();
    const FoSolver* fo = (*plan)->fo_solver();
    ASSERT_NE(fo, nullptr) << name;
    auto possible = testutil::PossibleAnswers(db, q, free_vars);
    ASSERT_TRUE(possible.ok()) << name << ": " << possible.status();
    EvalContext ctx(db);
    std::vector<std::vector<SymbolId>> with_interpreter;
    for (const std::vector<SymbolId>& row : *possible) {
      bool certain = false;
      if (free_vars.empty()) {
        certain = fo->IsCertainRow(ctx.evaluator(), Valuation());
      } else {
        Result<bool> r = (*plan)->IsCertainRow(ctx, row);
        ASSERT_TRUE(r.ok()) << name << ": " << r.status();
        certain = *r;
      }
      if (certain) with_interpreter.push_back(row);
    }
    EXPECT_EQ(*with_program, with_interpreter) << name << "\n"
                                               << db.ToString();
  }
}

// 120 seeds x (2 boolean + 1 parameterized batch + corpus sweep), on
// top of every FO decision the rest of the suite routes through the
// program.
INSTANTIATE_TEST_SUITE_P(Seeds, ProgramDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{121}));

// --------------------------------------------------------- unit edges

Database EmptyDb() { return Database(); }

TEST(FoProgramTest, SemijoinOverEmptyRelationIsFalse) {
  Atom r = Atom::Make("R", {"x", "y"}, 1);
  FormulaPtr f = Formula::ExistsGuard(r, Formula::True());
  ExpectAgreement(f, {}, {{}}, EmptyDb(), "exists-empty");
  Result<FoProgram> program = FoProgram::Lower(f, {});
  ASSERT_TRUE(program.ok());
  FactIndex index((Database()));
  EXPECT_FALSE(program->EvaluateBool(index, {}));
}

TEST(FoProgramTest, AntijoinOverEmptyRelationIsVacuouslyTrue) {
  Atom r = Atom::Make("R", {"x", "y"}, 1);
  // ∀ matches of R: false — holds exactly when R has no matching fact.
  FormulaPtr f = Formula::ForallGuard(r, Formula::False());
  ExpectAgreement(f, {}, {{}}, EmptyDb(), "forall-empty");
  Result<FoProgram> program = FoProgram::Lower(f, {});
  ASSERT_TRUE(program.ok());
  FactIndex index((Database()));
  EXPECT_TRUE(program->EvaluateBool(index, {}));

  Database with_fact;
  ASSERT_TRUE(with_fact.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  FactIndex full(with_fact);
  EXPECT_FALSE(program->EvaluateBool(full, with_fact.ActiveDomain()));
  ExpectAgreement(f, {}, {{}}, with_fact, "forall-nonempty");
}

TEST(FoProgramTest, ConstantOnlyQueryDecidesByBlockMembership) {
  // q = R('a' | 'b'): certain iff block a exists and is exactly {b}.
  Query q = MustParseQuery("R('a' | 'b')");
  Result<FormulaPtr> rewriting = CertainRewriting(q);
  ASSERT_TRUE(rewriting.ok());

  Database certain;
  ASSERT_TRUE(certain.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  Database uncertain = certain;
  ASSERT_TRUE(uncertain.AddFact(Fact::Make("R", {"a", "c"}, 1)).ok());
  Database absent;
  ASSERT_TRUE(absent.AddFact(Fact::Make("R", {"z", "b"}, 1)).ok());

  for (const Database* db : {&certain, &uncertain, &absent}) {
    ExpectAgreement(*rewriting, {}, {{}}, *db, "constant-only");
  }
  Result<FoProgram> program = FoProgram::Lower(*rewriting, {});
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->EvaluateBool(FactIndex(certain), {}));
  EXPECT_FALSE(program->EvaluateBool(FactIndex(uncertain), {}));
  EXPECT_FALSE(program->EvaluateBool(FactIndex(absent), {}));
}

TEST(FoProgramTest, RepeatedVariableGuardsCannotProbeTheirOwnBinding) {
  // R(x | x): the non-key check reads the register the same atom binds,
  // so the executor must scan rather than probe a garbage register.
  Query q = MustParseQuery("R(x | x)");
  Result<FormulaPtr> rewriting = CertainRewriting(q);
  ASSERT_TRUE(rewriting.ok());
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"c0", "c0"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"c1", "c2"}, 1)).ok());
  ExpectAgreement(*rewriting, {}, {{}}, db, "repeated-var");
  Result<FoProgram> program = FoProgram::Lower(*rewriting, {});
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->EvaluateBool(FactIndex(db), {}));
}

TEST(FoProgramTest, DomainQuantifiersMatchInterpreter) {
  // Handwritten (non-rewriter) formulas exercising the unguarded loops:
  // ∀x∈adom ∃[R(x | y)] — every constant keys an R block.
  Atom r = Atom::Make("R", {"x", "y"}, 1);
  SymbolId x = InternSymbol("x");
  FormulaPtr f = Formula::ForallDom(
      x, Formula::ExistsGuard(r, Formula::True()));

  Database covered;
  ASSERT_TRUE(covered.AddFact(Fact::Make("R", {"a", "a"}, 1)).ok());
  Database uncovered = covered;
  ASSERT_TRUE(uncovered.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());

  Result<FoProgram> program = FoProgram::Lower(f, {});
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->needs_adom());
  ExpectAgreement(f, {}, {{}}, covered, "forall-dom covered");
  ExpectAgreement(f, {}, {{}}, uncovered, "forall-dom uncovered");
  EXPECT_TRUE(
      program->EvaluateBool(FactIndex(covered), covered.ActiveDomain()));
  // 'b' occurs in the domain but keys no R block.
  EXPECT_FALSE(
      program->EvaluateBool(FactIndex(uncovered), uncovered.ActiveDomain()));

  // ∃x∈adom ¬∃[R(x | y)] — the dual, with negation over a semijoin.
  FormulaPtr g = Formula::ExistsDom(
      x, Formula::Not(Formula::ExistsGuard(r, Formula::True())));
  ExpectAgreement(g, {}, {{}}, covered, "exists-dom covered");
  ExpectAgreement(g, {}, {{}}, uncovered, "exists-dom uncovered");
}

TEST(FoProgramTest, LoweringRejectsUnboundVariables) {
  Atom r = Atom::Make("R", {"x", "y"}, 1);
  // x and y are free but not parameters.
  FormulaPtr f = Formula::MakeAtom(r);
  Result<FoProgram> bad = FoProgram::Lower(f, {});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // With both as parameters it lowers and decides membership per row.
  Result<FoProgram> good =
      FoProgram::Lower(f, {InternSymbol("x"), InternSymbol("y")});
  ASSERT_TRUE(good.ok());
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("R", {"a", "b"}, 1)).ok());
  FactIndex index(db);
  std::vector<std::vector<SymbolId>> rows = {
      {InternSymbol("a"), InternSymbol("b")},
      {InternSymbol("a"), InternSymbol("a")}};
  std::vector<char> out = good->EvaluateRows(index, {}, rows);
  EXPECT_NE(out[0], 0);
  EXPECT_EQ(out[1], 0);
}

TEST(FoProgramTest, PlanBatchesAgreeWithPerRowOracle) {
  // Plan-level: IsCertainRows (set-at-a-time) vs IsCertainRow (tree
  // interpreter) on a parameterized FO plan, including rows that are
  // not possible answers.
  Query q = MustParseQuery("R(x | y), S(y | z)");
  Database db;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i % 3);
    ASSERT_TRUE(db.AddFact(Fact::Make("R", {a, b}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b0", "c"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b1", "c"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"b1", "d"}, 1)).ok());

  auto plan = QueryPlan::Compile(q, {InternSymbol("x")});
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ((*plan)->solver_kind(), SolverKind::kFoRewriting);
  EvalContext ctx(db);
  std::vector<std::vector<SymbolId>> rows;
  for (SymbolId v : db.ActiveDomain()) rows.push_back({v});
  Result<std::vector<char>> batched = (*plan)->IsCertainRows(ctx, rows);
  ASSERT_TRUE(batched.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    Result<bool> oracle = (*plan)->IsCertainRow(ctx, rows[i]);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ((*batched)[i] != 0, *oracle)
        << SymbolName(rows[i][0]) << "\n"
        << db.ToString();
  }
}

}  // namespace
}  // namespace cqa
