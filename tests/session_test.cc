#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "serve/session.h"
#include "solve_helpers.h"
#include "util/rng.h"
#include "util/rw_gate.h"

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace cqa {
namespace {

using Rows = std::vector<std::vector<SymbolId>>;

/// Copies a served copy-on-write snapshot into a plain row vector, so
/// the assertions below keep comparing values (the snapshot-sharing
/// behaviour itself is covered by AnswerSnapshotsAreSharedCopyOnWrite).
Result<Rows> Materialize(Result<std::shared_ptr<const Session::RowSet>> r) {
  if (!r.ok()) return r.status();
  return Rows(**r);
}

/// Certain answers of (q, fv) through the session's plan-resolved
/// entry point, materialized.
Result<Rows> Serve(Session& session, const Query& q,
                   const std::vector<SymbolId>& fv) {
  return Materialize(testutil::SessionCertainAnswers(session, q, fv));
}

Fact F(const std::string& relation, const std::vector<std::string>& values,
       int key_arity) {
  return Fact::Make(relation, values, key_arity);
}

// ------------------------------------------------ Database::RemoveFact

TEST(SessionTest, DatabaseRemoveFactKeepsEveryStructureCoherent) {
  Database db;
  ASSERT_TRUE(db.AddFact(F("R", {"a", "x"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"a", "y"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"b", "x"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("S", {"x", "1"}, 1)).ok());
  ASSERT_EQ(db.size(), 4);
  ASSERT_EQ(db.blocks().size(), 3u);

  // Removing a middle fact relocates the last fact into its slot.
  ASSERT_TRUE(db.RemoveFact(F("R", {"a", "y"}, 1)).ok());
  EXPECT_EQ(db.size(), 3);
  EXPECT_FALSE(db.Contains(F("R", {"a", "y"}, 1)));
  EXPECT_TRUE(db.Contains(F("R", {"a", "x"}, 1)));
  EXPECT_TRUE(db.Contains(F("S", {"x", "1"}, 1)));
  // Ids stay dense and the address map agrees with the value map.
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.FactId(db.facts()[i]), i);
    EXPECT_EQ(db.FactIdOf(db.FactPtrAt(i)), i);
  }
  // Blocks reference only live ids.
  size_t facts_in_blocks = 0;
  for (const Database::Block& block : db.blocks()) {
    for (int fid : block.fact_ids) {
      ASSERT_GE(fid, 0);
      ASSERT_LT(fid, db.size());
      EXPECT_EQ(db.facts()[fid].relation(), block.relation);
      ++facts_in_blocks;
    }
  }
  EXPECT_EQ(facts_in_blocks, static_cast<size_t>(db.size()));

  // Removing the sole fact of a block drops the block.
  ASSERT_TRUE(db.RemoveFact(F("S", {"x", "1"}, 1)).ok());
  EXPECT_EQ(db.blocks().size(), 2u);
  EXPECT_EQ(db.FindBlock(InternSymbol("S"), {InternSymbol("x")}), nullptr);

  // Removing an absent fact fails and changes nothing.
  EXPECT_EQ(db.RemoveFact(F("S", {"x", "1"}, 1)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.size(), 2);

  // Down to empty and back up again.
  ASSERT_TRUE(db.RemoveFact(F("R", {"a", "x"}, 1)).ok());
  ASSERT_TRUE(db.RemoveFact(F("R", {"b", "x"}, 1)).ok());
  EXPECT_TRUE(db.empty());
  EXPECT_TRUE(db.blocks().empty());
  ASSERT_TRUE(db.AddFact(F("R", {"c", "z"}, 1)).ok());
  EXPECT_EQ(db.FactId(F("R", {"c", "z"}, 1)), 0);
}

TEST(SessionTest, DatabaseCopyRebuildsTheAddressMap) {
  Database db;
  ASSERT_TRUE(db.AddFact(F("R", {"a", "x"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"b", "y"}, 1)).ok());
  Database copy = db;
  // The copy's address map must resolve the copy's own storage, and the
  // original keeps working after the copy mutates.
  EXPECT_EQ(copy.FactIdOf(copy.FactPtrAt(1)), 1);
  EXPECT_EQ(copy.FactIdOf(db.FactPtrAt(1)), -1);
  ASSERT_TRUE(copy.RemoveFact(F("R", {"a", "x"}, 1)).ok());
  EXPECT_EQ(db.size(), 2);
  EXPECT_EQ(copy.size(), 1);
  EXPECT_EQ(db.FactIdOf(db.FactPtrAt(0)), 0);
}

// ----------------------------------------------------------- deltas

TEST(SessionTest, DeltaIsTransactional) {
  Database db = corpus::ConferenceDatabase();
  Session session(db);
  std::string before = session.db().ToString();

  // A valid insert followed by an invalid remove: nothing may change.
  Delta bad;
  bad.Insert(F("C", {"ICDT", "2099", "Lyon"}, 2));
  bad.Remove(F("C", {"nope", "nope", "nope"}, 2));
  Result<uint64_t> applied = session.ApplyDelta(bad);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.epoch(), 0u);
  EXPECT_EQ(session.db().ToString(), before);

  // A fact contradicting the schema rejects the delta too.
  Delta bad_sig;
  bad_sig.Insert(F("C", {"only-key"}, 1));
  EXPECT_EQ(session.ApplyDelta(bad_sig).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.epoch(), 0u);

  // Sequential semantics inside one delta: remove-then-insert works.
  Delta good;
  Fact fact = *session.db().facts().begin();
  good.Remove(fact).Insert(fact);
  ASSERT_TRUE(session.ApplyDelta(good).ok());
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.db().ToString(), before);
}

TEST(SessionTest, ReplaceBlockReplacesDeletesAndCreates) {
  Database db;
  ASSERT_TRUE(db.AddFact(F("R", {"a", "x"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"a", "y"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"b", "x"}, 1)).ok());
  Session session(std::move(db));

  // Replace block a with one fresh fact (x survives? no: replaced).
  Delta replace;
  replace.ReplaceBlock(InternSymbol("R"), {InternSymbol("a")},
                       {F("R", {"a", "z"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(replace).ok());
  EXPECT_TRUE(session.db().Contains(F("R", {"a", "z"}, 1)));
  EXPECT_FALSE(session.db().Contains(F("R", {"a", "x"}, 1)));
  EXPECT_FALSE(session.db().Contains(F("R", {"a", "y"}, 1)));
  EXPECT_EQ(session.db().size(), 2);

  // Empty replacement deletes the block; replacing a missing block is a
  // pure insert.
  Delta shuffle;
  shuffle.ReplaceBlock(InternSymbol("R"), {InternSymbol("b")}, {});
  shuffle.ReplaceBlock(InternSymbol("R"), {InternSymbol("c")},
                       {F("R", {"c", "u"}, 1), F("R", {"c", "v"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(shuffle).ok());
  EXPECT_EQ(session.db().size(), 3);
  EXPECT_FALSE(session.db().Contains(F("R", {"b", "x"}, 1)));
  EXPECT_TRUE(session.db().Contains(F("R", {"c", "u"}, 1)));

  // A fact of the wrong block rejects the delta.
  Delta wrong;
  wrong.ReplaceBlock(InternSymbol("R"), {InternSymbol("c")},
                     {F("R", {"d", "u"}, 1)});
  EXPECT_EQ(session.ApplyDelta(wrong).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- serving

TEST(SessionTest, SolveAndBatchMatchEngineAcrossDeltas) {
  Database db = corpus::ConferenceDatabase();
  Session::Options options;
  options.num_threads = 4;
  Session session(db, options);
  std::vector<Query> queries = {corpus::ConferenceQuery(),
                                corpus::PathQuery2(),
                                corpus::ConferenceQuery()};
  std::vector<std::shared_ptr<const QueryPlan>> plans;
  for (const Query& q : queries) {
    plans.push_back(testutil::CompilePlan(q).value());
  }

  for (int round = 0; round < 3; ++round) {
    std::vector<Result<SolveOutcome>> batch = session.SolveBatch(plans);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status();
      Result<SolveOutcome> expected =
          testutil::Solve(session.db(), queries[i]);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(batch[i]->certain, expected->certain) << i;
      EXPECT_EQ(batch[i]->solver, expected->solver) << i;
    }
    // Mutate between rounds: retract and re-grant PODS's A rating.
    Delta delta;
    if (round == 0) {
      delta.Remove(F("R", {"PODS", "A"}, 1));
    } else {
      delta.Insert(F("R", {"PODS", "A"}, 1));
    }
    ASSERT_TRUE(session.ApplyDelta(delta).ok());
  }
}

TEST(SessionTest, CertainAnswersServedFromCacheAcrossUnrelatedDeltas) {
  Database db;
  for (int i = 0; i < 8; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(F("Z", {"z", "z"}, 1)).ok());
  Session::Options options;
  options.num_threads = 2;
  Session session(db, options);

  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Result<Rows> first = Serve(session, q, fv);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->size(), 8u);
  EXPECT_EQ(session.stats().answers_full, 1u);

  // Same epoch: verbatim cache hit.
  Result<Rows> again = Serve(session, q, fv);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(session.stats().answers_cached, 1u);

  // A delta on a relation the query never mentions: the entry stays
  // valid and is served without re-deciding any row.
  Delta unrelated;
  unrelated.Insert(F("Z", {"y", "y"}, 1));
  ASSERT_TRUE(session.ApplyDelta(unrelated).ok());
  Result<Rows> after = Serve(session, q, fv);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *first);
  Session::Stats stats = session.stats();
  EXPECT_EQ(stats.answers_incremental, 1u);
  EXPECT_EQ(stats.rows_decided, 8u);  // the initial full compute only

  // A delta into one R block: only that block's row is re-decided.
  Delta touch;
  touch.ReplaceBlock(InternSymbol("R"),
                     {InternSymbol("a3")},
                     {F("R", {"a3", "nowhere"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(touch).ok());
  Result<Rows> pruned = Serve(session, q, fv);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->size(), 7u);  // a3 now dangles into no S fact
  stats = session.stats();
  EXPECT_EQ(stats.answers_incremental, 2u);
  EXPECT_EQ(stats.rows_decided, 8u + 0u);  // a3 is no longer possible
  EXPECT_EQ(stats.rows_reused, 8u + 7u);

  // Differential against a fresh engine on the materialized database.
  Result<Rows> expected = testutil::CertainAnswers(session.db(), q, fv);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*pruned, *expected);
}

TEST(SessionTest, BooleanAnswersUseRelationLevelInvalidation) {
  Database db = corpus::ConferenceDatabase();
  ASSERT_TRUE(db.AddFact(F("Z", {"z"}, 1)).ok());
  Session::Options options;
  options.num_threads = 2;
  Session session(db, options);
  Query q = corpus::ConferenceQuery();

  Result<Rows> base = Serve(session, q, {});
  ASSERT_TRUE(base.ok());
  Result<Rows> expected = testutil::CertainAnswers(session.db(), q, {});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*base, *expected);

  Delta unrelated;
  unrelated.Insert(F("Z", {"zz"}, 1));
  ASSERT_TRUE(session.ApplyDelta(unrelated).ok());
  Result<Rows> cached = Serve(session, q, {});
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, *base);
  EXPECT_EQ(session.stats().answers_incremental, 1u);

  // Touching the query's relation forces a recompute and tracks the
  // flipped result.
  Delta flip;
  flip.Remove(F("R", {"PODS", "A"}, 1));
  ASSERT_TRUE(session.ApplyDelta(flip).ok());
  Result<Rows> after = Serve(session, q, {});
  ASSERT_TRUE(after.ok());
  Result<Rows> fresh = testutil::CertainAnswers(session.db(), q, {});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*after, *fresh);
  EXPECT_GE(session.stats().answers_full, 2u);
}

/// The path query's S key (y) pins no free variable, yet a flip of one
/// S block reaches only the R rows pointing at it: exactly those are
/// re-decided, the rest are served from the cache.
TEST(SessionTest, NonKeyBlockFlipReDecidesOnlyTheReachedRows) {
  Database db;
  for (int i = 0; i < 12; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i % 4);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
  }
  for (int j = 0; j < 4; ++j) {
    ASSERT_TRUE(db.AddFact(F("S", {"b" + std::to_string(j), "c"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  Session session(db, options);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};

  Result<Rows> first = Serve(session, q, fv);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->size(), 12u);
  Session::Stats base = session.stats();
  ASSERT_EQ(base.answers_full, 1u);

  // S(b0) is reached from a0, a4 and a8 (before and after the flip).
  Delta flip;
  flip.ReplaceBlock(InternSymbol("S"), {InternSymbol("b0")},
                    {F("S", {"b0", "d"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(flip).ok());
  Result<Rows> flipped = Serve(session, q, fv);
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(*flipped, *first);
  Session::Stats stats = session.stats();
  EXPECT_EQ(stats.answers_full, base.answers_full);
  EXPECT_EQ(stats.answers_incremental, base.answers_incremental + 1);
  EXPECT_EQ(stats.rows_decided - base.rows_decided, 3u);
  EXPECT_EQ(stats.rows_reused - base.rows_reused, 9u);

  // Deleting S(b1) reaches a1, a5 and a9 before the delta and nothing
  // after it: they leave the answer without a decision (no longer
  // possible).
  base = stats;
  Delta drop;
  drop.ReplaceBlock(InternSymbol("S"), {InternSymbol("b1")}, {});
  ASSERT_TRUE(session.ApplyDelta(drop).ok());
  Result<Rows> dropped = Serve(session, q, fv);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->size(), 9u);
  stats = session.stats();
  EXPECT_EQ(stats.answers_full, base.answers_full);
  EXPECT_EQ(stats.rows_decided - base.rows_decided, 0u);
  EXPECT_EQ(stats.rows_reused - base.rows_reused, 9u);

  Result<Rows> expected = testutil::CertainAnswers(session.db(), q, fv);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*dropped, *expected);
}

/// An entry whose rows are all possible but none certain is still
/// re-served incrementally: the give-up bound is what a full recompute
/// would decide (the possible rows), not the cached certain rows.
TEST(SessionTest, UncertainRowsKeepTheEntryIncremental) {
  Database db;
  // Every a_i has a second fact leaving R(a_i | b): possible, uncertain.
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, "b"}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("R", {a, "c"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  Session session(db, options);
  Query q = MustParseQuery("R(x | 'b')");
  std::vector<SymbolId> fv = {InternSymbol("x")};

  Result<Rows> first = Serve(session, q, fv);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->empty());
  Session::Stats base = session.stats();
  ASSERT_EQ(base.answers_full, 1u);

  // A third fact in a0's block reaches a0 only: still uncertain.
  Delta grow;
  grow.Insert(F("R", {"a0", "d"}, 1));
  ASSERT_TRUE(session.ApplyDelta(grow).ok());
  Result<Rows> grown = Serve(session, q, fv);
  ASSERT_TRUE(grown.ok());
  EXPECT_TRUE(grown->empty());
  Session::Stats stats = session.stats();
  EXPECT_EQ(stats.answers_full, base.answers_full);
  EXPECT_EQ(stats.answers_incremental, base.answers_incremental + 1);
  EXPECT_EQ(stats.rows_decided - base.rows_decided, 1u);

  // Dropping a1's dangling fact makes a1 certain.
  base = stats;
  Delta settle;
  settle.Remove(F("R", {"a1", "c"}, 1));
  ASSERT_TRUE(session.ApplyDelta(settle).ok());
  Result<Rows> settled = Serve(session, q, fv);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(*settled, (Rows{{InternSymbol("a1")}}));
  stats = session.stats();
  EXPECT_EQ(stats.answers_full, base.answers_full);
  EXPECT_EQ(stats.answers_incremental, base.answers_incremental + 1);
  EXPECT_EQ(stats.rows_decided - base.rows_decided, 1u);

  Result<Rows> expected = testutil::CertainAnswers(session.db(), q, fv);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*settled, *expected);
}

/// A delta whose reach outgrows the entry's possible rows erases it:
/// re-deciding more rows than a full recompute decides saves nothing.
TEST(SessionTest, ReachBeyondThePossibleRowsErasesTheEntry) {
  Database db;
  // u0..u4 and k are possible; only k is certain (each u_i has a
  // second fact that dangles).
  for (int i = 0; i < 5; ++i) {
    std::string u = "u" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {u, "b"}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("R", {u, "nowhere" + std::to_string(i)}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(F("S", {"b", "c"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("R", {"k", "b2"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(F("S", {"b2", "c"}, 1)).ok());
  // v0..v6 point at S(b3), which is not there yet: not possible.
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(db.AddFact(F("R", {"v" + std::to_string(i), "b3"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  Session session(db, options);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};

  Result<Rows> first = Serve(session, q, fv);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 1u);
  Session::Stats base = session.stats();

  // Flipping S(b) reaches the five u_i: within the six possible rows.
  Delta flip;
  flip.ReplaceBlock(InternSymbol("S"), {InternSymbol("b")},
                    {F("S", {"b", "d"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(flip).ok());
  Result<Rows> flipped = Serve(session, q, fv);
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(*flipped, *first);
  Session::Stats stats = session.stats();
  EXPECT_EQ(stats.answers_full, base.answers_full);
  EXPECT_EQ(stats.answers_incremental, base.answers_incremental + 1);
  EXPECT_EQ(stats.rows_decided - base.rows_decided, 5u);

  // Creating S(b3) reaches the seven v_i, more than the six possible.
  base = stats;
  Delta create;
  create.Insert(F("S", {"b3", "c"}, 1));
  ASSERT_TRUE(session.ApplyDelta(create).ok());
  Result<Rows> created = Serve(session, q, fv);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->size(), 8u);
  stats = session.stats();
  EXPECT_EQ(stats.answers_full, base.answers_full + 1);
  EXPECT_EQ(stats.answers_incremental, base.answers_incremental);

  Result<Rows> expected = testutil::CertainAnswers(session.db(), q, fv);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*created, *expected);
}

/// One enumeration pass of a delta produces at most |database| reach
/// rows, spent on the most recently served entries first: a delta into
/// a hub block that every row of several entries joins through keeps
/// the first of them incremental and erases the rest.
TEST(SessionTest, HubDeltaReachIsCappedByTheDatabaseSize) {
  Database db;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.AddFact(F("R", {"a" + std::to_string(i), "h"}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(F("S", {"h", "c"}, 1)).ok());
  std::vector<Query> queries;
  for (int k = 0; k < 3; ++k) {
    std::string w = "W" + std::to_string(k);
    ASSERT_TRUE(db.AddFact(F(w, {"c", "d"}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F(w, {"c2", "d"}, 1)).ok());
    queries.push_back(MustParseQuery("R(x | y), S(y | z), " + w + "(z | w)"));
  }
  ASSERT_EQ(db.size(), 27);
  Session::Options options;
  options.num_threads = 2;
  Session session(db, options);
  std::vector<SymbolId> fv = {InternSymbol("x")};
  for (const Query& q : queries) {  // W2's entry is served last
    Result<Rows> rows = Serve(session, q, fv);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_EQ(rows->size(), 20u);
  }
  Session::Stats base = session.stats();

  // S(h) reaches all 20 rows of every entry: 60 rows, 27 facts.
  Delta flip;
  flip.ReplaceBlock(InternSymbol("S"), {InternSymbol("h")},
                    {F("S", {"h", "c2"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(flip).ok());
  for (const Query& q : queries) {
    Result<Rows> rows = Serve(session, q, fv);
    ASSERT_TRUE(rows.ok());
    Result<Rows> expected = testutil::CertainAnswers(session.db(), q, fv);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*rows, *expected);
  }
  Session::Stats stats = session.stats();
  EXPECT_EQ(stats.answers_incremental, base.answers_incremental + 1);
  EXPECT_EQ(stats.answers_full, base.answers_full + 2);
  EXPECT_EQ(stats.rows_decided - base.rows_decided, 20u + 2 * 20u);
}

// --------------------------------------------- randomized differential

/// Random facts compatible with q's schema, the delta fodder.
std::vector<Fact> FactPool(const Query& q, uint64_t seed) {
  BlockDbGenOptions options;
  options.seed = seed;
  options.blocks_per_relation = 3;
  options.max_block_size = 2;
  options.domain_size = 4;
  Database pool = RandomBlockDatabase(q, options);
  return std::vector<Fact>(pool.facts().begin(), pool.facts().end());
}

/// A random delta over the session's current database: inserts from the
/// pool, removes of live facts, and block replacements. Tracks the facts
/// already consumed by earlier ops of the same delta so a valid delta
/// never removes the same fact twice.
Delta RandomDelta(const Database& db, const std::vector<Fact>& pool,
                  Rng* rng) {
  Delta delta;
  std::unordered_set<Fact, FactHash> consumed;
  int ops = static_cast<int>(rng->Range(1, 3));
  for (int i = 0; i < ops; ++i) {
    switch (rng->Below(3)) {
      case 0:
        if (!pool.empty()) {
          delta.Insert(pool[rng->Below(pool.size())]);
        }
        break;
      case 1:
        if (!db.empty()) {
          const Fact& fact = db.facts()[rng->Below(db.facts().size())];
          if (consumed.insert(fact).second) delta.Remove(fact);
        }
        break;
      default:
        if (!db.blocks().empty()) {
          const Database::Block& block =
              db.blocks()[rng->Below(db.blocks().size())];
          std::vector<Fact> facts;
          bool fresh = true;
          for (int fid : block.fact_ids) {
            const Fact& fact = db.facts()[fid];
            fresh = fresh && consumed.insert(fact).second;
            if (rng->Chance(1, 2)) facts.push_back(fact);
          }
          if (!fresh) break;  // an earlier op already touched this block
          for (const Fact& f : pool) {
            if (f.relation() == block.relation &&
                f.key_arity() ==
                    static_cast<int>(block.key.size()) &&
                f.KeyValues() == block.key && rng->Chance(1, 3)) {
              facts.push_back(f);
            }
          }
          delta.ReplaceBlock(block.relation, block.key, std::move(facts));
        }
        break;
    }
  }
  return delta;
}

/// The ISSUE's acceptance bar: after any random sequence of deltas, the
/// session's certain answers must equal a fresh engine computation on
/// the materialized database. >= 200 (db, delta-seq, query) triples;
/// the session path exercises the dirty-row cache, the fresh engine
/// rebuilds from scratch.
TEST(SessionTest, RandomDeltaSequencesMatchFreshEngine) {
  constexpr int kSeeds = 70;
  constexpr int kDeltasPerSeed = 3;
  int triples = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    QueryGenOptions qopt;
    qopt.seed = seed;
    qopt.num_atoms = static_cast<int>(1 + (seed % 3));
    qopt.max_arity = 3;
    Query q = RandomAcyclicQuery(qopt);

    BlockDbGenOptions dopt;
    dopt.seed = seed * 31;
    dopt.blocks_per_relation = 3;
    dopt.max_block_size = 2;
    dopt.domain_size = 4;
    Database db = RandomBlockDatabase(q, dopt);
    std::vector<Fact> pool = FactPool(q, seed * 131);

    // Up to two free variables of q.
    VarSet vars = q.Vars();
    std::vector<SymbolId> fv(vars.begin(), vars.end());
    Rng rng(seed * 977);
    rng.Shuffle(&fv);
    fv.resize(std::min<size_t>(fv.size(), seed % 3));

    Session::Options sopt;
    sopt.num_threads = 2;
    Session session(std::move(db), sopt);

    for (int d = 0; d < kDeltasPerSeed; ++d) {
      Delta delta = RandomDelta(session.db(), pool, &rng);
      Result<uint64_t> applied = session.ApplyDelta(delta);
      ASSERT_TRUE(applied.ok()) << applied.status();

      Result<Rows> served = Serve(session, q, fv);
      ASSERT_TRUE(served.ok())
          << seed << "/" << d << ": " << served.status();
      Result<Rows> fresh = testutil::CertainAnswers(session.db(), q, fv);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ(*served, *fresh)
          << "seed " << seed << " delta " << d << " query "
          << q.ToString();
      ++triples;
    }
  }
  EXPECT_GE(triples, 200);
}

/// One cached query of a delta-window session.
struct WindowQuery {
  Query q;
  std::vector<SymbolId> fv;
};

/// Facts over the window schema R(k | v), S(k | v), T(k1, k2 | v) with
/// values drawn from a small domain, so blocks join densely.
Fact WindowFact(Rng* rng, SymbolId relation, std::vector<SymbolId> key) {
  std::vector<SymbolId> values = std::move(key);
  int key_arity = static_cast<int>(values.size());
  values.push_back(InternSymbol("c" + std::to_string(rng->Below(4))));
  return Fact(relation, std::move(values), key_arity);
}

std::vector<SymbolId> WindowKey(Rng* rng, SymbolId relation) {
  std::vector<SymbolId> key = {
      InternSymbol("c" + std::to_string(rng->Below(4)))};
  if (relation == InternSymbol("T")) {
    key.push_back(InternSymbol("c" + std::to_string(rng->Below(4))));
  }
  return key;
}

SymbolId WindowRelation(Rng* rng) {
  static const char* const kRelations[] = {"R", "S", "T"};
  return InternSymbol(kRelations[rng->Below(3)]);
}

/// A multi-op delta over the window schema: inserts, removes, block
/// replacements and whole-block deletions, each op on a block no earlier
/// op of the delta touched (so the delta always validates).
Delta WindowDelta(const Database& db, Rng* rng) {
  Delta delta;
  std::set<std::pair<SymbolId, std::vector<SymbolId>>> touched;
  int ops = static_cast<int>(rng->Range(2, 4));
  for (int i = 0; i < ops; ++i) {
    SymbolId relation = WindowRelation(rng);
    std::vector<SymbolId> key = WindowKey(rng, relation);
    if (!touched.insert({relation, key}).second) continue;
    const Database::Block* block = db.FindBlock(relation, key);
    switch (rng->Below(4)) {
      case 0:
        delta.Insert(WindowFact(rng, relation, key));
        break;
      case 1:
        if (block != nullptr) {
          delta.Remove(db.facts()[block->fact_ids[rng->Below(
              block->fact_ids.size())]]);
        }
        break;
      case 2:
        delta.ReplaceBlock(relation, key, {});  // whole-block deletion
        break;
      default: {
        std::vector<Fact> facts;
        int size = static_cast<int>(rng->Range(1, 2));
        for (int f = 0; f < size; ++f) {
          facts.push_back(WindowFact(rng, relation, key));
        }
        delta.ReplaceBlock(relation, key, std::move(facts));
        break;
      }
    }
  }
  return delta;
}

/// Entries that stay stale across several deltas accumulate the reach
/// of each: every session caches a query with constants, one whose
/// free variable sits only in a non-key position, one with two free
/// variables and (mostly) a Boolean one, applies multi-op deltas and
/// serves a random subset only every 1-5 deltas. Every served answer
/// must equal a fresh engine's on the materialized database, and a
/// serve decides only rows that are possible at its epoch.
TEST(SessionTest, DeltaWindowsMatchFreshEngine) {
  const std::vector<std::pair<const char*, std::vector<const char*>>>
      kWithConstants = {{"R(x | y), S(y | 'c1')", {"x"}},
                        {"R('c0' | y), S(y | z)", {"z"}},
                        {"T(x, 'c2' | w), S(w | z)", {"x"}}};
  const std::vector<std::pair<const char*, std::vector<const char*>>>
      kNonKeyFree = {{"R(x | y), S(y | z)", {"z"}},
                     {"S(y | z), T(z, u | w)", {"w"}},
                     {"R(x | y), T(y, z | w)", {"w"}}};
  const std::vector<std::pair<const char*, std::vector<const char*>>>
      kTwoFree = {{"R(x | y), S(y | z)", {"x", "z"}},
                  {"R(x | y), T(y, z | w)", {"x", "w"}},
                  {"R(x | y), S(y | x)", {"x", "y"}},
                  {"R(x | y), S(y | z)", {"x", "x"}}};
  const std::vector<std::pair<const char*, std::vector<const char*>>>
      kBoolean = {{"R(x | y), S(y | z)", {}},
                  {"R(x | y), T(y, z | w)", {}},
                  {"S(y | 'c1'), R(x | y)", {}}};
  auto pick = [](const auto& family, Rng* rng) {
    const auto& [text, vars] = family[rng->Below(family.size())];
    WindowQuery out{MustParseQuery(text), {}};
    for (const char* v : vars) out.fv.push_back(InternSymbol(v));
    return out;
  };

  constexpr int kSeeds = 120;
  constexpr int kDeltasPerSeed = 14;
  int comparisons = 0;
  int disagreements = 0;
  uint64_t incremental = 0;
  uint64_t decided_incrementally = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed * 7919);
    Database db;
    for (int b = 0; b < 10; ++b) {
      SymbolId relation = WindowRelation(&rng);
      std::vector<SymbolId> key = WindowKey(&rng, relation);
      int size = static_cast<int>(rng.Range(1, 2));
      for (int f = 0; f < size; ++f) {
        ASSERT_TRUE(db.AddFact(WindowFact(&rng, relation, key)).ok());
      }
    }
    std::vector<WindowQuery> queries = {pick(kWithConstants, &rng),
                                        pick(kNonKeyFree, &rng),
                                        pick(kTwoFree, &rng)};
    if (seed % 4 != 0) queries.push_back(pick(kBoolean, &rng));

    Session::Options options;
    options.num_threads = 2;
    Session session(std::move(db), options);
    auto serve_and_check = [&](const WindowQuery& wq, int d) {
      Session::Stats before = session.stats();
      Result<Rows> served = Serve(session, wq.q, wq.fv);
      ASSERT_TRUE(served.ok()) << served.status();
      Session::Stats after = session.stats();
      Result<Rows> fresh = testutil::CertainAnswers(session.db(), wq.q, wq.fv);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      Result<Rows> possible =
          testutil::PossibleAnswers(session.db(), wq.q, wq.fv);
      ASSERT_TRUE(possible.ok()) << possible.status();
      bool agrees =
          *served == *fresh &&
          after.rows_decided - before.rows_decided <= possible->size();
      if (!agrees) {
        ++disagreements;
        ADD_FAILURE() << "seed " << seed << " delta " << d << " query "
                      << wq.q.ToString() << ": served " << served->size()
                      << " rows, expected " << fresh->size() << ", decided "
                      << after.rows_decided - before.rows_decided << " of "
                      << possible->size() << " possible";
      }
      incremental += after.answers_incremental - before.answers_incremental;
      if (after.answers_incremental > before.answers_incremental) {
        decided_incrementally += after.rows_decided - before.rows_decided;
      }
      ++comparisons;
    };
    for (const WindowQuery& wq : queries) serve_and_check(wq, -1);

    int until_serve = static_cast<int>(rng.Range(1, 5));
    for (int d = 0; d < kDeltasPerSeed; ++d) {
      Delta delta = WindowDelta(session.db(), &rng);
      Result<uint64_t> applied = session.ApplyDelta(delta);
      ASSERT_TRUE(applied.ok()) << applied.status();
      if (--until_serve > 0) continue;
      until_serve = static_cast<int>(rng.Range(1, 5));
      bool served_any = false;
      for (size_t i = 0; i < queries.size(); ++i) {
        bool last = i + 1 == queries.size();
        if (rng.Chance(1, 2) || (last && !served_any)) {
          serve_and_check(queries[i], d);
          served_any = true;
        }
      }
    }
  }
  EXPECT_EQ(disagreements, 0);
  EXPECT_GE(comparisons, 1000);
  // The stale-entry path (not only full recomputes) carried the serves.
  EXPECT_GT(incremental, 100u);
  EXPECT_GT(decided_incrementally, 0u);
}

// ------------------------------------------------------- concurrency

/// Readers race a writer that flips one block between two states; every
/// read must observe one of the two epoch-consistent answer sets. Run
/// under TSan in CI (label: concurrency).
TEST(SessionTest, ConcurrentReadersSeeConsistentSnapshots) {
  Database db;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
  }
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};

  Session::Options options;
  options.num_threads = 4;
  Session session(db, options);

  // State A: R(a0 | b0) (row a0 certain). State B: R(a0 | nowhere).
  Result<Rows> rows_a = Serve(session, q, fv);
  ASSERT_TRUE(rows_a.ok());
  ASSERT_EQ(rows_a->size(), 6u);
  Rows rows_b = *rows_a;
  rows_b.erase(rows_b.begin());  // a0 sorts first

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  constexpr int kReaders = 3;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      // Bounded (and yielding) so tight reader loops can never starve
      // the writer's exclusive lock on a single-core host.
      for (int it = 0; it < 200 && !stop.load(); ++it) {
        Result<Rows> got = Serve(session, q, fv);
        if (!got.ok() || (*got != *rows_a && *got != rows_b)) {
          mismatches.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }
  SymbolId r = InternSymbol("R");
  std::vector<SymbolId> key = {InternSymbol("a0")};
  for (int flip = 0; flip < 40; ++flip) {
    Delta delta;
    delta.ReplaceBlock(
        r, key,
        {flip % 2 == 0 ? F("R", {"a0", "nowhere"}, 1)
                       : F("R", {"a0", "b0"}, 1)});
    ASSERT_TRUE(session.ApplyDelta(delta).ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(session.epoch(), 40u);

  // Settled state: back to A.
  Result<Rows> settled = Serve(session, q, fv);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(*settled, *rows_a);
}

TEST(SessionTest, AnswerSnapshotsAreSharedCopyOnWrite) {
  Database db;
  for (int i = 0; i < 6; ++i) {
    std::string a = "a" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, "b"}, 1)).ok());
  }
  ASSERT_TRUE(db.AddFact(F("S", {"b", "c"}, 1)).ok());
  Session::Options options;
  options.num_threads = 2;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z)");
  std::vector<SymbolId> fv = {InternSymbol("x")};

  auto first = testutil::SessionCertainAnswers(session, q, fv);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ((*first)->size(), 6u);

  // Same epoch: the cache hit returns the SAME snapshot object — no
  // per-serve row copy.
  auto hit = testutil::SessionCertainAnswers(session, q, fv);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(first->get(), hit->get());

  // A delta that changes the answers installs a NEW snapshot; the old
  // one, still held here, is untouched (copy-on-write semantics).
  Rows before = **first;
  Delta drop;
  drop.ReplaceBlock(InternSymbol("R"), {InternSymbol("a0")},
                    {F("R", {"a0", "nowhere"}, 1)});
  ASSERT_TRUE(session.ApplyDelta(drop).ok());
  auto after = testutil::SessionCertainAnswers(session, q, fv);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(first->get(), after->get());
  EXPECT_EQ((*after)->size(), 5u);
  EXPECT_EQ(**first, before);
}

TEST(SessionTest, PersistentPoolReusesWorkerIndexesAcrossCalls) {
  Database db;
  for (int i = 0; i < 4; ++i) {
    std::string a = "a" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, "b"}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {"b", "c"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 1;  // deterministic single worker
  Session session(db, options);
  Query q = MustParseQuery("R(x | y), S(y | z)");

  // Many sequential solves share one worker context; deltas in between
  // patch its index rather than rebuilding it. Correctness is asserted
  // against the engine; the reuse itself is observable through the
  // stable result and the epoch bookkeeping.
  for (int i = 0; i < 5; ++i) {
    Result<SolveOutcome> solved = testutil::SessionSolve(session, q);
    ASSERT_TRUE(solved.ok());
    Result<SolveOutcome> expected = testutil::Solve(session.db(), q);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(solved->certain, expected->certain);
    Delta delta;
    std::string a = "x" + std::to_string(i);
    delta.Insert(F("R", {a, "b"}, 1));
    ASSERT_TRUE(session.ApplyDelta(delta).ok());
  }
  EXPECT_EQ(session.epoch(), 5u);
  EXPECT_EQ(session.stats().facts_added, 5u);
}

// ------------------------------------------- writer-priority epoch gate

/// The deterministic writer-priority property: once a writer is
/// PENDING on the gate, a newly arriving reader must queue behind it
/// instead of slipping in alongside the readers already inside — the
/// inversion of glibc's reader-preferring rwlock that lets ApplyDelta
/// starve.
TEST(SessionTest, WriterPriorityGateBlocksNewReadersBehindPendingWriter) {
  WriterPriorityGate gate;
  std::mutex mu;
  std::condition_variable cv;
  bool writer_done = false;
  std::atomic<bool> late_reader_entered{false};

  gate.lock_shared();  // reader A is inside

  std::thread writer([&] {
    gate.lock();  // pends behind A until A leaves
    {
      std::lock_guard<std::mutex> lock(mu);
      writer_done = true;
    }
    cv.notify_all();
    gate.unlock();
  });

  // Give the writer time to announce itself, then verify a NEW reader
  // cannot acquire while it is pending.
  while (gate.try_lock_shared()) {
    // The writer has not pended yet; undo and retry.
    gate.unlock_shared();
    std::this_thread::yield();
  }
  std::thread late_reader([&] {
    gate.lock_shared();
    late_reader_entered.store(true);
    gate.unlock_shared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(late_reader_entered.load())
      << "a new reader entered past a pending writer";

  gate.unlock_shared();  // A leaves; the writer (not the reader) is next
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return writer_done; });
  }
  late_reader.join();
  writer.join();
  EXPECT_TRUE(late_reader_entered.load());

  // try_lock on a free gate works and excludes readers.
  ASSERT_TRUE(gate.try_lock());
  EXPECT_FALSE(gate.try_lock_shared());
  gate.unlock();
}

/// The regression the gate exists for (TSan-checked via the concurrency
/// label): ApplyDelta keeps making progress while reader threads
/// saturate the epoch gate with back-to-back serving calls.
TEST(SessionTest, ApplyDeltaProgressesUnderSaturatedReadLoad) {
  Database db;
  for (int i = 0; i < 16; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    ASSERT_TRUE(db.AddFact(F("R", {a, b}, 1)).ok());
    ASSERT_TRUE(db.AddFact(F("S", {b, "c"}, 1)).ok());
  }
  Session::Options options;
  options.num_threads = 2;
  Session session(std::move(db), options);
  Query q = MustParseQuery("R(x | y), S(y | z)");

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(testutil::SessionSolve(session, q).ok());
      }
    });
  }

  // Every delta must land; with the old reader-preferring lock this
  // loop could stall arbitrarily under the reader storm above.
  constexpr int kDeltas = 50;
  for (int i = 0; i < kDeltas; ++i) {
    Delta delta;
    delta.ReplaceBlock(InternSymbol("R"), {InternSymbol("a0")},
                       {F("R", {"a0", i % 2 == 0 ? "b0" : "elsewhere"}, 1)});
    ASSERT_TRUE(session.ApplyDelta(delta).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(session.epoch(), static_cast<uint64_t>(kDeltas));
  EXPECT_EQ(session.stats().deltas_applied, static_cast<uint64_t>(kDeltas));
}

}  // namespace
}  // namespace cqa
