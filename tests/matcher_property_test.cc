#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cq/corpus.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "db/repairs.h"
#include "gen/db_gen.h"
#include "gen/query_gen.h"
#include "util/rng.h"

namespace cqa {
namespace {

/// An embedding enumerator: ForEachEmbedding (the indexed search) or
/// NaiveForEachEmbedding (the reference scan).
using Matcher = bool (*)(const FactIndex&, const Query&, const Valuation&,
                         const std::function<bool(const Valuation&)>&);

/// Embeddings as canonical (sorted) binding lists, independent of the
/// order in which a matcher binds variables.
std::multiset<std::vector<std::pair<SymbolId, SymbolId>>> Embeddings(
    const FactIndex& index, const Query& q, const Valuation& initial,
    Matcher matcher) {
  std::multiset<std::vector<std::pair<SymbolId, SymbolId>>> out;
  matcher(index, q, initial, [&](const Valuation& theta) {
    std::vector<std::pair<SymbolId, SymbolId>> bindings(
        theta.entries().begin(), theta.entries().end());
    std::sort(bindings.begin(), bindings.end());
    out.insert(std::move(bindings));
    return true;
  });
  return out;
}

using Rows = std::vector<std::vector<SymbolId>>;

/// The test-side oracle of CollectProjectionsSorted: the distinct
/// projections of the naive matcher's embeddings, sorted.
Rows ReferenceProjections(const FactIndex& index, const Query& q,
                          const Valuation& initial,
                          const std::vector<SymbolId>& vars) {
  std::set<std::vector<SymbolId>> rows;
  NaiveForEachEmbedding(index, q, initial, [&](const Valuation& theta) {
    std::vector<SymbolId> row;
    for (SymbolId v : vars) row.push_back(*theta.Get(v));
    rows.insert(std::move(row));
    return true;
  });
  return Rows(rows.begin(), rows.end());
}

std::string VarList(const std::vector<SymbolId>& vars) {
  std::string out = "[";
  for (SymbolId v : vars) out += " " + SymbolName(v);
  return out + " ]";
}

/// Counts the enumerator's disagreements with the oracle (and reports
/// each one). The row-capped variant must give up below the oracle's
/// row count and, when it does not give up, return the oracle's rows.
int ProjectionDisagreements(const FactIndex& index, const Query& q,
                            const Valuation& initial,
                            const std::vector<SymbolId>& vars,
                            const std::string& context) {
  Rows got = CollectProjectionsSorted(index, q, initial, vars);
  Rows want = ReferenceProjections(index, q, initial, vars);
  EXPECT_EQ(got, want) << context << "\nquery: " << q.ToString()
                       << "\nvars: " << VarList(vars)
                       << "\nseed: " << initial.ToString();
  bool capped_ok = true;
  if (!want.empty()) {
    capped_ok = !CollectProjectionsSortedUpTo(index, q, initial, vars,
                                              want.size() - 1)
                     .has_value();
  }
  std::optional<Rows> at_count =
      CollectProjectionsSortedUpTo(index, q, initial, vars, want.size());
  capped_ok = capped_ok && (!at_count.has_value() || *at_count == want);
  std::optional<Rows> uncapped = CollectProjectionsSortedUpTo(
      index, q, initial, vars, std::numeric_limits<size_t>::max());
  capped_ok = capped_ok && uncapped.has_value() && *uncapped == want;
  EXPECT_TRUE(capped_ok) << context << "\nquery: " << q.ToString()
                         << "\nvars: " << VarList(vars);
  return got == want && capped_ok ? 0 : 1;
}

/// The enumerator against its oracle on one (index, query) pair:
/// projections on no variable, every variable, a seed-chosen subset and
/// that subset with its first variable listed twice; each unseeded, with
/// a seed-chosen part of the projected variables pre-bound to a value of
/// some embedding, and pre-bound to an arbitrary domain value.
int ExpectEnumeratorAgrees(const FactIndex& index, const Query& q,
                           const std::vector<SymbolId>& domain,
                           uint64_t seed, const std::string& context) {
  VarSet var_set = q.Vars();
  std::vector<SymbolId> all(var_set.begin(), var_set.end());
  Rng rng(seed * 0x2545f4914f6cdd1dull + 1);
  std::vector<SymbolId> subset;
  for (SymbolId v : all) {
    if (rng.Chance(1, 2)) subset.push_back(v);
  }
  rng.Shuffle(&subset);
  std::vector<SymbolId> twice = subset;
  if (!twice.empty()) twice.push_back(twice.front());
  Valuation witness;
  ForEachEmbedding(index, q, Valuation(), [&](const Valuation& theta) {
    witness = theta;
    return false;
  });
  int disagreements = 0;
  for (const std::vector<SymbolId>& vars :
       {std::vector<SymbolId>{}, all, subset, twice}) {
    disagreements +=
        ProjectionDisagreements(index, q, Valuation(), vars, context);
    Valuation from_witness;
    Valuation from_domain;
    for (SymbolId v : vars) {
      if (!rng.Chance(1, 2)) continue;
      if (std::optional<SymbolId> value = witness.Get(v)) {
        from_witness.Bind(v, *value);
      }
      if (!domain.empty()) {
        from_domain.Bind(v, domain[rng.Below(domain.size())]);
      }
    }
    disagreements += ProjectionDisagreements(index, q, from_witness, vars,
                                             context + " (witness seed)");
    disagreements += ProjectionDisagreements(index, q, from_domain, vars,
                                             context + " (domain seed)");
  }
  return disagreements;
}

void ExpectMatchersAgree(const Database& db, const Query& q,
                         const std::string& context, uint64_t seed) {
  FactIndex index(db);
  EXPECT_EQ(ExpectEnumeratorAgrees(index, q, db.ActiveDomain(), seed,
                                   context),
            0);
  auto indexed = Embeddings(index, q, Valuation(), &ForEachEmbedding);
  auto naive = Embeddings(index, q, Valuation(), &NaiveForEachEmbedding);
  ASSERT_EQ(indexed, naive) << context << "\nquery: " << q.ToString()
                            << "\ndb:\n"
                            << db.ToString();
  // Satisfies (the early-exit path) must agree with the reference
  // embeddings being non-empty.
  EXPECT_EQ(Satisfies(index, q), !naive.empty()) << context;
}

/// The differential property: indexed and naive matchers agree on the
/// full embedding multiset across >= 1000 random (db, query) pairs.
class MatcherDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherDifferential, RandomQueriesUniformDb) {
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
  ExpectMatchersAgree(RandomDatabase(q, dopts), q, "uniform", seed);
}

TEST_P(MatcherDifferential, RandomQueriesBlockDb) {
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
  ExpectMatchersAgree(RandomBlockDatabase(q, bopts), q, "block", seed);
}

TEST_P(MatcherDifferential, CorpusQueries) {
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    BlockDbGenOptions bopts;
    bopts.seed = GetParam() * 7 + 5;
    bopts.blocks_per_relation = 3;
    bopts.max_block_size = 2;
    bopts.domain_size = 4;
    ExpectMatchersAgree(RandomBlockDatabase(q, bopts), q, name, GetParam());
  }
}

TEST_P(MatcherDifferential, PartialInitialValuation) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed * 3 + 11;
  qopts.num_atoms = 3;
  Query q = RandomAcyclicQuery(qopts);
  DbGenOptions dopts;
  dopts.seed = seed * 5 + 13;
  Database db = RandomDatabase(q, dopts);
  FactIndex index(db);
  // Seed the search with one variable pinned to each constant in turn.
  VarSet vars = q.Vars();
  if (vars.empty()) return;
  SymbolId var = *vars.begin();
  for (SymbolId value : db.ActiveDomain()) {
    Valuation initial;
    initial.Bind(var, value);
    auto indexed = Embeddings(index, q, initial, &ForEachEmbedding);
    auto naive = Embeddings(index, q, initial, &NaiveForEachEmbedding);
    ASSERT_EQ(indexed, naive)
        << q.ToString() << " with " << initial.ToString() << "\n"
        << db.ToString();
  }
}

// 350 seeds x (1 uniform + 1 block + |corpus| + partial) >> 1000 pairs.
INSTANTIATE_TEST_SUITE_P(Seeds, MatcherDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{351}));

// ------------------------------------------- projection enumerator cases

/// Facts owned by the test and indexed by hand, so one relation may hold
/// facts of several arities (a Database keeps one signature each).
struct HandIndex {
  std::deque<Fact> facts;
  FactIndex index;

  void Add(const std::string& relation, const std::vector<std::string>& values,
           int key_arity) {
    facts.push_back(Fact::Make(relation, values, key_arity));
    index.Add(&facts.back());
  }
};

/// Random queries the acyclic generator does not produce — self-joins,
/// repeated variables within an atom, constants, atoms whose arity
/// differs from their relation's — over random, sometimes mixed-arity,
/// fact sets.
TEST_P(MatcherDifferential, EnumeratorShapedQueries) {
  uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const std::vector<std::string> domain = {"a", "b", "c", "d"};
  const std::vector<std::string> var_names = {"x", "y", "z", "w"};
  const int num_relations = 3;
  std::vector<int> arity(num_relations);
  std::vector<int> key_arity(num_relations);
  HandIndex hand;
  for (int r = 0; r < num_relations; ++r) {
    std::string name = "E" + std::to_string(r);
    arity[r] = static_cast<int>(rng.Range(1, 3));
    key_arity[r] = static_cast<int>(rng.Range(1, arity[r]));
    int facts = static_cast<int>(rng.Range(0, 9));
    for (int f = 0; f < facts; ++f) {
      // One relation in five also gets facts of a neighbouring arity.
      int a = arity[r];
      if (r == 0 && seed % 5 == 0 && rng.Chance(1, 3)) a += 1;
      std::vector<std::string> values;
      for (int p = 0; p < a; ++p) {
        values.push_back(domain[rng.Below(domain.size())]);
      }
      hand.Add(name, values, std::min(key_arity[r], a));
    }
  }
  Query q;
  int atoms = static_cast<int>(rng.Range(1, 4));
  for (int i = 0; i < atoms; ++i) {
    int r = static_cast<int>(rng.Below(num_relations));
    int a = arity[r];
    if (rng.Chance(1, 8)) a = a == 1 ? 2 : a - 1;  // Arity mismatch.
    std::vector<Term> terms;
    for (int p = 0; p < a; ++p) {
      terms.push_back(rng.Chance(3, 4)
                          ? Term::Var(var_names[rng.Below(var_names.size())])
                          : Term::Const(domain[rng.Below(domain.size())]));
    }
    q.AddAtom(Atom(InternSymbol("E" + std::to_string(r)), std::move(terms),
                   std::min(key_arity[r], a)));
  }
  std::vector<SymbolId> adom;
  for (const std::string& v : domain) adom.push_back(InternSymbol(v));
  EXPECT_EQ(ExpectEnumeratorAgrees(hand.index, q, adom, seed, "shaped"), 0);
}

Rows Project(const FactIndex& index, const std::string& query,
             const std::vector<std::string>& vars,
             const Valuation& initial = Valuation()) {
  std::vector<SymbolId> ids;
  for (const std::string& v : vars) ids.push_back(InternSymbol(v));
  Query q = MustParseQuery(query);
  EXPECT_EQ(ProjectionDisagreements(index, q, initial, ids, query), 0);
  return CollectProjectionsSorted(index, q, initial, ids);
}

Rows Symbols(const std::vector<std::vector<std::string>>& rows) {
  Rows out;
  for (const auto& row : rows) {
    std::vector<SymbolId> ids;
    for (const std::string& v : row) ids.push_back(InternSymbol(v));
    out.push_back(std::move(ids));
  }
  return out;
}

TEST(ProjectionEnumeratorTest, BooleanAndDuplicatedColumns) {
  HandIndex hand;
  hand.Add("R", {"a", "b"}, 1);
  hand.Add("R", {"a", "c"}, 1);
  hand.Add("S", {"b", "d"}, 1);
  // No projected variable: one empty row iff some embedding exists.
  EXPECT_EQ(Project(hand.index, "R(x | y), S(y | z)", {}), Rows{{}});
  EXPECT_EQ(Project(hand.index, "R(x | y), S(x | z)", {}), Rows{});
  // A variable listed twice fills both columns from one binding.
  EXPECT_EQ(Project(hand.index, "R(x | y), S(y | z)", {"y", "x", "y"}),
            Symbols({{"b", "a", "b"}}));
  // Constants and a seed restrict the rows.
  EXPECT_EQ(Project(hand.index, "R(x | 'c')", {"x"}), Symbols({{"a"}}));
  Valuation seed;
  seed.Bind(InternSymbol("y"), InternSymbol("c"));
  EXPECT_EQ(Project(hand.index, "R(x | y)", {"x", "y"}, seed),
            Symbols({{"a", "c"}}));
}

TEST(ProjectionEnumeratorTest, RepeatedVariableWithinAnAtom) {
  HandIndex hand;
  hand.Add("R", {"a", "a", "b"}, 1);
  hand.Add("R", {"a", "c", "b"}, 1);
  hand.Add("R", {"d", "d", "d"}, 1);
  EXPECT_EQ(Project(hand.index, "R(x | x, y)", {"y"}),
            Symbols({{"b"}, {"d"}}));
  EXPECT_EQ(Project(hand.index, "R(x | y, y)", {"x"}), Symbols({{"d"}}));
}

TEST(ProjectionEnumeratorTest, ArityMismatchMatchesNothing) {
  // Past the projection cut, T(y | u, v) would be decided by its
  // bucket being non-empty; a fact of the wrong arity in that bucket
  // must not count.
  HandIndex hand;
  hand.Add("S", {"s1", "a"}, 1);
  hand.Add("S", {"s2", "c"}, 1);
  hand.Add("T", {"a", "b"}, 1);
  hand.Add("T", {"c", "d", "e"}, 1);
  EXPECT_EQ(Project(hand.index, "S(x | y), T(y | u, v)", {"x"}),
            Symbols({{"s2"}}));
  EXPECT_EQ(Project(hand.index, "S(x | y), T(y | u)", {"x"}),
            Symbols({{"s1"}}));
  // One signature per relation: the atom's arity differs from it.
  Database db;
  ASSERT_TRUE(db.AddFact(Fact::Make("S", {"s1", "a"}, 1)).ok());
  ASSERT_TRUE(db.AddFact(Fact::Make("T", {"a", "b"}, 1)).ok());
  FactIndex index(db);
  EXPECT_EQ(Project(index, "S(x | y), T(y | u, v)", {"x"}), Rows{});
  EXPECT_EQ(Project(index, "S(x | y), T(y | u, v)", {}), Rows{});
  EXPECT_EQ(Project(index, "S(x | y), T(y | u)", {"x"}), Symbols({{"s1"}}));
}

// ------------------------------------------------------- FactIndex units

Database SmallDb() {
  Database db;
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", "x"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"a", "y"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("R", {"b", "x"}, 1)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"x", "u", "p"}, 2)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"x", "u", "q"}, 2)).ok());
  EXPECT_TRUE(db.AddFact(Fact::Make("S", {"y", "v", "p"}, 2)).ok());
  return db;
}

std::multiset<Fact> BucketFacts(const std::vector<const Fact*>& bucket) {
  std::multiset<Fact> out;
  for (const Fact* f : bucket) out.insert(*f);
  return out;
}

TEST(FactIndexTest, PositionAndKeyPrefixBuckets) {
  Database db = SmallDb();
  FactIndex index(db);
  SymbolId r = InternSymbol("R");
  SymbolId s = InternSymbol("S");
  EXPECT_EQ(index.total(), 6u);
  EXPECT_EQ(index.Facts(r).size(), 3u);
  EXPECT_EQ(index.FactsAt(r, 0, InternSymbol("a")).size(), 2u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("x")).size(), 2u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("zz")).size(), 0u);
  EXPECT_EQ(index.FactsAt(InternSymbol("T"), 0, InternSymbol("a")).size(),
            0u);
  // Key-prefix buckets with len == key arity are exactly the blocks.
  EXPECT_EQ(index
                .FactsWithKeyPrefix(
                    s, {InternSymbol("x"), InternSymbol("u")})
                .size(),
            2u);
  EXPECT_EQ(index.FactsWithKeyPrefix(s, {InternSymbol("x")}).size(), 2u);
  EXPECT_EQ(index.FactsWithKeyPrefix(r, {InternSymbol("b")}).size(), 1u);
}

TEST(FactIndexTest, SwapFactKeepsLazyIndexesCoherent) {
  Database db = SmallDb();
  FactIndex index(db);
  SymbolId r = InternSymbol("R");
  const Fact* ax = &db.facts()[0];  // R(a | x)
  const Fact* ay = &db.facts()[1];  // R(a | y)
  // Force the lazy indexes into existence before mutating.
  ASSERT_EQ(index.FactsAt(r, 1, InternSymbol("x")).size(), 2u);
  ASSERT_EQ(index.FactsWithKeyPrefix(r, {InternSymbol("a")}).size(), 2u);

  index.SwapFact(ax, ax);  // Self-swap is a no-op.
  EXPECT_EQ(index.total(), 6u);

  index.SwapFact(ay, ay);
  index.Remove(ay);
  EXPECT_EQ(index.total(), 5u);
  EXPECT_FALSE(index.Contains(*ay));
  EXPECT_EQ(index.Facts(r).size(), 2u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("y")).size(), 0u);
  EXPECT_EQ(index.FactsWithKeyPrefix(r, {InternSymbol("a")}).size(), 1u);

  index.SwapFact(ax, ay);
  EXPECT_EQ(index.total(), 5u);
  EXPECT_TRUE(index.Contains(*ay));
  EXPECT_FALSE(index.Contains(*ax));
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("x")).size(), 1u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("y")).size(), 1u);

  // After the mutations, every bucket must equal the one of an index
  // built from scratch over the same facts.
  FactIndex fresh;
  fresh.Add(ay);
  fresh.Add(&db.facts()[2]);
  for (int i = 3; i < 6; ++i) fresh.Add(&db.facts()[i]);
  for (SymbolId rel : {r, InternSymbol("S")}) {
    EXPECT_EQ(BucketFacts(index.Facts(rel)), BucketFacts(fresh.Facts(rel)));
    for (int pos = 0; pos < 3; ++pos) {
      for (SymbolId v : db.ActiveDomain()) {
        EXPECT_EQ(BucketFacts(index.FactsAt(rel, pos, v)),
                  BucketFacts(fresh.FactsAt(rel, pos, v)))
            << SymbolName(rel) << " pos " << pos << " val "
            << SymbolName(v);
      }
    }
  }
}

TEST(FactIndexTest, MutationBeforeFirstProbeIsSeenByLazyBuild) {
  Database db = SmallDb();
  FactIndex index(db);
  const Fact* ax = &db.facts()[0];
  const Fact* ay = &db.facts()[1];
  // Mutate while no position index exists yet; the later lazy build
  // must reflect the mutation.
  index.SwapFact(ax, ax);
  index.Remove(ay);
  SymbolId r = InternSymbol("R");
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("y")).size(), 0u);
  EXPECT_EQ(index.FactsAt(r, 1, InternSymbol("x")).size(), 2u);
  EXPECT_EQ(index.FactsWithKeyPrefix(r, {InternSymbol("a")}).size(), 1u);
}

TEST(FactIndexTest, RemoveErasesTheBucketsItEmpties) {
  Database db = SmallDb();
  FactIndex index(db);
  SymbolId r = InternSymbol("R");
  SymbolId a = InternSymbol("a");
  SymbolId y = InternSymbol("y");
  const Fact* ax = &db.facts()[0];  // R(a | x)
  const Fact* ay = &db.facts()[1];  // R(a | y)
  ASSERT_EQ(index.FactsAt(r, 1, y).size(), 1u);
  ASSERT_EQ(index.FactsWithKeyPrefix(r, {a}).size(), 2u);
  const FactIndex::PositionBuckets* by_value = index.PositionIndex(r, 1);
  const FactIndex::PrefixBuckets* by_key = index.KeyPrefixIndex(r, 1);
  ASSERT_NE(by_value, nullptr);
  ASSERT_NE(by_key, nullptr);

  // A backtracking walk asks to keep the buckets it will come back to;
  // a repair transition is a removal too and follows the same choice.
  SymbolId z = InternSymbol("z");
  Fact az = Fact::Make("R", {"a", "z"}, 1);
  index.SwapFact(ay, &az, FactIndex::EmptiedBuckets::kKeep);
  EXPECT_EQ(by_value->count(y), 1u);
  EXPECT_TRUE(index.FactsAt(r, 1, y).empty());
  EXPECT_EQ(index.FactsAt(r, 1, z).size(), 1u);
  index.SwapFact(&az, ay);
  EXPECT_EQ(by_value->count(z), 0u);
  EXPECT_EQ(index.FactsAt(r, 1, y).size(), 1u);

  // Emptying a bucket erases it: the index stays the size of its
  // contents.
  index.Remove(ay);
  EXPECT_EQ(by_value->count(y), 0u);
  EXPECT_EQ(by_key->count({a}), 1u);  // R(a | x) is still there
  index.Remove(ax);
  EXPECT_EQ(by_key->count({a}), 0u);
  EXPECT_TRUE(index.FactsWithKeyPrefix(r, {a}).empty());
  index.Add(ay);
  EXPECT_EQ(index.FactsAt(r, 1, y).size(), 1u);
  EXPECT_EQ(index.FactsWithKeyPrefix(r, {a}).size(), 1u);
}

TEST(FactIndexTest, RemoveOfStrangerIsNoOp) {
  Database db = SmallDb();
  FactIndex index(db);
  Fact stranger = Fact::Make("R", {"zz", "zz"}, 1);
  index.Remove(&stranger);
  EXPECT_EQ(index.total(), 6u);
}

TEST(RepairEnumeratorTest, IndexedEnumerationMatchesPlain) {
  Query q = MustParseQuery("R(x | y), S(y, z | w)");
  BlockDbGenOptions bopts;
  bopts.seed = 99;
  bopts.blocks_per_relation = 3;
  bopts.max_block_size = 3;
  bopts.domain_size = 3;
  Database db = RandomBlockDatabase(q, bopts);
  RepairEnumerator repairs(db);

  std::vector<std::multiset<Fact>> plain;
  repairs.ForEach([&](const Repair& repair) {
    std::multiset<Fact> facts;
    for (const Fact* f : repair) facts.insert(*f);
    plain.push_back(std::move(facts));
    return true;
  });

  size_t step = 0;
  repairs.ForEachIndexed([&](const FactIndex& index, const Repair& repair) {
    EXPECT_LT(step, plain.size());
    // The incremental index holds exactly the current repair's facts.
    std::multiset<Fact> from_index;
    for (const Database::Block& b : db.blocks()) {
      std::vector<SymbolId> key = b.key;
      for (const Fact* f : index.FactsWithKeyPrefix(b.relation, key)) {
        if (f->KeyValues() == key) from_index.insert(*f);
      }
    }
    std::multiset<Fact> from_repair;
    for (const Fact* f : repair) from_repair.insert(*f);
    EXPECT_EQ(from_index, from_repair);
    EXPECT_EQ(from_repair, plain[step]);
    EXPECT_EQ(index.total(), repair.size());
    // Spot-check satisfaction parity against a fresh index.
    EXPECT_EQ(Satisfies(index, q), Satisfies(repair, q));
    ++step;
    return true;
  });
  EXPECT_EQ(step, plain.size());
}

}  // namespace
}  // namespace cqa
