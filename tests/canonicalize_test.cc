#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cq/canonicalize.h"
#include "cq/corpus.h"
#include "cq/parser.h"
#include "gen/query_gen.h"
#include "util/rng.h"

namespace cqa {
namespace {

/// An α-variant of q: every variable bijectively renamed to a fresh
/// name, atoms shuffled. Fresh names never collide with existing ones,
/// so sequential RenameVar is capture-free.
Query AlphaVariant(const Query& q, uint64_t seed) {
  Rng rng(seed);
  VarSet vars = q.Vars();
  std::vector<SymbolId> order(vars.begin(), vars.end());
  std::vector<int> slot(order.size());
  for (size_t i = 0; i < slot.size(); ++i) slot[i] = static_cast<int>(i);
  rng.Shuffle(&slot);
  Query out = q;
  for (size_t i = 0; i < order.size(); ++i) {
    out = out.RenameVar(
        order[i], InternSymbol("zzalpha_" + std::to_string(seed) + "_" +
                               std::to_string(slot[i])));
  }
  std::vector<Atom> atoms(out.atoms().begin(), out.atoms().end());
  rng.Shuffle(&atoms);
  return Query(std::move(atoms));
}

/// Property: α-equivalent queries canonicalize identically — same key,
/// same hash, same canonical query object.
class CanonicalizeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CanonicalizeProperty, AlphaVariantsShareTheKey) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed;
  qopts.num_atoms = 2 + static_cast<int>(seed % 4);
  qopts.max_arity = 3 + static_cast<int>(seed % 2);
  qopts.constant_percent = static_cast<int>(seed % 25);
  Query q = RandomAcyclicQuery(qopts);
  CanonicalQuery base = *Canonicalize(q);
  EXPECT_EQ(base.key, Canonicalize(base.query)->key)
      << "canonicalization must be idempotent";
  for (uint64_t v = 1; v <= 3; ++v) {
    Query variant = AlphaVariant(q, seed * 101 + v);
    CanonicalQuery canon = *Canonicalize(variant);
    EXPECT_EQ(base.key, canon.key)
        << q.ToString() << "  vs  " << variant.ToString();
    EXPECT_EQ(base.hash, canon.hash);
    EXPECT_EQ(base.query, canon.query);
  }
}

TEST_P(CanonicalizeProperty, StructuralMutationsChangeTheKey) {
  uint64_t seed = GetParam();
  QueryGenOptions qopts;
  qopts.seed = seed;
  qopts.num_atoms = 2 + static_cast<int>(seed % 3);
  Query q = RandomAcyclicQuery(qopts);
  std::string base = Canonicalize(q)->key;

  // Dropping an atom is never α-equivalent (atom count differs).
  for (int i = 0; i < q.size(); ++i) {
    EXPECT_NE(base, Canonicalize(q.WithoutAtom(i))->key) << q.ToString();
  }
  // Grounding a variable to a constant changes the skeleton.
  VarSet vars = q.Vars();
  if (!vars.empty()) {
    Query ground = q.Substitute(*vars.begin(), InternSymbol("zzconst"));
    EXPECT_NE(base, Canonicalize(ground)->key) << q.ToString();
  }
  // Merging two distinct variables changes the occurrence structure.
  if (vars.size() >= 2) {
    auto it = vars.begin();
    SymbolId a = *it++;
    SymbolId b = *it;
    Query merged = q.RenameVar(a, b);
    EXPECT_NE(base, Canonicalize(merged)->key) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalizeProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{200}));

TEST(CanonicalizeTest, AtomOrderAndNamesAreIrrelevant) {
  Query a = MustParseQuery("R(x | y), S(y | z)");
  Query b = MustParseQuery("S(q | w), R(p | q)");
  EXPECT_EQ(Canonicalize(a)->key, Canonicalize(b)->key);
  EXPECT_EQ(Canonicalize(a)->hash, Canonicalize(b)->hash);
}

TEST(CanonicalizeTest, ConstantsAreIdentities) {
  Query a = MustParseQuery("R(x | 'rome')");
  Query b = MustParseQuery("R(x | 'paris')");
  EXPECT_NE(Canonicalize(a)->key, Canonicalize(b)->key);
}

TEST(CanonicalizeTest, KeyArityMatters) {
  Query a = MustParseQuery("R(x | y)");
  Query b(std::vector<Atom>{Atom::Make("R", {"x", "y"}, 2)});  // all-key
  EXPECT_NE(Canonicalize(a)->key, Canonicalize(b)->key);
}

TEST(CanonicalizeTest, SelfJoinTiesAreOrderIndependent) {
  // Identical structural signatures force the tie-break permutation
  // search; both presentations must land on the same minimal form.
  Query a = MustParseQuery("R(x | y), R(y | x)");
  Query b = MustParseQuery("R(b | a), R(a | b)");
  EXPECT_EQ(Canonicalize(a)->key, Canonicalize(b)->key);
  Query c = MustParseQuery("R(x | y), R(y | z)");
  EXPECT_NE(Canonicalize(a)->key, Canonicalize(c)->key);
}

TEST(CanonicalizeTest, ParamsArePositional) {
  Query q = MustParseQuery("C(x, y | c), R(x | r)");
  SymbolId c = InternSymbol("c");
  SymbolId r = InternSymbol("r");
  CanonicalQuery cr = *Canonicalize(q, {c, r});
  CanonicalQuery rc = *Canonicalize(q, {r, c});
  // Different positions -> different plans.
  EXPECT_NE(cr.key, rc.key);
  // α-renaming the query (params included) with matching positions
  // shares the key.
  Query q2 = MustParseQuery("C(u, v | w), R(u | s)");
  CanonicalQuery other =
      *Canonicalize(q2, {InternSymbol("w"), InternSymbol("s")});
  EXPECT_EQ(cr.key, other.key);
  // Boolean and parameterized forms never collide.
  EXPECT_NE(cr.key, Canonicalize(q)->key);
  ASSERT_EQ(cr.params.size(), 2u);
  EXPECT_EQ(SymbolName(cr.params[0]), "#p0");
  EXPECT_EQ(SymbolName(cr.params[1]), "#p1");
}

TEST(CanonicalizeTest, DelimiterCharactersInSymbolsCannotCollide) {
  // Symbol names are length-prefixed in the key, so constants that
  // contain the rendering's own delimiters can't splice two different
  // queries onto one key (and hence one shared plan).
  Query a(std::vector<Atom>{
      Atom(InternSymbol("R"),
           {Term::Const(InternSymbol("a")), Term::Const(InternSymbol("b"))},
           2)});
  Query b(std::vector<Atom>{
      Atom(InternSymbol("R"), {Term::Const(InternSymbol("a',1:b"))}, 1)});
  EXPECT_NE(Canonicalize(a)->key, Canonicalize(b)->key);
  Query c(std::vector<Atom>{
      Atom(InternSymbol("R(x|y);S"), {Term::Var(InternSymbol("x"))}, 1)});
  Query d = MustParseQuery("R(x | y), S(x | y)");
  EXPECT_NE(Canonicalize(c)->key, Canonicalize(d)->key);
}

TEST(CanonicalizeTest, NonOccurringParamStillSeparatesFromBoolean) {
  // A parameter that never occurs in q leaves the atoms unchanged; the
  // param count in the key keeps the parameterized plan (different
  // evaluation protocol) from colliding with the Boolean plan.
  Query q = MustParseQuery("R(x | y)");
  CanonicalQuery boolean = *Canonicalize(q);
  CanonicalQuery with_ghost = *Canonicalize(q, {InternSymbol("ghost")});
  EXPECT_NE(boolean.key, with_ghost.key);
  EXPECT_EQ(with_ghost.params.size(), 1u);
}

TEST(CanonicalizeTest, CorpusQueriesHaveDistinctKeys) {
  std::vector<std::string> keys;
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    keys.push_back(Canonicalize(q)->key);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

}  // namespace
}  // namespace cqa
