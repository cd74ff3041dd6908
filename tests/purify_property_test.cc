#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cq/corpus.h"
#include "cq/matcher.h"
#include "db/purify.h"
#include "db/repairs.h"
#include "gen/db_gen.h"
#include "gen/instance_gen.h"
#include "gen/query_gen.h"
#include "solvers/oracle_solver.h"

namespace cqa {
namespace {

/// The fixpoint reference: Lemma 1 block at a time, as in the paper's
/// proof. A fact is relevant iff some valuation θ has fact ∈ θ(q) ⊆ the
/// surviving facts; the block of an irrelevant fact is dropped from the
/// index at once, and sweeps repeat until a sweep drops nothing.
bool FactIsRelevant(const FactIndex& index, const Query& q,
                    const std::vector<Query>& rests, const Fact& fact) {
  for (int i = 0; i < q.size(); ++i) {
    const Atom& atom = q.atom(i);
    if (atom.relation() != fact.relation() ||
        atom.arity() != fact.arity()) {
      continue;
    }
    Valuation seed;
    bool ok = true;
    for (int p = 0; p < atom.arity() && ok; ++p) {
      const Term& t = atom.terms()[p];
      if (t.is_const()) {
        ok = t.id() == fact.values()[p];
      } else {
        ok = seed.Bind(t.id(), fact.values()[p]);
      }
    }
    if (ok && SatisfiesWith(index, rests[i], seed)) return true;
  }
  return false;
}

std::vector<char> ReferenceKeptBlocks(const Database& db, const Query& q) {
  std::vector<Query> rests;
  for (int i = 0; i < q.size(); ++i) rests.push_back(q.WithoutAtom(i));
  FactIndex index(db);
  std::vector<char> kept(db.blocks().size(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = 0; b < db.blocks().size(); ++b) {
      if (!kept[b]) continue;
      const Database::Block& block = db.blocks()[b];
      for (int fid : block.fact_ids) {
        if (FactIsRelevant(index, q, rests, db.facts()[fid])) continue;
        kept[b] = 0;
        changed = true;
        for (int gone : block.fact_ids) index.Remove(&db.facts()[gone]);
        break;
      }
    }
  }
  return kept;
}

struct Instance {
  std::string name;
  Query q;
  Database db;
};

/// The frontier_decide tenants of seed 1 that purify: Theorem 3
/// (Fig. 4), C(3) and AC(3), instances 0..2.
std::vector<Instance> FrontierInstances() {
  std::vector<Instance> out;
  for (uint64_t k = 0; k < 3; ++k) {
    uint64_t sub = (3 + k) * 5;
    std::string suffix = "-" + std::to_string(k);
    BlockDbGenOptions thm3;
    thm3.blocks_per_relation = 400;
    thm3.max_block_size = 2;
    thm3.domain_size = 12;
    thm3.seed = sub + 2;
    Query fig4 = corpus::Fig4Query();
    out.push_back({"thm3" + suffix, fig4, RandomBlockDatabase(fig4, thm3)});
    CkInstanceOptions ck;
    ck.k = 3;
    ck.layer_size = 500;
    ck.edges_per_vertex = 2;
    ck.seed = sub + 3;
    out.push_back({"ck" + suffix, corpus::Ck(3), RandomCkDatabase(ck)});
    AckInstanceOptions ack;
    ack.k = 3;
    ack.layer_size = 500;
    ack.s_tuples = 1000;
    ack.noise_edges = 1000;
    ack.seed = sub + 4;
    out.push_back({"ack" + suffix, corpus::Ack(3), RandomAckDatabase(ack)});
  }
  return out;
}

/// Random acyclic queries over 6-8 blocks per relation of up to 3 facts,
/// plus every named corpus query (cyclic C(k) included), per seed.
std::vector<Instance> RandomInstances(uint64_t seed) {
  std::vector<Instance> out;
  QueryGenOptions qopts;
  qopts.seed = seed;
  qopts.num_atoms = 2 + static_cast<int>(seed % 4);
  BlockDbGenOptions options;
  options.seed = seed * 7 + 1;
  options.blocks_per_relation = 6 + static_cast<int>(seed % 3);
  options.max_block_size = 3;
  options.domain_size = 3 + static_cast<int>(seed % 3);
  Query q = RandomAcyclicQuery(qopts);
  out.push_back({"random", q, RandomBlockDatabase(q, options)});
  if (seed % 4 == 0) {
    for (const auto& [name, cq] : corpus::AllNamedQueries()) {
      out.push_back({name, cq, RandomBlockDatabase(cq, options)});
    }
  }
  return out;
}

TEST(PurifyDifferential, SurvivingBlocksMatchTheBlockAtATimeFixpoint) {
  std::vector<Instance> instances = FrontierInstances();
  for (uint64_t seed = 1; seed <= 700; ++seed) {
    for (Instance& in : RandomInstances(seed)) {
      in.name += " seed " + std::to_string(seed);
      instances.push_back(std::move(in));
    }
  }
  int pairs = 0, disagreements = 0, partial = 0;
  for (const Instance& in : instances) {
    ++pairs;
    std::vector<char> want = ReferenceKeptBlocks(in.db, in.q);
    PurifiedView view = PurifyView(in.db, in.q);
    int kept = 0;
    for (char k : want) kept += k;
    if (kept > 0 && kept < static_cast<int>(want.size())) ++partial;
    if (view.kept == want) continue;
    ++disagreements;
    ADD_FAILURE() << in.name << ": " << in.q.ToString() << "\n"
                  << in.db.ToString();
  }
  EXPECT_GE(pairs, 1000);
  EXPECT_EQ(disagreements, 0);
  // The comparison is not vacuous: many pairs keep some blocks and
  // remove others.
  EXPECT_GE(partial, 100) << "of " << pairs;
}

/// Lemma 1's lift: for every repair r of the purified database,
/// r ∪ witnesses is a repair of db and satisfies q exactly when r does.
TEST(PurifyDifferential, WitnessesLiftEveryRepair) {
  int checked = 0, partial = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    for (const Instance& in : RandomInstances(seed)) {
      std::vector<Fact> witnesses;
      Database pure = Purify(in.db, in.q, &witnesses);
      if (witnesses.empty() || pure.RepairCount() > BigInt(512)) continue;
      ASSERT_EQ(pure.blocks().size() + witnesses.size(),
                in.db.blocks().size());
      ++checked;
      if (!pure.empty()) ++partial;
      RepairEnumerator(pure).ForEach([&](const Repair& r) {
        Repair lifted = r;
        for (const Fact& w : witnesses) lifted.push_back(&w);
        std::vector<int> picked(in.db.blocks().size(), 0);
        for (const Fact* f : lifted) {
          int b = in.db.BlockIdOf(*f);
          EXPECT_GE(b, 0) << f->ToString();
          if (b >= 0) ++picked[b];
        }
        EXPECT_EQ(picked, std::vector<int>(in.db.blocks().size(), 1))
            << in.name << " seed " << seed;
        EXPECT_EQ(Satisfies(lifted, in.q), Satisfies(r, in.q))
            << in.name << " seed " << seed << ": " << in.q.ToString();
        return !::testing::Test::HasFailure();
      });
    }
  }
  EXPECT_GE(checked, 1000);
  EXPECT_GE(partial, 100);  // some blocks survive as well
}

/// Lemma 1 as a property: purification preserves membership in
/// CERTAINTY(q), is idempotent, and yields a purified database.
class PurifyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PurifyProperty, PreservesCertaintyOnRandomQueries) {
  QueryGenOptions qopts;
  qopts.seed = GetParam();
  qopts.num_atoms = 2 + static_cast<int>(GetParam() % 3);
  Query q = RandomAcyclicQuery(qopts);
  BlockDbGenOptions options;
  options.seed = GetParam() * 7 + 1;
  options.blocks_per_relation = 2;
  options.max_block_size = 2;
  options.domain_size = 3;
  Database db = RandomBlockDatabase(q, options);
  if (db.RepairCount() > BigInt(4096)) return;
  Database pure = Purify(db, q);
  EXPECT_TRUE(IsPurified(pure, q)) << q.ToString();
  EXPECT_EQ(*OracleSolver(q).IsCertain(db),
            *OracleSolver(q).IsCertain(pure))
      << q.ToString() << "\n"
      << db.ToString();
  // Idempotence.
  EXPECT_EQ(Purify(pure, q).ToString(), pure.ToString());
}

TEST_P(PurifyProperty, PreservesCertaintyOnCorpus) {
  for (const auto& [name, q] : corpus::AllNamedQueries()) {
    BlockDbGenOptions options;
    options.seed = GetParam() * 13 + 3;
    options.blocks_per_relation = 2;
    options.max_block_size = 2;
    options.domain_size = 3;
    Database db = RandomBlockDatabase(q, options);
    if (db.RepairCount() > BigInt(4096)) continue;
    Database pure = Purify(db, q);
    EXPECT_EQ(*OracleSolver(q).IsCertain(db),
              *OracleSolver(q).IsCertain(pure))
        << name << "\n"
        << db.ToString();
  }
}

TEST_P(PurifyProperty, WitnessCountMatchesRemovedBlocks) {
  QueryGenOptions qopts;
  qopts.seed = GetParam() + 500;
  qopts.num_atoms = 2;
  Query q = RandomAcyclicQuery(qopts);
  BlockDbGenOptions options;
  options.seed = GetParam() * 3 + 11;
  Database db = RandomBlockDatabase(q, options);
  std::vector<Fact> witnesses;
  Database pure = Purify(db, q, &witnesses);
  EXPECT_EQ(pure.blocks().size() + witnesses.size(), db.blocks().size());
  for (const Fact& w : witnesses) {
    EXPECT_TRUE(db.Contains(w));
    EXPECT_FALSE(pure.Contains(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PurifyProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{60}));

}  // namespace
}  // namespace cqa
