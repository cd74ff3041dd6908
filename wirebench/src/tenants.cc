#include "tenants.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "cq/corpus.h"
#include "cq/parser.h"
#include "gen/db_gen.h"
#include "gen/instance_gen.h"
#include "util/rng.h"

namespace wirebench {

using cqa::Database;
using cqa::Fact;
using cqa::Query;
using cqa::SymbolId;

namespace {

std::string Name(const char* stem, uint64_t i) {
  return stem + std::to_string(i);
}

/// Adds `blocks` blocks `rel(stem_i | value)` whose value is drawn from
/// `value_stem` 0..value_range-1; every `conflict_every`-th block gets a
/// second fact with another value.
void AddPathRelation(Database* db, cqa::Rng* rng, const char* rel,
                     const char* stem, uint64_t blocks,
                     const char* value_stem, uint64_t value_range,
                     uint64_t conflict_every) {
  for (uint64_t i = 0; i < blocks; ++i) {
    std::string key = Name(stem, i);
    uint64_t first = rng->Below(value_range);
    (void)db->AddFact(Fact::Make(rel, {key, Name(value_stem, first)}, 1));
    if (i % conflict_every == 0) {
      uint64_t second = (first + 1 + rng->Below(value_range - 1)) % value_range;
      (void)db->AddFact(Fact::Make(rel, {key, Name(value_stem, second)}, 1));
    }
  }
}

}  // namespace

PointMixData MakePointMix(uint64_t seed) {
  cqa::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  PointMixData data;
  // 150 and 100 value ranges leave some R and S values dangling, so a
  // share of the Boolean verdicts is "not certain".
  AddPathRelation(&data.db, &rng, "R", "r", 160, "s", 150, 4);
  AddPathRelation(&data.db, &rng, "S", "s", 120, "t", 100, 5);
  AddPathRelation(&data.db, &rng, "T", "t", 80, "w", 20, 3);

  for (int i = 0; i < 8; ++i) {
    std::string r = Name("r", rng.Below(160));
    data.prepared.push_back(cqa::MustParseQuery(
        "R('" + r + "' | y), S(y | z), T(z | w)"));
  }
  for (int i = 0; i < 8; ++i) {
    std::string s = Name("s", rng.Below(120));
    std::vector<Query> variants;
    for (int v = 0; v < 16; ++v) {
      std::string z = Name("z", v);
      std::string w = Name("w", v);
      variants.push_back(cqa::MustParseQuery(
          "S('" + s + "' | " + z + "), T(" + z + " | " + w + ")"));
    }
    data.adhoc.push_back(std::move(variants));
  }
  data.stream_query = cqa::MustParseQuery("S(y | z), T(z | w)");
  data.stream_free_var = "y";
  for (uint64_t j = 0; j < 120; ++j) data.r_values.push_back(Name("s", j));
  for (uint64_t i = 0; i < 1024; ++i) {
    Fact f = Fact::Make(
        "R", {Name("i", i), data.r_values[rng.Below(data.r_values.size())]},
        1);
    (void)data.db.AddFact(f);
    data.ingested.push_back(std::move(f));
  }
  return data;
}

AnswerStreamData MakeAnswerStream(uint64_t seed) {
  constexpr uint64_t kRBlocks = 12000;
  constexpr uint64_t kSBlocks = 12000;
  cqa::Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
  AnswerStreamData data;
  // y values range 5% past the S keys: those R blocks are never certain.
  AddPathRelation(&data.db, &rng, "R", "x", kRBlocks, "y",
                  kSBlocks + kSBlocks / 20, 7);
  AddPathRelation(&data.db, &rng, "S", "y", kSBlocks, "z", 100, 7);
  data.query = cqa::MustParseQuery("R(x | y), S(y | z)");
  data.free_var = "x";

  // Flip S blocks that some R fact points at.
  SymbolId r = cqa::InternSymbol("R");
  SymbolId s = cqa::InternSymbol("S");
  const std::vector<int>& r_facts = data.db.FactsOf(r);
  std::set<SymbolId> chosen;
  while (chosen.size() < 64) {
    const Fact* f = data.db.FactPtrAt(r_facts[rng.Below(r_facts.size())]);
    SymbolId y = f->values()[1];
    const Database::Block* block = data.db.FindBlock(s, {y});
    if (block == nullptr || !chosen.insert(y).second) continue;
    std::vector<Fact> facts;
    for (int id : block->fact_ids) facts.push_back(*data.db.FactPtrAt(id));
    data.flip_blocks.push_back(std::move(facts));
  }
  return data;
}

std::vector<FrontierTenant> MakeFrontier(uint64_t seed) {
  std::vector<FrontierTenant> out;
  for (uint64_t k = 0; k < kFrontierInstances; ++k) {
    uint64_t sub = (seed * kFrontierInstances + k) * 5;
    std::string suffix = "-" + std::to_string(k);
    {
      cqa::BlockDbGenOptions o;
      o.blocks_per_relation = 1200;
      o.max_block_size = 2;
      o.domain_size = 1200;
      o.seed = sub + 1;
      Query q = cqa::corpus::PathQuery(3);
      out.push_back({"fo" + suffix, "solvers.fo_decide",
                     cqa::RandomBlockDatabase(q, o), q});
    }
    {
      cqa::BlockDbGenOptions o;
      o.blocks_per_relation = 400;
      o.max_block_size = 2;
      o.domain_size = 12;
      o.seed = sub + 2;
      Query q = cqa::corpus::Fig4Query();
      out.push_back({"thm3" + suffix, "solvers.terminal_cycle_decide",
                     cqa::RandomBlockDatabase(q, o), q});
    }
    {
      cqa::CkInstanceOptions o;
      o.k = 3;
      o.layer_size = 500;
      o.edges_per_vertex = 2;
      o.seed = sub + 3;
      out.push_back({"ck" + suffix, "solvers.ck_decide",
                     cqa::RandomCkDatabase(o), cqa::corpus::Ck(3)});
    }
    {
      cqa::AckInstanceOptions o;
      o.k = 3;
      o.layer_size = 500;
      o.s_tuples = 1000;
      o.noise_edges = 1000;
      o.seed = sub + 4;
      out.push_back({"ack" + suffix, "solvers.ack_decide",
                     cqa::RandomAckDatabase(o), cqa::corpus::Ack(3)});
    }
    {
      cqa::Q0InstanceOptions o;
      o.join_pairs = 1000;
      o.violations = 1000;
      o.domain_size = 500;
      o.seed = sub + 5;
      out.push_back({"conp" + suffix, "solvers.sat_decide",
                     cqa::RandomQ0Database(o), cqa::corpus::Q0()});
    }
  }
  return out;
}

std::vector<SymbolId> PathCertainAnswers(const Database& db, SymbolId first,
                                         SymbolId second,
                                         const std::vector<SymbolId>& removed) {
  std::unordered_set<SymbolId> gone(removed.begin(), removed.end());
  std::set<SymbolId> candidates;
  std::unordered_set<SymbolId> broken;
  for (int id : db.FactsOf(first)) {
    const Fact* f = db.FactPtrAt(id);
    SymbolId x = f->values()[0];
    SymbolId y = f->values()[1];
    candidates.insert(x);
    if (gone.count(y) > 0 || db.FindBlock(second, {y}) == nullptr) {
      broken.insert(x);
    }
  }
  std::vector<SymbolId> out;
  for (SymbolId x : candidates) {
    if (broken.count(x) == 0) out.push_back(x);
  }
  return out;
}

}  // namespace wirebench
