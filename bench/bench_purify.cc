// Lemma 1 purification at the scale of the end-to-end frontier_decide
// workload: the Theorem 3 (Fig. 4), C(3) and AC(3) instance shapes it
// serves, built with the same generator options and seeds (seed 1,
// instances 0..2). BM_Purify times Purify alone; BM_PurifyDecide times
// the whole decision of the matching solver on the same instance, which
// purifies first — so the ratio of the two is the share purification
// takes of a frontier Boolean solve.
//
// Families 3 and 4 survive purification: AC(3) without noise edges,
// and the C(3) database of its R facts (every edge on a planted
// triangle). There the view path and the cycle algorithms of Theorem 4
// and Corollary 1 after it are timed too; the frontier shapes purify to
// 4 facts or fewer.
//
// Counters: "facts" (instance size) and "survivors" (facts left after
// purification — when it is tiny, the cycle algorithm after it has
// almost nothing to do).

#include "bench_main.h"

#include "cqa.h"

#include <memory>
#include <unordered_set>
#include <vector>

namespace {

using namespace cqa;

enum Family : int {
  kThm3 = 0,
  kCk3 = 1,
  kAck3 = 2,
  kAck3Planted = 3,
  kCk3Planted = 4
};

struct Instance {
  Database db;
  Query q;
  std::unique_ptr<Solver> solver;
};

/// Instance `index` of `family`, as the frontier_decide tenants of seed
/// 1 build it.
Instance MakeInstance(int family, int index) {
  uint64_t sub = (3 + static_cast<uint64_t>(index)) * 5;
  switch (family) {
    case kThm3: {
      BlockDbGenOptions o;
      o.blocks_per_relation = 400;
      o.max_block_size = 2;
      o.domain_size = 12;
      o.seed = sub + 2;
      Query q = corpus::Fig4Query();
      Database db = RandomBlockDatabase(q, o);
      return {std::move(db), q, std::make_unique<TerminalCycleSolver>(q)};
    }
    case kCk3: {
      CkInstanceOptions o;
      o.k = 3;
      o.layer_size = 500;
      o.edges_per_vertex = 2;
      o.seed = sub + 3;
      Query q = corpus::Ck(3);
      return {RandomCkDatabase(o), q, std::make_unique<CkSolver>(q)};
    }
    default: {
      AckInstanceOptions o;
      o.k = 3;
      o.layer_size = 500;
      o.s_tuples = 1000;
      o.noise_edges = family == kAck3 ? 1000 : 0;
      o.seed = sub + 4;
      Query q = corpus::Ack(3);
      Database db = RandomAckDatabase(o);
      if (family != kCk3Planted) {
        return {std::move(db), q, std::make_unique<AckSolver>(q)};
      }
      Query ck = corpus::Ck(3);
      std::unordered_set<SymbolId> edges;
      for (const Atom& atom : ck.atoms()) edges.insert(atom.relation());
      return {db.Restrict(edges), ck, std::make_unique<CkSolver>(ck)};
    }
  }
}

/// Instances 0..2 of each family; the first only in smoke mode.
std::vector<int64_t> Instances() {
  if (cqa_bench::SmokeMode()) return {0};
  return {0, 1, 2};
}

void BM_Purify(benchmark::State& state) {
  Instance in = MakeInstance(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)));
  size_t survivors = 0;
  for (auto _ : state) {
    Database purified = Purify(in.db, in.q);
    survivors = purified.size();
    benchmark::DoNotOptimize(survivors);
  }
  state.counters["facts"] = static_cast<double>(in.db.size());
  state.counters["survivors"] = static_cast<double>(survivors);
}
BENCHMARK(BM_Purify)
    ->ArgsProduct({{kThm3, kCk3, kAck3, kAck3Planted, kCk3Planted},
                   Instances()})
    ->Unit(benchmark::kMicrosecond);

void BM_PurifyDecide(benchmark::State& state) {
  Instance in = MakeInstance(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(in.solver->IsCertain(in.db));
  }
  state.counters["facts"] = static_cast<double>(in.db.size());
}
BENCHMARK(BM_PurifyDecide)
    ->ArgsProduct({{kThm3, kCk3, kAck3, kAck3Planted, kCk3Planted},
                   Instances()})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
