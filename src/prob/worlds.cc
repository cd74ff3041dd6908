#include "prob/worlds.h"

#include <functional>
#include <vector>

#include "cq/matcher.h"

namespace cqa {

Rational WorldsOracle::Probability(const BidDatabase& bid, const Query& q) {
  const Database& db = bid.database();
  const auto& blocks = db.blocks();
  size_t n = blocks.size();
  Rational total;
  // One shared index over the current partial world, mutated as the
  // recursion walks the block tree — no per-leaf index rebuild.
  FactIndex index;

  std::function<void(size_t, Rational)> Recurse = [&](size_t i,
                                                      Rational weight) {
    if (weight.is_zero()) return;
    if (i == n) {
      if (Satisfies(index, q)) total += weight;
      return;
    }
    const Database::Block& block = blocks[i];
    // Option: no fact of this block (possible worlds need not be
    // maximal).
    Rational none = Rational::One() - bid.BlockMass(block);
    Recurse(i + 1, weight * none);
    // Option: exactly one fact.
    for (int fid : block.fact_ids) {
      index.Add(&db.facts()[fid]);
      Recurse(i + 1, weight * bid.Probability(db.facts()[fid]));
      // Every visit of this block comes back to the same facts.
      index.Remove(&db.facts()[fid], FactIndex::EmptiedBuckets::kKeep);
    }
  };
  Recurse(0, Rational::One());
  return total;
}

}  // namespace cqa
