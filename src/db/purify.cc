#include "db/purify.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>

#include "cq/join_tree.h"
#include "cq/matcher.h"

namespace cqa {

namespace {

template <typename Drop>
void EraseIf(std::vector<int>* ids, Drop drop) {
  ids->erase(std::remove_if(ids->begin(), ids->end(), drop), ids->end());
}

/// An open-addressing set of fixed-width value tuples: the join values
/// one side of a semijoin offers the other. A slot holds 1 + the
/// tuple's index in `keys_` (0 = empty); the load stays at most 1/2.
class TupleSet {
 public:
  TupleSet(size_t width, size_t expected) : width_(width) {
    size_t capacity = 8;
    while (capacity < 2 * expected) capacity <<= 1;
    slots_.assign(capacity, 0);
  }

  /// Adds the tuple of `fact`'s values at `pos`.
  void Insert(const Fact& fact, const std::vector<int>& pos) {
    uint32_t& slot = slots_[Probe(fact, pos)];
    if (slot != 0) return;
    slot = ++count_;
    for (int p : pos) keys_.push_back(fact.values()[p]);
  }

  bool Contains(const Fact& fact, const std::vector<int>& pos) const {
    return slots_[Probe(fact, pos)] != 0;
  }

 private:
  /// The slot holding the tuple, or the empty slot where it would go.
  size_t Probe(const Fact& fact, const std::vector<int>& pos) const {
    const std::vector<SymbolId>& v = fact.values();
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (int p : pos) h = (h ^ v[p]) * 0xff51afd7ed558ccdull;
    size_t mask = slots_.size() - 1;
    for (size_t i = (h ^ (h >> 32)) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) return i;
      const SymbolId* key = keys_.data() + (slots_[i] - 1) * width_;
      size_t j = 0;
      while (j < width_ && key[j] == v[pos[j]]) ++j;
      if (j == width_) return i;
    }
  }

  size_t width_;
  uint32_t count_ = 0;
  std::vector<uint32_t> slots_;
  std::vector<SymbolId> keys_;
};

/// *target := *target ⋉ source, on target's values at `target_pos` and
/// source's at `source_pos`.
void Semijoin(const Database& db, std::vector<int>* target,
              const std::vector<int>& target_pos,
              const std::vector<int>& source,
              const std::vector<int>& source_pos) {
  TupleSet offered(source_pos.size(), source.size());
  for (int fid : source) offered.Insert(db.facts()[fid], source_pos);
  EraseIf(target, [&](int fid) {
    return !offered.Contains(db.facts()[fid], target_pos);
  });
}

std::vector<int> PositionsOf(const Atom& atom, const VarSet& vars) {
  std::vector<int> pos;
  for (SymbolId var : vars) {
    const std::vector<Term>& terms = atom.terms();
    pos.push_back(std::find(terms.begin(), terms.end(), Term::Var(var)) -
                  terms.begin());
  }
  return pos;
}

/// Acyclic q: the full reducer. GYO removes ears leaves-first, so the
/// tree's edges (ear, witness) in removal order run bottom-up.
void FullReduce(const Database& db, const Query& q, const JoinTree& tree,
                std::vector<std::vector<int>>* cands) {
  auto reduce = [&](int target, int source) {
    const VarSet& label = tree.Label(target, source);
    Semijoin(db, &(*cands)[target], PositionsOf(q.atom(target), label),
             (*cands)[source], PositionsOf(q.atom(source), label));
  };
  for (auto [ear, witness] : tree.edges()) reduce(witness, ear);
  const std::vector<std::pair<int, int>>& edges = tree.edges();
  for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
    reduce(e->first, e->second);
  }
}

/// Cyclic q: keeps the candidates of atom i whose values on vars(atom i)
/// are the projection of some embedding into the candidates.
void KeepEmbedded(const Database& db, const Query& q,
                  std::vector<std::vector<int>>* cands) {
  FactIndex index;
  std::vector<char> added(db.size(), 0);
  for (const std::vector<int>& c : *cands) {
    for (int fid : c) {
      if (std::exchange(added[fid], 1) == 0) index.Add(db.FactPtrAt(fid));
    }
  }
  for (int i = 0; i < q.size(); ++i) {
    VarSet vars = q.atom(i).Vars();
    std::vector<int> pos = PositionsOf(q.atom(i), vars);
    std::vector<std::vector<SymbolId>> rows = CollectProjectionsSorted(
        index, q, Valuation(), std::vector<SymbolId>(vars.begin(), vars.end()));
    std::vector<SymbolId> row(pos.size());
    EraseIf(&(*cands)[i], [&](int fid) {
      for (size_t j = 0; j < pos.size(); ++j) {
        row[j] = db.facts()[fid].values()[pos[j]];
      }
      return !std::binary_search(rows.begin(), rows.end(), row);
    });
  }
}

}  // namespace

PurifiedView PurifyView(const Database& db, const Query& q) {
  const std::vector<Database::Block>& blocks = db.blocks();
  PurifiedView view;
  view.kept.assign(blocks.size(), 1);
  std::vector<std::vector<int>> cands(q.size());
  for (int i = 0; i < q.size(); ++i) {
    for (int fid : db.FactsOf(q.atom(i).relation())) {
      if (q.atom(i).Matches(db.facts()[fid])) cands[i].push_back(fid);
    }
  }
  Result<JoinTree> tree = BuildJoinTree(q);
  std::vector<char> relevant(db.size());
  for (bool doomed = true; doomed;) {
    if (tree.ok()) {
      FullReduce(db, q, *tree, &cands);
    } else {
      KeepEmbedded(db, q, &cands);
    }
    std::fill(relevant.begin(), relevant.end(), 0);
    for (const std::vector<int>& c : cands) {
      for (int fid : c) relevant[fid] = 1;
    }
    doomed = false;
    for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
      if (!view.kept[b]) continue;
      for (int fid : blocks[b].fact_ids) {
        if (relevant[fid]) continue;
        view.kept[b] = 0;
        view.witnesses.push_back(fid);
        doomed = true;
        for (int gone : blocks[b].fact_ids) relevant[gone] = 0;
        break;
      }
    }
    // A fact an atom dropped stays dropped on fewer facts, so the next
    // round starts from this round's survivors in the kept blocks.
    for (std::vector<int>& c : cands) {
      EraseIf(&c, [&](int fid) { return !relevant[fid]; });
    }
  }
  return view;
}

Database Purify(const Database& db, const Query& q,
                std::vector<Fact>* removed_witnesses) {
  PurifiedView view = PurifyView(db, q);
  Database out(db.schema());
  for (int b = 0; b < static_cast<int>(db.blocks().size()); ++b) {
    if (!view.kept[b]) continue;
    for (int fid : db.blocks()[b].fact_ids) {
      Status st = out.AddFact(db.facts()[fid]);
      assert(st.ok());
      (void)st;
    }
  }
  if (removed_witnesses != nullptr) {
    for (int fid : view.witnesses) {
      removed_witnesses->push_back(db.facts()[fid]);
    }
  }
  return out;
}

bool IsPurified(const Database& db, const Query& q) {
  return PurifyView(db, q).witnesses.empty();
}

}  // namespace cqa
