#include "cq/matcher.h"

#include <algorithm>
#include <limits>
#include <tuple>

namespace cqa {

// ---------------------------------------------------------- FactIndex

FactIndex::FactIndex(const Database& db) {
  for (const Fact& f : db.facts()) Add(&f);
}

FactIndex::FactIndex(const Repair& repair) {
  for (const Fact* f : repair) Add(f);
}

void FactIndex::Add(const Fact* fact) {
  Relation& rel = rels_[fact->relation()];
  if (rel.min_arity < 0 || fact->arity() < rel.min_arity) {
    rel.min_arity = fact->arity();
  }
  rel.max_arity = std::max(rel.max_arity, fact->arity());
  if (rel.slots_built) rel.slot.emplace(fact, rel.facts.size());
  rel.facts.push_back(fact);
  // Keep already-built lazy indexes coherent.
  for (auto& [pos, buckets] : rel.by_position) {
    if (pos < fact->arity()) buckets[fact->values()[pos]].push_back(fact);
  }
  for (auto& [len, buckets] : rel.by_prefix) {
    if (len <= fact->arity()) {
      std::vector<SymbolId> prefix(fact->values().begin(),
                                   fact->values().begin() + len);
      buckets[std::move(prefix)].push_back(fact);
    }
  }
  if (counts_built_) ++fact_counts_[*fact];
  ++total_;
}

bool FactIndex::Contains(const Fact& fact) const {
  if (!counts_built_) {
    counts_built_ = true;
    fact_counts_.clear();
    for (const auto& [relation, rel] : rels_) {
      for (const Fact* f : rel.facts) ++fact_counts_[*f];
    }
  }
  return fact_counts_.find(fact) != fact_counts_.end();
}

void FactIndex::DropFromBucket(Bucket* bucket, const Fact* fact) {
  auto it = std::find(bucket->begin(), bucket->end(), fact);
  if (it != bucket->end()) {
    *it = bucket->back();
    bucket->pop_back();
  }
}

void FactIndex::Remove(const Fact* fact, EmptiedBuckets emptied) {
  auto rel_it = rels_.find(fact->relation());
  if (rel_it == rels_.end()) return;
  Relation& rel = rel_it->second;
  if (!rel.slots_built) {
    rel.slots_built = true;
    rel.slot.clear();
    for (size_t i = 0; i < rel.facts.size(); ++i) {
      rel.slot.emplace(rel.facts[i], i);
    }
  }
  auto slot_it = rel.slot.find(fact);
  if (slot_it == rel.slot.end()) return;
  // Swap-with-last removal from the fact list.
  size_t slot = slot_it->second;
  rel.slot.erase(slot_it);
  if (slot + 1 != rel.facts.size()) {
    rel.facts[slot] = rel.facts.back();
    rel.slot[rel.facts[slot]] = slot;
  }
  rel.facts.pop_back();
  for (auto& [pos, buckets] : rel.by_position) {
    if (pos >= fact->arity()) continue;
    auto it = buckets.find(fact->values()[pos]);
    if (it == buckets.end()) continue;
    DropFromBucket(&it->second, fact);
    if (emptied == EmptiedBuckets::kErase && it->second.empty()) {
      buckets.erase(it);
    }
  }
  for (auto& [len, buckets] : rel.by_prefix) {
    if (len > fact->arity()) continue;
    std::vector<SymbolId> prefix(fact->values().begin(),
                                 fact->values().begin() + len);
    auto it = buckets.find(prefix);
    if (it == buckets.end()) continue;
    DropFromBucket(&it->second, fact);
    if (emptied == EmptiedBuckets::kErase && it->second.empty()) {
      buckets.erase(it);
    }
  }
  if (counts_built_) {
    auto count_it = fact_counts_.find(*fact);
    if (count_it != fact_counts_.end() && --count_it->second == 0) {
      fact_counts_.erase(count_it);
    }
  }
  --total_;
}

void FactIndex::SwapFact(const Fact* old_fact, const Fact* new_fact,
                         EmptiedBuckets emptied) {
  if (old_fact == new_fact) return;
  Remove(old_fact, emptied);
  Add(new_fact);
}

const FactIndex::Relation* FactIndex::FindRelation(SymbolId relation) const {
  auto it = rels_.find(relation);
  return it == rels_.end() ? nullptr : &it->second;
}

namespace {
const std::vector<const Fact*> kEmptyBucket;
}  // namespace

const std::vector<const Fact*>& FactIndex::Facts(SymbolId relation) const {
  const Relation* rel = FindRelation(relation);
  return rel == nullptr ? kEmptyBucket : rel->facts;
}

const FactIndex::PositionBuckets* FactIndex::PositionIndex(
    SymbolId relation, int position) const {
  const Relation* rel = FindRelation(relation);
  if (rel == nullptr) return nullptr;
  auto [pos_it, fresh] = rel->by_position.try_emplace(position);
  if (fresh) {
    for (const Fact* f : rel->facts) {
      if (position < f->arity()) {
        pos_it->second[f->values()[position]].push_back(f);
      }
    }
  }
  return &pos_it->second;
}

const FactIndex::PrefixBuckets* FactIndex::KeyPrefixIndex(SymbolId relation,
                                                          int length) const {
  const Relation* rel = FindRelation(relation);
  if (rel == nullptr) return nullptr;
  auto [len_it, fresh] = rel->by_prefix.try_emplace(length);
  if (fresh) {
    for (const Fact* f : rel->facts) {
      if (length <= f->arity()) {
        std::vector<SymbolId> p(f->values().begin(),
                                f->values().begin() + length);
        len_it->second[std::move(p)].push_back(f);
      }
    }
  }
  return &len_it->second;
}

int FactIndex::Arity(SymbolId relation) const {
  const Relation* rel = FindRelation(relation);
  if (rel == nullptr || rel->min_arity != rel->max_arity) return -1;
  return rel->min_arity;
}

const std::vector<const Fact*>& FactIndex::FactsAt(SymbolId relation,
                                                   int position,
                                                   SymbolId value) const {
  const PositionBuckets* buckets = PositionIndex(relation, position);
  if (buckets == nullptr) return kEmptyBucket;
  auto it = buckets->find(value);
  return it == buckets->end() ? kEmptyBucket : it->second;
}

const std::vector<const Fact*>& FactIndex::FactsWithKeyPrefix(
    SymbolId relation, const std::vector<SymbolId>& prefix) const {
  const PrefixBuckets* buckets =
      KeyPrefixIndex(relation, static_cast<int>(prefix.size()));
  if (buckets == nullptr) return kEmptyBucket;
  auto it = buckets->find(prefix);
  return it == buckets->end() ? kEmptyBucket : it->second;
}

// ------------------------------------------------------------ matching

namespace {

/// Attempts to extend `val` so that θ(atom) == fact; records newly bound
/// variables in `bound` for backtracking. Returns false on mismatch (and
/// rolls back its own bindings).
bool Unify(const Atom& atom, const Fact& fact, Valuation* val,
           std::vector<SymbolId>* bound) {
  size_t bound_before = bound->size();
  for (int i = 0; i < atom.arity(); ++i) {
    const Term& t = atom.terms()[i];
    SymbolId v = fact.values()[i];
    if (t.is_const()) {
      if (t.id() == v) continue;
    } else {
      auto existing = val->Get(t.id());
      if (!existing.has_value()) {
        val->Bind(t.id(), v);
        bound->push_back(t.id());
        continue;
      }
      if (*existing == v) continue;
    }
    // Mismatch: roll back.
    while (bound->size() > bound_before) {
      val->Unbind(bound->back());
      bound->pop_back();
    }
    return false;
  }
  return true;
}

/// Resolves `t` to a constant under `val` (identity on constants).
bool ResolveTerm(const Term& t, const Valuation& val, SymbolId* out) {
  std::optional<SymbolId> v = val.Resolve(t);
  if (!v.has_value()) return false;
  *out = *v;
  return true;
}

/// The smallest candidate set the indexes offer for `atom` under `val`:
/// the key-prefix bucket when every key position is resolved, else the
/// best single-position bucket over resolved positions, else the whole
/// relation. Returned buckets are stable for the duration of a search
/// (lazy builds only create new map entries).
const std::vector<const Fact*>* CandidatesFor(
    const FactIndex& index, const Atom& atom, const Valuation& val,
    std::vector<SymbolId>* prefix_buf) {
  const std::vector<const Fact*>* best = &index.Facts(atom.relation());
  // A length-1 key prefix is the same bucket as position 0, which the
  // single-position probes below find without hashing a vector.
  if (atom.key_arity() >= 2 && !best->empty()) {
    prefix_buf->clear();
    bool all_key_bound = true;
    for (int i = 0; i < atom.key_arity() && all_key_bound; ++i) {
      SymbolId v;
      if (ResolveTerm(atom.terms()[i], val, &v)) {
        prefix_buf->push_back(v);
      } else {
        all_key_bound = false;
      }
    }
    if (all_key_bound) {
      const auto& block =
          index.FactsWithKeyPrefix(atom.relation(), *prefix_buf);
      if (block.size() < best->size()) best = &block;
    }
  }
  for (int i = 0; i < atom.arity() && best->size() > 1; ++i) {
    SymbolId v;
    if (!ResolveTerm(atom.terms()[i], val, &v)) continue;
    const auto& bucket = index.FactsAt(atom.relation(), i, v);
    if (bucket.size() < best->size()) best = &bucket;
  }
  return best;
}

struct SearchState {
  const FactIndex& index;
  /// Atoms in q.atoms() order; `chosen` is aligned with it.
  std::vector<const Atom*> atoms;
  std::vector<bool> used;
  /// Static order (atom indices) for NaiveForEachEmbedding.
  std::vector<int> order;
  const EmbeddingFactsFn& fn;
  Valuation val;
  std::vector<const Fact*> chosen;
  std::vector<SymbolId> prefix_buf;
  bool completed = true;
};

/// Depth-first search with dynamic atom ordering: at every node, match
/// the unused atom with the fewest index candidates under the current
/// partial valuation. Returns false to abort the whole enumeration.
bool SearchIndexed(SearchState* st, size_t remaining) {
  if (remaining == 0) {
    if (!st->fn(st->val, st->chosen)) {
      st->completed = false;
      return false;
    }
    return true;
  }
  int best = -1;
  const std::vector<const Fact*>* best_cands = nullptr;
  for (size_t i = 0; i < st->atoms.size(); ++i) {
    if (st->used[i]) continue;
    const std::vector<const Fact*>* cands =
        CandidatesFor(st->index, *st->atoms[i], st->val, &st->prefix_buf);
    if (cands->empty()) return true;  // Dead branch: backtrack.
    if (best_cands == nullptr || cands->size() < best_cands->size()) {
      best = static_cast<int>(i);
      best_cands = cands;
      if (best_cands->size() == 1) break;
    }
  }
  const Atom& atom = *st->atoms[best];
  st->used[best] = true;
  bool keep_going = true;
  std::vector<SymbolId> bound;
  for (const Fact* fact : *best_cands) {
    if (fact->arity() != atom.arity()) continue;
    bound.clear();
    if (!Unify(atom, *fact, &st->val, &bound)) continue;
    st->chosen[best] = fact;
    keep_going = SearchIndexed(st, remaining - 1);
    // Reverse order: each Unbind is then a pop from the valuation tail.
    for (size_t bi = bound.size(); bi > 0; --bi) {
      st->val.Unbind(bound[bi - 1]);
    }
    if (!keep_going) break;
  }
  st->used[best] = false;
  return keep_going;
}

/// The retained pre-index matcher: static selectivity order, full
/// relation scans. Differential-testing oracle for SearchIndexed.
bool SearchNaive(SearchState* st, size_t depth) {
  if (depth == st->order.size()) {
    if (!st->fn(st->val, st->chosen)) {
      st->completed = false;
      return false;
    }
    return true;
  }
  int ai = st->order[depth];
  const Atom& atom = *st->atoms[ai];
  for (const Fact* fact : st->index.Facts(atom.relation())) {
    if (fact->arity() != atom.arity()) continue;
    std::vector<SymbolId> bound;
    if (!Unify(atom, *fact, &st->val, &bound)) continue;
    st->chosen[ai] = fact;
    bool keep_going = SearchNaive(st, depth + 1);
    for (size_t bi = bound.size(); bi > 0; --bi) {
      st->val.Unbind(bound[bi - 1]);
    }
    if (!keep_going) return false;
  }
  return true;
}

SearchState NewSearch(const FactIndex& index, const Query& q,
                      const Valuation& initial, const EmbeddingFactsFn& fn) {
  size_t n = q.atoms().size();
  std::vector<const Atom*> atoms;
  atoms.reserve(n);
  for (const Atom& a : q.atoms()) atoms.push_back(&a);
  return SearchState{index,
                     std::move(atoms),
                     std::vector<bool>(n, false),
                     {},
                     fn,
                     initial,
                     std::vector<const Fact*>(n, nullptr),
                     {},
                     true};
}

/// Adapts a valuation-only callback to the facts-aware search.
EmbeddingFactsFn IgnoreFacts(
    const std::function<bool(const Valuation&)>& fn) {
  return [&fn](const Valuation& val, const std::vector<const Fact*>&) {
    return fn(val);
  };
}

}  // namespace

bool ForEachEmbeddingFacts(const FactIndex& index, const Query& q,
                           const Valuation& initial,
                           const EmbeddingFactsFn& fn) {
  SearchState st = NewSearch(index, q, initial, fn);
  SearchIndexed(&st, q.atoms().size());
  return st.completed;
}

bool ForEachEmbedding(const FactIndex& index, const Query& q,
                      const Valuation& initial,
                      const std::function<bool(const Valuation&)>& fn) {
  return ForEachEmbeddingFacts(index, q, initial, IgnoreFacts(fn));
}

bool NaiveForEachEmbedding(const FactIndex& index, const Query& q,
                           const Valuation& initial,
                           const std::function<bool(const Valuation&)>& fn) {
  EmbeddingFactsFn wrapped = IgnoreFacts(fn);
  SearchState st = NewSearch(index, q, initial, wrapped);
  // Static order by selectivity: fewest candidate facts first.
  st.order.resize(st.atoms.size());
  for (size_t i = 0; i < st.order.size(); ++i) {
    st.order[i] = static_cast<int>(i);
  }
  std::stable_sort(st.order.begin(), st.order.end(), [&](int a, int b) {
    return index.Facts(st.atoms[a]->relation()).size() <
           index.Facts(st.atoms[b]->relation()).size();
  });
  SearchNaive(&st, 0);
  return st.completed;
}

bool SatisfiesWith(const FactIndex& index, const Query& q,
                   const Valuation& initial) {
  bool found = false;
  ForEachEmbedding(index, q, initial, [&](const Valuation&) {
    found = true;
    return false;  // Stop at the first embedding.
  });
  return found;
}

bool Satisfies(const FactIndex& index, const Query& q) {
  return SatisfiesWith(index, q, Valuation());
}

// ------------------------------------------------ candidate enumeration

namespace {

/// One atom of the statically ordered join behind
/// CollectProjectionsSorted. The order fixes which registers are bound
/// at each depth, so every position compiles to a constant check, a
/// register check or a register bind, and the access path is fixed too.
struct JoinStep {
  enum class Path { kScan, kPosition, kPrefix };
  struct Op {
    enum class Kind { kConst, kCheck, kBind };
    Kind kind;
    int position;
    /// kConst: the constant; kCheck and kBind: the register.
    SymbolId arg;
  };

  int arity = 0;
  Path path = Path::kScan;
  /// The probed values, each a kConst or kCheck op: one position for
  /// kPosition, the key positions in order for kPrefix.
  std::vector<Op> probe;
  /// The positions the access path does not already pin.
  std::vector<Op> ops;
  const FactIndex::Bucket* scan = nullptr;
  const FactIndex::PositionBuckets* by_position = nullptr;
  const FactIndex::PrefixBuckets* by_prefix = nullptr;
  /// Scratch key of kPrefix lookups.
  std::vector<SymbolId> prefix;
  /// Every op binds a variable that occurs nowhere else in q, and every
  /// fact of the relation has the atom's arity: past the projection cut
  /// the atom holds iff its bucket is non-empty.
  bool exists_by_bucket = false;
};

/// The projection-aware enumerator: planned once per call, then a
/// depth-first join over registers. Depths before `cut_` enumerate
/// every match; from `cut_` on every projected register is bound and
/// the remaining atoms only need a first completion.
class ProjectionJoin {
 public:
  ProjectionJoin(const FactIndex& index, const Query& q,
                 const Valuation& initial,
                 const std::vector<SymbolId>& vars, size_t max_rows)
      : index_(index), max_rows_(max_rows) {
    possible_ = Plan(q, initial, vars);
  }

  /// Nullopt once more than `max_rows` rows were emitted.
  std::optional<std::vector<std::vector<SymbolId>>> Run() {
    std::vector<std::vector<SymbolId>> out;
    if (!possible_) return out;
    if (cut_ == 0) {
      EmitIfCompletes();
    } else {
      Enumerate(0);
    }
    if (num_rows_ > max_rows_) return std::nullopt;
    const size_t stride = out_regs_.size();
    if (stride == 0) {
      if (num_rows_ > 0) out.emplace_back();
      return out;
    }
    auto row = [&](size_t i) { return rows_.data() + i * stride; };
    auto less = [&](size_t a, size_t b) {
      return std::lexicographical_compare(row(a), row(a) + stride, row(b),
                                          row(b) + stride);
    };
    std::vector<size_t> order(num_rows_);
    for (size_t i = 0; i < num_rows_; ++i) order[i] = i;
    // Scans of key-ordered relations often emit rows already in order.
    if (!std::is_sorted(order.begin(), order.end(), less)) {
      std::sort(order.begin(), order.end(), less);
    }
    order.erase(std::unique(order.begin(), order.end(),
                            [&](size_t a, size_t b) {
                              return std::equal(row(a), row(a) + stride,
                                                row(b));
                            }),
                order.end());
    out.reserve(order.size());
    for (size_t i : order) out.emplace_back(row(i), row(i) + stride);
    return out;
  }

 private:
  using Op = JoinStep::Op;

  int Find(SymbolId var) const {
    for (size_t r = 0; r < reg_vars_.size(); ++r) {
      if (reg_vars_[r] == var) return static_cast<int>(r);
    }
    return -1;
  }

  int Register(SymbolId var) {
    int r = Find(var);
    if (r >= 0) return r;
    reg_vars_.push_back(var);
    return static_cast<int>(reg_vars_.size() - 1);
  }

  /// Orders the atoms and compiles their steps. False when no embedding
  /// can exist: an atom's relation is empty, or a projected variable is
  /// neither in q nor seeded.
  bool Plan(const Query& q, const Valuation& initial,
            const std::vector<SymbolId>& vars) {
    const std::vector<Atom>& atoms = q.atoms();
    for (const Atom& atom : atoms) {
      if (index_.Facts(atom.relation()).empty()) return false;
      for (const Term& t : atom.terms()) {
        if (t.is_var()) Register(t.id());
      }
    }
    for (const auto& [var, value] : initial.entries()) Register(var);
    const size_t n = reg_vars_.size();
    regs_.assign(n, 0);
    std::vector<char> bound(n, 0);
    std::vector<char> projected(n, 0);
    std::vector<int> occurrences(n, 0);
    for (const Atom& atom : atoms) {
      for (const Term& t : atom.terms()) {
        if (t.is_var()) ++occurrences[Find(t.id())];
      }
    }
    for (const auto& [var, value] : initial.entries()) {
      int r = Find(var);
      regs_[r] = value;
      bound[r] = 1;
    }
    for (SymbolId var : vars) {
      int r = Find(var);
      if (r < 0) return false;
      out_regs_.push_back(r);
      projected[r] = 1;
    }

    auto resolved = [&](const Term& t) {
      return t.is_const() || bound[Find(t.id())];
    };
    auto all_projected_bound = [&] {
      for (int r : out_regs_) {
        if (!bound[r]) return false;
      }
      return true;
    };
    // Greedy static order: fully bound key, then any bound position,
    // then a scan; within a class, atoms binding a projected variable
    // first, then the smaller relation, then query order.
    std::vector<char> used(atoms.size(), 0);
    bool cut_placed = all_projected_bound();
    for (size_t depth = 0; depth < atoms.size(); ++depth) {
      int best = -1;
      std::tuple<int, int, size_t> best_score;
      for (size_t i = 0; i < atoms.size(); ++i) {
        if (used[i]) continue;
        const Atom& atom = atoms[i];
        bool key_bound = atom.key_arity() > 0;
        bool any_bound = false;
        bool binds_projected = false;
        for (int p = 0; p < atom.arity(); ++p) {
          const Term& t = atom.terms()[p];
          bool r = resolved(t);
          if (p < atom.key_arity()) key_bound = key_bound && r;
          any_bound = any_bound || r;
          if (!r && projected[Find(t.id())]) binds_projected = true;
        }
        std::tuple<int, int, size_t> score{
            key_bound ? 0 : (any_bound ? 1 : 2), binds_projected ? 0 : 1,
            index_.Facts(atom.relation()).size()};
        if (best < 0 || score < best_score) {
          best = static_cast<int>(i);
          best_score = score;
        }
      }
      used[best] = 1;
      steps_.push_back(CompileStep(atoms[best], occurrences, &bound));
      if (!cut_placed && all_projected_bound()) {
        cut_ = depth + 1;
        cut_placed = true;
      }
    }
    return true;
  }

  /// Chooses the access path of `atom` under the registers `bound`
  /// before it, compiles its ops and marks the registers it binds.
  JoinStep CompileStep(const Atom& atom, const std::vector<int>& occurrences,
                       std::vector<char>* bound) {
    const std::vector<Term>& terms = atom.terms();
    auto resolved = [&](int p) {
      return terms[p].is_const() || (*bound)[Find(terms[p].id())];
    };
    auto operand = [&](int p) {
      const Term& t = terms[p];
      return t.is_const()
                 ? Op{Op::Kind::kConst, p, t.id()}
                 : Op{Op::Kind::kCheck, p,
                      static_cast<SymbolId>(Find(t.id()))};
    };
    JoinStep step;
    step.arity = atom.arity();
    std::vector<char> pinned(terms.size(), 0);
    bool key_bound = atom.key_arity() > 0;
    for (int p = 0; p < atom.key_arity(); ++p) {
      key_bound = key_bound && resolved(p);
    }
    if (key_bound && atom.key_arity() >= 2) {
      step.path = JoinStep::Path::kPrefix;
      step.by_prefix = index_.KeyPrefixIndex(atom.relation(),
                                             atom.key_arity());
      for (int p = 0; p < atom.key_arity(); ++p) {
        step.probe.push_back(operand(p));
        pinned[p] = 1;
      }
      step.prefix.resize(atom.key_arity());
    } else {
      // A one-position key is its own block; otherwise probe the bound
      // position whose index has the most distinct values.
      int position = key_bound ? 0 : -1;
      size_t most_distinct = 0;
      for (int p = 0; p < atom.arity() && !key_bound; ++p) {
        if (!resolved(p)) continue;
        size_t distinct = index_.PositionIndex(atom.relation(), p)->size();
        if (position < 0 || distinct > most_distinct) {
          position = p;
          most_distinct = distinct;
        }
      }
      if (position >= 0) {
        step.path = JoinStep::Path::kPosition;
        step.by_position = index_.PositionIndex(atom.relation(), position);
        step.probe.push_back(operand(position));
        pinned[position] = 1;
      } else {
        step.scan = &index_.Facts(atom.relation());
      }
    }
    step.exists_by_bucket = index_.Arity(atom.relation()) == atom.arity();
    for (int p = 0; p < atom.arity(); ++p) {
      if (pinned[p]) continue;
      const Term& t = terms[p];
      if (t.is_const() || (*bound)[Find(t.id())]) {
        step.ops.push_back(operand(p));
        step.exists_by_bucket = false;
        continue;
      }
      int r = Find(t.id());
      step.ops.push_back(Op{Op::Kind::kBind, p, static_cast<SymbolId>(r)});
      (*bound)[r] = 1;
      if (occurrences[r] != 1) step.exists_by_bucket = false;
    }
    return step;
  }

  SymbolId Value(const Op& op) const {
    return op.kind == Op::Kind::kConst ? op.arg : regs_[op.arg];
  }

  const FactIndex::Bucket& Candidates(JoinStep& step) const {
    switch (step.path) {
      case JoinStep::Path::kScan:
        return *step.scan;
      case JoinStep::Path::kPosition: {
        auto it = step.by_position->find(Value(step.probe[0]));
        return it == step.by_position->end() ? kEmptyBucket : it->second;
      }
      case JoinStep::Path::kPrefix: {
        for (size_t i = 0; i < step.probe.size(); ++i) {
          step.prefix[i] = Value(step.probe[i]);
        }
        auto it = step.by_prefix->find(step.prefix);
        return it == step.by_prefix->end() ? kEmptyBucket : it->second;
      }
    }
    return kEmptyBucket;
  }

  /// Runs the step's ops against `fact`. A failed match may leave
  /// registers half-written; they are unbound at this depth by
  /// construction, so nothing reads them before the next bind.
  bool Match(const JoinStep& step, const Fact& fact) {
    if (fact.arity() != step.arity) return false;
    const std::vector<SymbolId>& values = fact.values();
    for (const Op& op : step.ops) {
      SymbolId v = values[op.position];
      switch (op.kind) {
        case Op::Kind::kConst:
          if (v != op.arg) return false;
          break;
        case Op::Kind::kCheck:
          if (v != regs_[op.arg]) return false;
          break;
        case Op::Kind::kBind:
          regs_[op.arg] = v;
          break;
      }
    }
    return true;
  }

  void Enumerate(size_t depth) {
    JoinStep& step = steps_[depth];
    for (const Fact* fact : Candidates(step)) {
      if (!Match(step, *fact)) continue;
      if (depth + 1 == cut_) {
        EmitIfCompletes();
      } else {
        Enumerate(depth + 1);
      }
      if (num_rows_ > max_rows_) return;
    }
  }

  /// First-match search over the atoms from `depth` on.
  bool Exists(size_t depth) {
    if (depth == steps_.size()) return true;
    JoinStep& step = steps_[depth];
    const FactIndex::Bucket& candidates = Candidates(step);
    if (step.exists_by_bucket) {
      return !candidates.empty() && Exists(depth + 1);
    }
    for (const Fact* fact : candidates) {
      if (Match(step, *fact) && Exists(depth + 1)) return true;
    }
    return false;
  }

  /// At the cut: appends the projected registers as a row when some
  /// completion exists. A row equal to the previous one is skipped
  /// before the search, since it cannot add anything.
  void EmitIfCompletes() {
    const size_t stride = out_regs_.size();
    if (num_rows_ > 0) {
      const SymbolId* last = rows_.data() + (num_rows_ - 1) * stride;
      bool same = true;
      for (size_t i = 0; i < stride && same; ++i) {
        same = last[i] == regs_[out_regs_[i]];
      }
      if (same) return;
    }
    if (!Exists(cut_)) return;
    for (int r : out_regs_) rows_.push_back(regs_[r]);
    ++num_rows_;
  }

  const FactIndex& index_;
  size_t max_rows_;
  bool possible_ = false;
  /// register -> variable, and register -> current value.
  std::vector<SymbolId> reg_vars_;
  std::vector<SymbolId> regs_;
  std::vector<JoinStep> steps_;
  size_t cut_ = 0;
  /// One register per projected column (a variable listed twice reads
  /// its register twice).
  std::vector<int> out_regs_;
  /// Emitted rows, flat with stride out_regs_.size().
  std::vector<SymbolId> rows_;
  size_t num_rows_ = 0;
};

}  // namespace

std::vector<std::vector<SymbolId>> CollectProjectionsSorted(
    const FactIndex& index, const Query& q, const Valuation& initial,
    const std::vector<SymbolId>& vars) {
  return *ProjectionJoin(index, q, initial, vars,
                         std::numeric_limits<size_t>::max())
              .Run();
}

std::optional<std::vector<std::vector<SymbolId>>>
CollectProjectionsSortedUpTo(const FactIndex& index, const Query& q,
                             const Valuation& initial,
                             const std::vector<SymbolId>& vars,
                             size_t max_rows) {
  return ProjectionJoin(index, q, initial, vars, max_rows).Run();
}

bool Satisfies(const Database& db, const Query& q) {
  return Satisfies(FactIndex(db), q);
}

bool Satisfies(const Repair& repair, const Query& q) {
  return Satisfies(FactIndex(repair), q);
}

}  // namespace cqa
