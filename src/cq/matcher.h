#ifndef CQA_CQ_MATCHER_H_
#define CQA_CQ_MATCHER_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cq/query.h"
#include "cq/valuation.h"
#include "db/database.h"
#include "db/repairs.h"

/// \file
/// Conjunctive query evaluation: db ⊨ q iff some valuation θ over vars(q)
/// embeds every atom of q into db (Section 3). Implemented as a
/// backtracking join over `FactIndex`, a hash-indexed per-relation view of
/// a fact set.
///
/// ## Index structures
///
/// `FactIndex` maintains, per relation R:
///
///   * the plain fact list (`Facts`), as before;
///   * *position indexes* — for a position p, a hash map
///     `value -> facts of R with values()[p] == value` (`FactsAt`);
///   * *key-prefix indexes* — for a prefix length k, a hash map
///     `(v_1..v_k) -> facts of R whose first k values are v_1..v_k`
///     (`FactsWithKeyPrefix`). With k = the key arity of R the buckets
///     are exactly the primary-key blocks of the database, so a lookup
///     with a fully bound key returns one block.
///
/// Both kinds are built lazily, on the first probe of a (relation,
/// position) or (relation, prefix-length) pair, and are maintained
/// incrementally by `Add`/`Remove`/`SwapFact`. `SwapFact` is the repair
/// hot path: enumerating repairs changes one block's choice at a time, so
/// solvers mutate one shared index per block-choice change instead of
/// rebuilding an index per repair (see RepairEnumerator::ForEachIndexed).
///
/// ## Join evaluation and atom ordering
///
/// The indexed matcher picks, at every search node, the *not-yet-matched
/// atom with the fewest candidate facts under the current partial
/// valuation* (dynamic selectivity ordering), where the candidate set of
/// an atom is the smallest of: its key-prefix bucket (when every key
/// position is a constant or bound variable), its single-position buckets
/// over all bound positions, and the whole relation. A branch dies as
/// soon as any remaining atom has zero candidates. This subsumes the old
/// static order-by-relation-size heuristic: once the first atom binds a
/// join variable, subsequent atoms are matched by hash lookup on that
/// binding rather than by scanning their relation.
///
/// The pre-index matcher is retained as `NaiveForEachEmbedding` (static
/// atom order, full relation scans), a reference function that only the
/// differential tests call.
///
/// ## Candidate enumeration
///
/// `CollectProjectionsSorted` does not walk embeddings. It plans one
/// static atom order per call (fully bound key, then any bound
/// position, then the smallest scan; ties go to atoms binding projected
/// variables), which fixes every depth's access path and compiles each
/// atom position to a constant check, a register check or a register
/// bind. Once every projected variable is bound, the remaining atoms
/// only need *some* completion: the search stops at the first one, and
/// an atom whose other positions are variables occurring nowhere else
/// is decided by its bucket being non-empty. Its oracle is the projection
/// of the naive embeddings, which the differential tests compute.

namespace cqa {

/// A hash-indexed per-relation view over a set of facts. Used both for
/// whole databases and for individual repairs (which are just fact
/// lists). Facts are referenced by pointer; callers keep them alive.
/// Lazy sub-indexes make the accessors logically-const but not
/// thread-safe (matching the single-threaded session model).
class FactIndex {
 private:
  struct VecHash {
    size_t operator()(const std::vector<SymbolId>& k) const {
      size_t h = 0x9e3779b97f4a7c15ull;
      for (SymbolId v : k) h = h * 1000003u + v;
      return h;
    }
  };

 public:
  using Bucket = std::vector<const Fact*>;
  /// One lazy position index: value -> facts carrying it there.
  using PositionBuckets = std::unordered_map<SymbolId, Bucket>;
  /// One lazy key-prefix index: prefix -> facts starting with it.
  using PrefixBuckets =
      std::unordered_map<std::vector<SymbolId>, Bucket, VecHash>;

  FactIndex() = default;
  explicit FactIndex(const Database& db);
  explicit FactIndex(const Repair& repair);

  /// Inserts `fact`. The pointer must stay valid until removed.
  void Add(const Fact* fact);

  /// What a removal does with a position or key-prefix bucket it
  /// empties. kErase keeps an index patched by deltas whose values
  /// leave for good (fresh keys ingested, old ones retired) the size of
  /// its contents. kKeep is for a backtracking walk that comes back to
  /// the same values (the repair odometer, the possible-world
  /// recursion): it spares freeing and re-allocating the bucket at
  /// every step.
  enum class EmptiedBuckets { kErase, kKeep };

  /// Removes a pointer previously passed to Add (no-op for strangers).
  void Remove(const Fact* fact,
              EmptiedBuckets emptied = EmptiedBuckets::kErase);

  /// Remove(old_fact, emptied) + Add(new_fact): the per-block repair
  /// transition.
  void SwapFact(const Fact* old_fact, const Fact* new_fact,
                EmptiedBuckets emptied = EmptiedBuckets::kErase);

  /// All facts of `relation`, in insertion order (mutations may permute).
  const std::vector<const Fact*>& Facts(SymbolId relation) const;

  /// Facts of `relation` with values()[position] == value. `position`
  /// must be >= 0; facts of arity <= position are never included.
  const std::vector<const Fact*>& FactsAt(SymbolId relation, int position,
                                          SymbolId value) const;

  /// Facts of `relation` whose first prefix.size() values equal `prefix`.
  /// With prefix.size() == key arity these buckets are the blocks.
  const std::vector<const Fact*>& FactsWithKeyPrefix(
      SymbolId relation, const std::vector<SymbolId>& prefix) const;

  /// The whole index FactsAt(relation, position, ·) probes, built on
  /// first use, so a join can resolve it once and probe it per node.
  /// Null when no fact of `relation` was ever added.
  const PositionBuckets* PositionIndex(SymbolId relation, int position) const;

  /// Likewise the index FactsWithKeyPrefix probes for prefixes of
  /// `length` values.
  const PrefixBuckets* KeyPrefixIndex(SymbolId relation, int length) const;

  /// The arity every fact ever added to `relation` had; -1 when none was
  /// added or their arities differ.
  int Arity(SymbolId relation) const;

  /// Membership test by fact value (hash lookup; the value-identity
  /// multiset is built lazily on first use).
  bool Contains(const Fact& fact) const;

  size_t total() const { return total_; }

 private:
  struct Relation {
    Bucket facts;
    /// Smallest and largest arity ever added (removals keep them).
    int min_arity = -1;
    int max_arity = -1;
    /// fact pointer -> slot in `facts`, for O(1) swap-with-last removal.
    /// Built lazily on the first Remove/SwapFact of the relation, so
    /// read-only indexes (the common case) never pay for it.
    mutable std::unordered_map<const Fact*, size_t> slot;
    mutable bool slots_built = false;
    /// Lazy position indexes; by_position[p] exists once FactsAt probed p.
    mutable std::unordered_map<int, PositionBuckets> by_position;
    /// Lazy key-prefix indexes, keyed by prefix length.
    mutable std::unordered_map<int, PrefixBuckets> by_prefix;
  };

  const Relation* FindRelation(SymbolId relation) const;
  static void DropFromBucket(Bucket* bucket, const Fact* fact);

  std::unordered_map<SymbolId, Relation> rels_;
  /// Value-identity multiset (distinct pointers may carry equal facts),
  /// built lazily on the first Contains.
  mutable std::unordered_map<Fact, int, FactHash> fact_counts_;
  mutable bool counts_built_ = false;
  size_t total_ = 0;
};

/// True iff some valuation embeds `q` into the indexed facts.
bool Satisfies(const FactIndex& index, const Query& q);
bool Satisfies(const Database& db, const Query& q);
bool Satisfies(const Repair& repair, const Query& q);

/// Enumerates embeddings θ with θ(q) ⊆ index. The callback returns false
/// to stop; `initial` seeds the search with pre-bound variables.
/// Returns true when the enumeration ran to completion.
bool ForEachEmbedding(const FactIndex& index, const Query& q,
                      const Valuation& initial,
                      const std::function<bool(const Valuation&)>& fn);

/// ForEachEmbedding by the retained pre-index matcher: static atom order
/// by relation size, full relation scans, no index probes. The
/// differential tests' reference for the indexed search; nothing in the
/// library calls it.
bool NaiveForEachEmbedding(const FactIndex& index, const Query& q,
                           const Valuation& initial,
                           const std::function<bool(const Valuation&)>& fn);

/// Like ForEachEmbedding, but also hands the callback the matched facts,
/// aligned with q.atoms(): facts_by_atom[i] == θ(q.atom(i)). Consumers
/// that need fact identities (SAT encoding, repair counting, conflict
/// graphs) read them directly instead of re-materializing θ(atom) and
/// hashing it back to a fact id.
using EmbeddingFactsFn = std::function<bool(
    const Valuation&, const std::vector<const Fact*>& facts_by_atom)>;
bool ForEachEmbeddingFacts(const FactIndex& index, const Query& q,
                           const Valuation& initial,
                           const EmbeddingFactsFn& fn);

/// True iff some embedding of `q` into `index` extends `initial`.
bool SatisfiesWith(const FactIndex& index, const Query& q,
                   const Valuation& initial);

/// The distinct projections θ|vars over all embeddings θ of `q` into
/// `index` extending `initial`, sorted. Every variable of `vars` must
/// occur in q or be bound by `initial` (otherwise the result is empty);
/// a variable listed twice fills both columns. With `vars` empty the
/// result is {()} when some embedding exists and {} otherwise. This is
/// the candidate-row enumeration of the answering layers, in the shape
/// the batched certainty deciders (`QueryPlan::IsCertainRows`, the
/// serving session's recompute paths) consume: full recomputes pass an
/// empty seed, and the serving `Session` seeds `initial` from a changed
/// block's key values so the key-prefix buckets prune the join to the
/// rows a delta reaches.
std::vector<std::vector<SymbolId>> CollectProjectionsSorted(
    const FactIndex& index, const Query& q, const Valuation& initial,
    const std::vector<SymbolId>& vars);

/// CollectProjectionsSorted, given up (nullopt) as soon as the join has
/// produced more than `max_rows` rows — a row met again on a later path
/// counts again — so a caller with a row budget stops paying there.
std::optional<std::vector<std::vector<SymbolId>>>
CollectProjectionsSortedUpTo(const FactIndex& index, const Query& q,
                             const Valuation& initial,
                             const std::vector<SymbolId>& vars,
                             size_t max_rows);

}  // namespace cqa

#endif  // CQA_CQ_MATCHER_H_
