#ifndef CQA_PLAN_PLAN_CACHE_H_
#define CQA_PLAN_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "plan/query_plan.h"

/// \file
/// A bounded, sharded LRU cache of compiled `QueryPlan`s, keyed by
/// the query's canonical form — α-equivalent queries (same up to
/// variable renaming and atom order) share one plan, so classification,
/// attack-graph analysis and the FO rewriting are paid once per
/// equivalence class, not once per call. This is where the dichotomy's
/// compile-time/run-time split turns into serving throughput.
///
/// Compile *failures* are cached too (negative entries): a malformed
/// query — e.g. a free variable that does not occur in the query —
/// stores its Status under the same canonical key and LRU policy, so
/// repeated bad traffic is rejected from the cache instead of
/// re-running validation-plus-compilation every time. When a shard
/// overflows, negative entries are evicted before any compiled plan, so
/// distinct-malformed floods cannot flush hot plans.
///
/// Sharding and the hot-hit path: the canonical hash picks a shard;
/// each shard is guarded by a `shared_mutex`, and a HIT takes only the
/// SHARED side — recency is a per-entry atomic stamped from a global
/// clock, not a splice into an exclusively-locked list — so many
/// workers hammering the same hot α-class (the serving steady state)
/// read concurrently instead of convoying on a shard mutex. Exclusive
/// locking is reserved for inserts and evictions. Compilation runs
/// outside any lock (it can be expensive); when two threads race to
/// compile the same key, the first insert wins and the loser adopts the
/// winner's entry. `Stats::shard_waits` counts hit-path probes that
/// found their shard exclusively held — the contention signal this
/// design exists to keep near zero.

namespace cqa {

class PlanCache {
 public:
  struct Options {
    /// Total plans kept (split across shards, at least one per shard).
    size_t capacity = 1024;
    size_t num_shards = 8;
  };

  PlanCache() : PlanCache(Options()) {}
  explicit PlanCache(const Options& options);

  /// The plan for `q`, compiling on miss. Compile failures are returned
  /// AND cached (negative entries), so repeated malformed queries skip
  /// recompilation.
  Result<std::shared_ptr<const QueryPlan>> GetOrCompile(const Query& q);

  /// Parameterized variant (the canonical key embeds the parameter
  /// positions, so Boolean and parameterized plans never collide).
  Result<std::shared_ptr<const QueryPlan>> GetOrCompile(
      const Query& q, const std::vector<SymbolId>& free_vars);

  /// Cache probe without compiling (test/diagnostic hook). Does not
  /// touch recency or the hit/miss counters.
  std::shared_ptr<const QueryPlan> Lookup(const Query& q) const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Hits served by a cached compile *failure* (subset of `hits`).
    uint64_t negative_hits = 0;
    /// Hit-path probes that found their shard exclusively locked and
    /// had to block (contention events on the hot path).
    uint64_t shard_waits = 0;
    size_t entries = 0;
    /// Entries holding a Status instead of a plan (subset of `entries`).
    size_t negative_entries = 0;
    size_t capacity = 0;
  };
  /// An atomic snapshot of the counters: every shard is read under its
  /// EXCLUSIVE lock, which excludes in-flight hit paths, so within a
  /// shard hits/misses/negative_hits/entries are mutually consistent
  /// (no torn reads of independently-advancing atomics). This is what
  /// `Service::Stats` surfaces.
  Stats Snapshot() const;

  /// Drops all entries and resets the counters.
  void Clear();

 private:
  /// One cached compile outcome: a plan, or the Status that compilation
  /// failed with (negative entry; `plan` is null exactly then). The
  /// payload is immutable after insert; only `last_use` advances, which
  /// is why hits can run under the shared lock.
  struct Entry {
    std::shared_ptr<const QueryPlan> plan;
    Status error = Status::OK();
    /// Recency stamp from `clock_`; larger = more recently used.
    mutable std::atomic<uint64_t> last_use{0};
  };

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, Entry> by_key;
    /// Atomics because the hit path advances them under the SHARED
    /// lock; Snapshot/Clear read/reset them under the exclusive lock,
    /// which is what makes the snapshot per-shard consistent.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> negative_hits{0};
    std::atomic<uint64_t> waits{0};
  };

  /// `precheck` is a validation failure determined from the ORIGINAL
  /// query (free-variable occurrence): it is cached as the negative
  /// entry instead of compiling.
  Result<std::shared_ptr<const QueryPlan>> GetOrCompileCanonical(
      CanonicalQuery canonical, Status precheck);
  Shard& ShardFor(uint64_t hash) const;
  /// Evicts until `shard` fits its capacity. Caller holds the exclusive
  /// lock. Negative entries go first, then least-recent overall.
  void EvictOverflowLocked(Shard& shard);

  uint64_t NextTick() { return clock_.fetch_add(1, std::memory_order_relaxed) + 1; }

  size_t per_shard_capacity_;
  mutable std::vector<Shard> shards_;
  /// Global recency clock; one relaxed fetch_add per use event.
  std::atomic<uint64_t> clock_{0};
};

}  // namespace cqa

#endif  // CQA_PLAN_PLAN_CACHE_H_
