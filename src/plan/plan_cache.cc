#include "plan/plan_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace cqa {

namespace {

// Shards clamped to the capacity so a small cache is never inflated by
// the one-entry-per-shard minimum; total capacity is then
// options.capacity rounded down to a multiple of the shard count
// (reported exactly by Snapshot().capacity) and never exceeds the request.
size_t EffectiveShards(const PlanCache::Options& options) {
  size_t shards = std::max<size_t>(1, options.num_shards);
  return std::max<size_t>(1, std::min(shards, options.capacity));
}

}  // namespace

PlanCache::PlanCache(const Options& options)
    : per_shard_capacity_(
          std::max<size_t>(1, options.capacity / EffectiveShards(options))),
      shards_(EffectiveShards(options)) {}

PlanCache::Shard& PlanCache::ShardFor(uint64_t hash) const {
  return shards_[hash % shards_.size()];
}

Result<std::shared_ptr<const QueryPlan>> PlanCache::GetOrCompile(
    const Query& q) {
  Result<CanonicalQuery> canonical = Canonicalize(q);
  if (!canonical.ok()) return canonical.status();
  return GetOrCompileCanonical(*std::move(canonical), Status::OK());
}

Result<std::shared_ptr<const QueryPlan>> PlanCache::GetOrCompile(
    const Query& q, const std::vector<SymbolId>& free_vars) {
  // Validate against the original query so the error names the caller's
  // variable, then cache the outcome (positive or negative) under the
  // canonical key.
  Result<CanonicalQuery> renamed = Canonicalize(q, free_vars);
  if (!renamed.ok()) return renamed.status();
  CanonicalQuery canonical = *std::move(renamed);
  if (!free_vars.empty()) {
    // The canonical rendering cannot distinguish parameter lists whose
    // oddities leave no trace in the renamed atoms: {x, x} (legal
    // duplicate projection) and {x, nosuchvar} (malformed) produce the
    // same key. Append an α-invariant argument signature — per
    // position, the index of the variable's first occurrence in the
    // list, with '!' marking variables that do not occur in q — so a
    // negative entry can never be served to a valid request or vice
    // versa.
    VarSet query_vars = q.Vars();
    std::string sig = ";argsig";
    for (size_t i = 0; i < free_vars.size(); ++i) {
      size_t first = i;
      for (size_t j = 0; j < i; ++j) {
        if (free_vars[j] == free_vars[i]) {
          first = j;
          break;
        }
      }
      sig += ":" + std::to_string(first);
      if (query_vars.count(free_vars[i]) == 0) sig += "!";
    }
    canonical.key += sig;
    canonical.hash ^= std::hash<std::string>{}(sig) * 1099511628211ull;
  }
  return GetOrCompileCanonical(std::move(canonical),
                               ValidateFreeVars(q, free_vars));
}

Result<std::shared_ptr<const QueryPlan>> PlanCache::GetOrCompileCanonical(
    CanonicalQuery canonical, Status precheck) {
  Shard& shard = ShardFor(canonical.hash);
  {
    // Hit path: shared lock only. Recency is an atomic stamp, so
    // concurrent hits on one hot α-class never serialize. A failed
    // try_lock_shared means an insert/eviction holds the shard
    // exclusively — count it, then block normally.
    std::shared_lock<std::shared_mutex> lock(shard.mu, std::defer_lock);
    if (!lock.try_lock()) {
      shard.waits.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    auto it = shard.by_key.find(canonical.key);
    if (it != shard.by_key.end()) {
      it->second.last_use.store(NextTick(), std::memory_order_relaxed);
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      if (it->second.plan != nullptr) {
        return it->second.plan;
      }
      shard.negative_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second.error;
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
  }
  // Compile outside the lock: plan compilation can run the rewriter.
  // Failures — a precheck rejection or a compile error — become
  // negative entries under the same key and LRU policy, so repeated
  // malformed traffic skips recompilation.
  std::string key = canonical.key;
  std::shared_ptr<const QueryPlan> plan;
  Status error = Status::OK();
  if (!precheck.ok()) {
    error = std::move(precheck);
  } else {
    Result<std::shared_ptr<const QueryPlan>> compiled =
        QueryPlan::CompileCanonical(std::move(canonical));
    if (compiled.ok()) {
      plan = *compiled;
    } else {
      error = compiled.status();
    }
  }
  // A full symbol space says nothing about the query: cache no negative
  // entry, so the shape compiles once the interner's cap allows it.
  if (error.code() == StatusCode::kResourceExhausted) return error;

  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto [it, inserted] = shard.by_key.try_emplace(std::move(key));
  it->second.last_use.store(NextTick(), std::memory_order_relaxed);
  if (!inserted) {
    // Lost a compile race; adopt the winner so all callers share one
    // instance (and one set of stats). Don't count the loser's own
    // failure as a served negative hit.
    if (it->second.plan != nullptr) return it->second.plan;
    return it->second.error;
  }
  it->second.plan = plan;
  it->second.error = error;
  EvictOverflowLocked(shard);
  // Return the local copies: eviction may have chosen the entry we just
  // inserted (e.g. a fresh negative entry in a shard full of plans).
  if (plan != nullptr) return plan;
  return error;
}

void PlanCache::EvictOverflowLocked(Shard& shard) {
  while (shard.by_key.size() > per_shard_capacity_) {
    // Negative entries are evicted before any compiled plan (least
    // recent first), so a stream of DISTINCT malformed queries can
    // never flush hot plans out of the shard — it only cycles the
    // negative entries. The scan is O(shard size), but eviction only
    // runs on insert overflow — the cold path by construction.
    auto victim = shard.by_key.end();
    bool victim_negative = false;
    uint64_t victim_use = 0;
    for (auto it = shard.by_key.begin(); it != shard.by_key.end(); ++it) {
      bool negative = it->second.plan == nullptr;
      uint64_t use = it->second.last_use.load(std::memory_order_relaxed);
      if (victim == shard.by_key.end() ||
          (negative && !victim_negative) ||
          (negative == victim_negative && use < victim_use)) {
        victim = it;
        victim_negative = negative;
        victim_use = use;
      }
    }
    shard.by_key.erase(victim);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(const Query& q) const {
  Result<CanonicalQuery> canonical = Canonicalize(q);
  if (!canonical.ok()) return nullptr;
  Shard& shard = ShardFor(canonical->hash);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.by_key.find(canonical->key);
  if (it == shard.by_key.end()) return nullptr;
  return it->second.plan;  // null for negative entries.
}

PlanCache::Stats PlanCache::Snapshot() const {
  Stats out;
  out.capacity = per_shard_capacity_ * shards_.size();
  for (const Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    out.hits += shard.hits.load(std::memory_order_relaxed);
    out.misses += shard.misses.load(std::memory_order_relaxed);
    out.evictions += shard.evictions.load(std::memory_order_relaxed);
    out.negative_hits += shard.negative_hits.load(std::memory_order_relaxed);
    out.shard_waits += shard.waits.load(std::memory_order_relaxed);
    out.entries += shard.by_key.size();
    for (const auto& [key, entry] : shard.by_key) {
      (void)key;
      if (entry.plan == nullptr) ++out.negative_entries;
    }
  }
  return out;
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.by_key.clear();
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.evictions.store(0, std::memory_order_relaxed);
    shard.negative_hits.store(0, std::memory_order_relaxed);
    shard.waits.store(0, std::memory_order_relaxed);
  }
}

}  // namespace cqa
