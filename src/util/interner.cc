#include "util/interner.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <vector>

namespace cqa {

Interner::Interner(size_t max_symbols) {
  set_max_symbols(max_symbols);
  // Reserve id 0 for the empty symbol so that 0 can double as "no symbol".
  Intern("");
  lookups_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

Interner::~Interner() {
  size_t n = size_.load(std::memory_order_acquire);
  size_t num_blocks = (n + kBlockSize - 1) / kBlockSize;
  for (size_t b = 0; b < num_blocks; ++b) {
    delete[] blocks_[b].load(std::memory_order_acquire);
  }
}

void Interner::set_max_symbols(size_t max_symbols) {
  // At least the reserved empty symbol; at most the block directory.
  max_symbols_.store(
      std::clamp<size_t>(max_symbols, 1, kMaxBlocks * kBlockSize),
      std::memory_order_relaxed);
}

size_t Interner::ShardIndex(std::string_view s) const {
  // hash>>16 decorrelates from any map-internal use of the low bits.
  return (std::hash<std::string_view>{}(s) >> 16) % kShards;
}

SymbolId Interner::AppendLocked(std::string_view s) {
  size_t n = size_.load(std::memory_order_relaxed);
  size_t block = n >> kBlockBits;
  size_t slot = n & (kBlockSize - 1);
  assert(block < kMaxBlocks && "caller skipped the cap check");
  std::string* storage = blocks_[block].load(std::memory_order_relaxed);
  if (storage == nullptr) {
    storage = new std::string[kBlockSize];
    blocks_[block].store(storage, std::memory_order_release);
  }
  storage[slot].assign(s.data(), s.size());
  // Release-publish AFTER the string is fully written: a reader that
  // acquires size_ > n sees the completed string.
  size_.store(n + 1, std::memory_order_release);
  return static_cast<SymbolId>(n);
}

SymbolId Interner::ProbeLocked(const Shard& shard, std::string_view s) {
  auto it = shard.ids.find(s);
  return it == shard.ids.end() ? kUnresolved : it->second;
}

SymbolId Interner::InsertMiss(Shard& shard, std::string_view s) {
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  SymbolId id = ProbeLocked(shard, s);
  if (id != kUnresolved) return id;
  {
    // Appends across shards serialize here; that is fine — interning a
    // NEW string is the cold path (query vocabulary, not per-row work).
    std::lock_guard<std::mutex> append_lock(append_mu_);
    if (size_.load(std::memory_order_relaxed) >=
        max_symbols_.load(std::memory_order_relaxed)) {
      return kUnresolved;  // Fail closed: the cap is reached.
    }
    id = AppendLocked(s);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Key the map by the stable storage copy, not the caller's view.
  shard.ids.emplace(std::string_view(Lookup(id)), id);
  return id;
}

bool Interner::InternBatch(const std::string_view* names, size_t n,
                           SymbolId* out) {
  // Bucket the positions by shard (a counting sort), so each touched
  // shard's shared lock is taken once for the whole batch.
  thread_local std::vector<uint8_t> shard_of;
  thread_local std::vector<uint32_t> order;
  shard_of.resize(n);
  order.resize(n);
  std::array<size_t, kShards + 1> start{};
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = static_cast<uint8_t>(ShardIndex(names[i]));
    ++start[shard_of[i] + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::array<size_t, kShards + 1> fill = start;
  for (size_t i = 0; i < n; ++i) {
    order[fill[shard_of[i]]++] = static_cast<uint32_t>(i);
  }

  bool ok = true;
  for (size_t k = 0; k < kShards; ++k) {
    if (start[k] == start[k + 1]) continue;
    Shard& shard = shards_[k];
    bool missed = false;
    {
      std::shared_lock<std::shared_mutex> lock(shard.mu);
      for (size_t j = start[k]; j < start[k + 1]; ++j) {
        out[order[j]] = ProbeLocked(shard, names[order[j]]);
        missed |= out[order[j]] == kUnresolved;
      }
    }
    for (size_t j = start[k]; missed && j < start[k + 1]; ++j) {
      SymbolId& id = out[order[j]];
      if (id == kUnresolved) id = InsertMiss(shard, names[order[j]]);
      ok &= id != kUnresolved;
    }
  }
  lookups_.fetch_add(n, std::memory_order_relaxed);
  return ok;
}

std::optional<SymbolId> Interner::TryIntern(std::string_view s) {
  // The batch of one, without the grouping: one shared lock, one add.
  Shard& shard = shards_[ShardIndex(s)];
  SymbolId id;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    id = ProbeLocked(shard, s);
  }
  if (id == kUnresolved) id = InsertMiss(shard, s);
  lookups_.fetch_add(1, std::memory_order_relaxed);
  if (id == kUnresolved) return std::nullopt;
  return id;
}

SymbolId Interner::Intern(std::string_view s) {
  std::optional<SymbolId> id = TryIntern(s);
  if (!id.has_value()) {
    std::fprintf(stderr,
                 "cqa: symbol space exhausted (%zu symbols, cap %zu); "
                 "cannot intern a new symbol\n",
                 size(), max_symbols());
    std::abort();
  }
  return *id;
}

const std::string& Interner::Lookup(SymbolId id) const {
  assert(id < size_.load(std::memory_order_acquire));
  const std::string* storage =
      blocks_[id >> kBlockBits].load(std::memory_order_acquire);
  return storage[id & (kBlockSize - 1)];
}

Interner::Stats Interner::stats() const {
  Stats out;
  out.lookups = lookups_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.symbols = size();
  return out;
}

Interner& GlobalInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

SymbolId InternSymbol(std::string_view s) {
  return GlobalInterner().Intern(s);
}

const std::string& SymbolName(SymbolId id) {
  return GlobalInterner().Lookup(id);
}

}  // namespace cqa
