#ifndef CQA_UTIL_INTERNER_H_
#define CQA_UTIL_INTERNER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/status.h"

/// \file
/// Global string interning. Constants, variables and relation names are
/// represented as dense 32-bit ids so the hot joins/closures never touch
/// strings.

namespace cqa {

/// Dense id for an interned string. Id 0 is reserved for "the empty symbol".
using SymbolId = uint32_t;

/// A bidirectional string <-> id table built for read-mostly traffic
/// from many serving workers at once.
///
/// The id -> string direction (`Lookup`) is LOCK-FREE: interned strings
/// are append-only and immutable, stored in fixed-size heap blocks whose
/// pointers live in an atomic block directory, and `size_` is published
/// with release ordering only after the string is fully constructed. A
/// reader that acquires `size_` (or holds any id it obtained earlier)
/// therefore sees a completed string, and the reference stays valid
/// forever — blocks are never moved or freed while the interner lives.
///
/// The string -> id direction is sharded: the string's hash picks one of
/// `kShards` independent `shared_mutex`-protected maps. `InternBatch`
/// resolves a whole batch (a wire page, a fact) with one shared lock per
/// touched shard and one counter add, not one of each per value;
/// `Intern` shares its probe and miss path.
///
/// The symbol space is capped at `max_symbols()` (default half the 2^24
/// block directory). Past the cap the interner fails closed: nothing new
/// is appended, `InternBatch`/`TryIntern` report failure (the wire
/// decoders answer kResourceExhausted) and `Intern`, whose callers
/// cannot fail, stops the process with a message.
class Interner {
 public:
  static constexpr size_t kDefaultMaxSymbols = size_t{1} << 23;

  explicit Interner(size_t max_symbols = kDefaultMaxSymbols);
  ~Interner();

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the id for `s`, interning it on first use. Stops the
  /// process with a message when `s` is new and the cap is reached.
  SymbolId Intern(std::string_view s);

  /// Returns the id for `s`, interning it on first use; nullopt when `s`
  /// is new and the cap is reached.
  std::optional<SymbolId> TryIntern(std::string_view s);

  /// Resolves names[0, n) into out[0, n), interning the new ones. False
  /// when the cap refused a new name (`out` is then unspecified).
  bool InternBatch(const std::string_view* names, size_t n, SymbolId* out);

  /// Returns the string for `id`. `id` must have been produced by
  /// Intern. Lock-free.
  const std::string& Lookup(SymbolId id) const;

  /// Number of interned symbols (including the reserved empty symbol).
  /// Lock-free.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// The cap on size(), clamped to the block directory; lowering it
  /// below size() only stops growth.
  size_t max_symbols() const {
    return max_symbols_.load(std::memory_order_relaxed);
  }
  void set_max_symbols(size_t max_symbols);

  struct Stats {
    /// Names resolved string -> id, by Intern and InternBatch alike
    /// (id -> string lookups are lock-free and uncounted — counting
    /// them would reintroduce a shared cache line on the path the
    /// design exists to keep contention-free).
    uint64_t lookups = 0;
    /// Names that had to take a shard's exclusive lock and append
    /// (first sight of a string).
    uint64_t misses = 0;
    /// == size().
    size_t symbols = 0;
  };
  Stats stats() const;

 private:
  static constexpr int kShardBits = 4;
  static constexpr size_t kShards = 1u << kShardBits;  // 16
  static constexpr int kBlockBits = 12;
  static constexpr size_t kBlockSize = 1u << kBlockBits;  // 4096 strings
  /// 4096 blocks x 4096 strings = 2^24 symbols, the bound of the cap.
  static constexpr size_t kMaxBlocks = 4096;
  static constexpr SymbolId kUnresolved = ~SymbolId{0};

  struct Shard {
    mutable std::shared_mutex mu;
    /// Keys view into the block storage (stable addresses), so the map
    /// never copies the string twice.
    std::unordered_map<std::string_view, SymbolId> ids;
  };

  size_t ShardIndex(std::string_view s) const;
  /// The one probe: `s`'s id, or kUnresolved. Caller holds `shard.mu`.
  static SymbolId ProbeLocked(const Shard& shard, std::string_view s);
  /// The one miss path: re-probes `s` under the shard's exclusive lock
  /// and appends it if still absent; kUnresolved past the cap.
  SymbolId InsertMiss(Shard& shard, std::string_view s);
  /// Appends `s` to block storage and publishes the new size. Caller
  /// holds `append_mu_` and has checked the cap.
  SymbolId AppendLocked(std::string_view s);

  mutable std::array<Shard, kShards> shards_;

  /// Serializes appends (block allocation + slot construction). Readers
  /// never take it.
  std::mutex append_mu_;
  std::atomic<size_t> size_{0};
  std::atomic<size_t> max_symbols_;
  std::array<std::atomic<std::string*>, kMaxBlocks> blocks_{};

  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint64_t> misses_{0};
};

/// Process-wide interner used by parsers and printers.
Interner& GlobalInterner();

/// Convenience wrappers over the global interner.
SymbolId InternSymbol(std::string_view s);

/// InternSymbol for names the library mints (fresh, canonical variables):
/// ResourceExhausted, not a stopped process, past the cap.
Result<SymbolId> TryInternSymbol(std::string_view s);
const std::string& SymbolName(SymbolId id);

}  // namespace cqa

#endif  // CQA_UTIL_INTERNER_H_
