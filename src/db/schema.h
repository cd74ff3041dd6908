#ifndef CQA_DB_SCHEMA_H_
#define CQA_DB_SCHEMA_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/interner.h"
#include "util/status.h"

/// \file
/// A database schema: a finite set of relation names, each with a fixed
/// signature [n, k] where n is the arity and positions 1..k form the
/// primary key (Section 3).

namespace cqa {

/// Signature [n, k] of a relation name.
struct Signature {
  int arity = 0;
  int key_arity = 0;

  bool all_key() const { return arity == key_arity; }
  bool operator==(const Signature& o) const {
    return arity == o.arity && key_arity == o.key_arity;
  }
};

class Schema {
 public:
  /// Registers `name` with signature [arity, key_arity].
  /// Fails if already registered with a different signature, or if the
  /// signature violates n >= k >= 0.
  Status AddRelation(SymbolId name, int arity, int key_arity);
  Status AddRelation(std::string_view name, int arity, int key_arity);

  /// Signature lookup; nullopt when the relation is unknown.
  std::optional<Signature> Find(SymbolId name) const;

  bool Contains(SymbolId name) const { return Find(name).has_value(); }

  /// All registered relation names, in registration order.
  const std::vector<SymbolId>& relations() const { return order_; }

  std::string ToString() const;

 private:
  std::unordered_map<SymbolId, Signature> signatures_;
  std::vector<SymbolId> order_;
};

}  // namespace cqa

#endif  // CQA_DB_SCHEMA_H_
