#include "db/schema.h"

#include <sstream>

namespace cqa {

Status Schema::AddRelation(SymbolId name, int arity, int key_arity) {
  if (arity < 0 || key_arity < 0 || key_arity > arity) {
    return Status::InvalidArgument("signature must satisfy n >= k >= 0");
  }
  auto it = signatures_.find(name);
  if (it != signatures_.end()) {
    if (it->second.arity != arity || it->second.key_arity != key_arity) {
      return Status::InvalidArgument("relation '" + SymbolName(name) +
                                     "' re-declared with another signature");
    }
    return Status::OK();
  }
  signatures_.emplace(name, Signature{arity, key_arity});
  order_.push_back(name);
  return Status::OK();
}

Status Schema::AddRelation(std::string_view name, int arity, int key_arity) {
  return AddRelation(InternSymbol(name), arity, key_arity);
}

std::optional<Signature> Schema::Find(SymbolId name) const {
  auto it = signatures_.find(name);
  if (it == signatures_.end()) return std::nullopt;
  return it->second;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  for (SymbolId rel : order_) {
    Signature sig = *Find(rel);
    os << SymbolName(rel) << "[" << sig.arity << "," << sig.key_arity << "]\n";
  }
  return os.str();
}

}  // namespace cqa
