#include "cq/canonicalize.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace cqa {

namespace {

/// Cap on the number of atom orderings tried when structural signatures
/// tie (only possible with self-joins). 7! — generous for real queries;
/// beyond it the signature order is kept, which can only miss sharing.
constexpr uint64_t kMaxTiePermutations = 5040;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Appends a user-controlled symbol (relation name or constant)
/// length-prefixed, so names containing the rendering's own delimiters
/// (quotes, commas, parens) can never make two different queries render
/// the same key.
void AppendSymbol(std::string* out, SymbolId id) {
  const std::string& name = SymbolName(id);
  *out += std::to_string(name.size());
  *out += ':';
  *out += name;
}

/// Variable-name-independent per-atom signature used for the primary
/// atom order. Relation identity goes through the symbol *name* so the
/// order does not depend on interning order.
std::string AtomSignature(const Atom& atom,
                          const std::map<SymbolId, int>& param_pos) {
  std::string sig;
  AppendSymbol(&sig, atom.relation());
  sig += '/';
  sig += std::to_string(atom.arity());
  sig += '|';
  sig += std::to_string(atom.key_arity());
  std::map<SymbolId, int> local;
  for (const Term& t : atom.terms()) {
    sig += ',';
    if (t.is_const()) {
      sig += '\'';
      AppendSymbol(&sig, t.id());
    } else if (param_pos.count(t.id())) {
      sig += 'p';
      sig += std::to_string(param_pos.at(t.id()));
    } else {
      auto [it, inserted] =
          local.emplace(t.id(), static_cast<int>(local.size()));
      sig += 'v';
      sig += std::to_string(it->second);
    }
  }
  return sig;
}

/// The interned names #v0, #v1, ... and #p0, #p1, ...
struct CanonicalNames {
  std::vector<SymbolId> vars;
  std::vector<SymbolId> params;
};

/// Renders the query in the given atom order with variables renamed in
/// first-occurrence order (#v0, #v1, ...) and parameters positionally
/// (#p0, ...). Returns the key; when `names` is set, also fills
/// `renamed` with the canonical atoms.
std::string RenderOrdering(const Query& q, const std::vector<int>& order,
                           const std::map<SymbolId, int>& param_pos,
                           const CanonicalNames* names = nullptr,
                           std::vector<Atom>* renamed = nullptr) {
  std::map<SymbolId, size_t> var_index;  // original var -> #v index
  std::string key;
  if (renamed != nullptr) renamed->clear();
  for (int ai : order) {
    const Atom& atom = q.atom(ai);
    if (!key.empty()) key += ';';
    AppendSymbol(&key, atom.relation());
    key += '(';
    if (atom.key_arity() == 0) key += '|';
    std::vector<Term> terms;
    if (renamed != nullptr) terms.reserve(atom.terms().size());
    for (int i = 0; i < atom.arity(); ++i) {
      const Term& t = atom.terms()[i];
      if (i > 0) key += i == atom.key_arity() ? '|' : ',';
      if (t.is_const()) {
        key += '\'';
        AppendSymbol(&key, t.id());
        if (renamed != nullptr) terms.push_back(t);
      } else {
        auto pit = param_pos.find(t.id());
        bool param = pit != param_pos.end();
        size_t index = param ? pit->second
                             : var_index.emplace(t.id(), var_index.size())
                                   .first->second;
        key += param ? "#p" : "#v";
        key += std::to_string(index);
        if (renamed != nullptr) {
          terms.push_back(Term::Var(param ? names->params[index]
                                          : names->vars[index]));
        }
      }
    }
    key += ')';
    if (renamed != nullptr) {
      renamed->emplace_back(atom.relation(), std::move(terms),
                            atom.key_arity());
    }
  }
  return key;
}

}  // namespace

Result<CanonicalQuery> Canonicalize(const Query& q) {
  return Canonicalize(q, {});
}

Result<CanonicalQuery> Canonicalize(const Query& q,
                                    const std::vector<SymbolId>& params) {
  std::map<SymbolId, int> param_pos;
  for (size_t i = 0; i < params.size(); ++i) {
    param_pos.emplace(params[i], static_cast<int>(i));
  }

  // Primary order: sort atom indices by structural signature.
  std::vector<std::string> sigs;
  sigs.reserve(q.size());
  for (const Atom& atom : q.atoms()) {
    sigs.push_back(AtomSignature(atom, param_pos));
  }
  std::vector<int> order(q.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return sigs[a] < sigs[b]; });

  // Tie groups (equal signatures — requires a self-join) are resolved by
  // trying their permutations and keeping the lexicographically smallest
  // rendering, so the result is independent of the input atom order.
  std::vector<std::pair<int, int>> groups;  // [begin, end) into `order`
  uint64_t permutations = 1;
  for (int i = 0; i < static_cast<int>(order.size());) {
    int j = i + 1;
    while (j < static_cast<int>(order.size()) &&
           sigs[order[j]] == sigs[order[i]]) {
      ++j;
    }
    if (j - i > 1) {
      groups.emplace_back(i, j);
      for (int f = 2; f <= j - i && permutations <= kMaxTiePermutations;
           ++f) {
        permutations *= f;
      }
    }
    i = j;
  }

  std::string best_key = RenderOrdering(q, order, param_pos);
  std::vector<int> best_order = order;
  if (!groups.empty() && permutations <= kMaxTiePermutations) {
    // Enumerate the cartesian product of group permutations via
    // odometer-style std::next_permutation on each tied slice.
    std::vector<int> candidate = order;
    for (auto& [b, e] : groups) {
      std::sort(candidate.begin() + b, candidate.begin() + e);
    }
    while (true) {
      std::string key = RenderOrdering(q, candidate, param_pos);
      if (key < best_key) {
        best_key = key;
        best_order = candidate;
      }
      // Advance the odometer.
      size_t g = 0;
      for (; g < groups.size(); ++g) {
        auto [b, e] = groups[g];
        if (std::next_permutation(candidate.begin() + b,
                                  candidate.begin() + e)) {
          break;
        }
        // Wrapped to sorted order; carry into the next group.
      }
      if (g == groups.size()) break;
    }
  }

  // The canonical names are interned once per call, not per occurrence,
  // and before any atom is built, so a name the interner's cap refuses
  // fails the call cleanly.
  CanonicalNames names;
  size_t free_vars = 0;
  for (SymbolId v : q.Vars()) free_vars += param_pos.count(v) == 0;
  for (size_t i = 0; i < free_vars + params.size(); ++i) {
    bool param = i >= free_vars;
    Result<SymbolId> name = TryInternSymbol(
        param ? "#p" + std::to_string(i - free_vars)
              : "#v" + std::to_string(i));
    if (!name.ok()) return name.status();
    (param ? names.params : names.vars).push_back(*name);
  }

  CanonicalQuery out;
  std::vector<Atom> atoms;
  out.key = RenderOrdering(q, best_order, param_pos, &names, &atoms);
  if (!params.empty()) {
    // The parameter count must live in the key: a parameter that does
    // not occur in q leaves the atoms unchanged, and a Boolean plan and
    // a parameterized plan of the same query must never share a cache
    // entry (they have different evaluation protocols).
    out.key = "params=" + std::to_string(params.size()) + ";" + out.key;
  }
  out.query = Query(std::move(atoms));
  out.hash = Fnv1a(out.key);
  out.params = std::move(names.params);
  return out;
}

}  // namespace cqa
