#ifndef CQA_CQ_CANONICALIZE_H_
#define CQA_CQ_CANONICALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cq/query.h"

/// \file
/// Query canonicalization: a variable-renaming normal form with a
/// deterministic atom ordering. Two Boolean conjunctive queries are
/// α-equivalent (equal up to renaming of variables and reordering of
/// atoms; constants and relation names are identities) iff they
/// canonicalize to the same key — which is what lets the PlanCache share
/// one compiled QueryPlan among α-equivalent queries.
///
/// Construction:
///  1. every atom gets a *structural signature* independent of variable
///     names: (relation name, arity, key arity, per-position skeleton
///     where a constant is itself, a parameter is its position, and a
///     variable is the index of its first occurrence within the atom);
///  2. atoms are sorted by signature. Self-join-free queries have
///     pairwise distinct signatures, so the order is total; with
///     self-joins, tied groups are resolved by trying their permutations
///     (bounded — beyond kMaxTiePermutations the signature order is kept,
///     which can only *miss* sharing, never merge inequivalent queries);
///  3. variables are renamed to #v0, #v1, ... in first-occurrence order
///     over the ordered atoms; parameters to #p0, #p1, ... positionally.
///
/// The key is the exact rendering of the renamed, reordered query, with
/// user-controlled symbols (relation names, constants) length-prefixed
/// so delimiter characters inside a name can never splice two queries
/// onto one rendering — equal keys always imply α-equivalence
/// (soundness is unconditional). Parameterized canonicalizations embed
/// the parameter count, so a Boolean plan and a parameterized plan of
/// the same query never share a key.

namespace cqa {

struct CanonicalQuery {
  /// The canonical form: atoms reordered, variables renamed to #v_i /
  /// #p_i. Solving the canonical query against any database gives the
  /// same answer as the original (Boolean semantics ignore names).
  Query query;
  /// Canonical parameter names, positionally aligned with the `params`
  /// argument of Canonicalize (empty for Boolean canonicalization).
  std::vector<SymbolId> params;
  /// Exact canonical rendering; equal keys <=> shared plan.
  std::string key;
  /// 64-bit FNV-1a of `key` (for sharding and cheap pre-comparison).
  uint64_t hash = 0;
};

/// Canonicalizes a Boolean query. Fails (ResourceExhausted) only when a
/// canonical variable name is new and the interner's cap is reached.
Result<CanonicalQuery> Canonicalize(const Query& q);

/// Canonicalizes a non-Boolean query: the variables in `params` (the
/// free variables, in caller order) are renamed positionally to #p_i, so
/// queries that are α-equivalent *and* bind their parameters in the same
/// positions share a key. `params` must be distinct; variables of
/// `params` that do not occur in q are ignored.
Result<CanonicalQuery> Canonicalize(const Query& q,
                                    const std::vector<SymbolId>& params);

}  // namespace cqa

#endif  // CQA_CQ_CANONICALIZE_H_
