#ifndef CQA_DB_PURIFY_H_
#define CQA_DB_PURIFY_H_

#include <vector>

#include "cq/query.h"
#include "db/database.h"

/// \file
/// Purification (Lemma 1): a database is *purified* relative to q when
/// every fact lies in some embedding of q; removing the block of a fact
/// that does not preserves membership in CERTAINTY(q).
///
/// `PurifyView` works set-at-a-time over flat lists of fact ids. Each
/// round keeps, per atom, the matching facts of surviving blocks that
/// lie in some embedding: for an acyclic q by a Yannakakis full reducer
/// along the GYO join tree (semijoins up, then down, each probing an
/// open-addressing set of join values; no index, no valuation), for a
/// cyclic q (C(k)) by one `CollectProjectionsSorted` onto the atom's
/// variables. A block holding a fact no atom kept is doomed, that fact
/// its witness, and rounds repeat until none is: irrelevance is monotone
/// under removal, so this is the paper's greatest fixpoint.

namespace cqa {

/// Purification as a view over `db`: nothing is copied.
struct PurifiedView {
  /// kept[b] != 0 iff block b of db.blocks() survives.
  std::vector<char> kept;
  /// One irrelevant fact (an id into db.facts()) per removed block.
  /// Appending these to any repair of the surviving blocks yields a
  /// repair of `db` with the same q-satisfaction (Lemma 1's proof).
  std::vector<int> witnesses;
};

PurifiedView PurifyView(const Database& db, const Query& q);

/// The surviving blocks of PurifyView copied into a database; appends
/// the witness facts to `removed_witnesses` when it is set, to lift
/// falsifying repairs found on the result back to `db`.
Database Purify(const Database& db, const Query& q,
                std::vector<Fact>* removed_witnesses = nullptr);

/// True iff every fact of `db` participates in some embedding of `q`.
bool IsPurified(const Database& db, const Query& q);

}  // namespace cqa

#endif  // CQA_DB_PURIFY_H_
