#ifndef WIREBENCH_TENANTS_H_
#define WIREBENCH_TENANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "db/fact.h"
#include "util/interner.h"

/// \file
/// The benchmark's inputs, all generated from the run seed with the
/// library's own generators (src/gen) and named queries (cq/corpus).
/// Sizes are fixed; the seed only changes the contents, so runs on
/// different seeds do the same amount of work.

namespace wirebench {

/// point_mix: a few hundred facts over R(x | y), S(y | z), T(z | w)
/// with conflicted and clean blocks in every relation, plus 1024
/// retained ingest facts in R.
struct PointMixData {
  cqa::Database db;
  /// Boolean FO queries served through prepared handles.
  std::vector<cqa::Query> prepared;
  /// Boolean FO queries sent ad hoc; `adhoc[i][v]` is α-variant v of
  /// base query i, so every variant resolves to one cached plan.
  std::vector<std::vector<cqa::Query>> adhoc;
  /// The certain-answer stream: S(y | z), T(z | w) projected on y.
  cqa::Query stream_query;
  std::string stream_free_var;
  /// Values a fresh-key R insert may point at.
  std::vector<std::string> r_values;
  /// Earlier ingest still retained: R facts under their own keys, also
  /// in `db`. Each delta inserts one fact and retires the oldest.
  std::vector<cqa::Fact> ingested;
};
PointMixData MakePointMix(uint64_t seed);

/// answer_stream: 12k R blocks (every 7th conflicted) over
/// R(x | y), S(y | z), plus the S blocks the writer deletes and
/// restores.
struct AnswerStreamData {
  cqa::Database db;
  cqa::Query query;
  std::string free_var;
  /// The S blocks the writer flips, each with its facts. Every one is
  /// referenced by some R fact, so deleting it changes the answers.
  std::vector<std::vector<cqa::Fact>> flip_blocks;
};
AnswerStreamData MakeAnswerStream(uint64_t seed);

/// frontier_decide: read-only tenants for each region of the frontier,
/// kFrontierInstances per region. Decision times vary with the random
/// instance; averaging over three keeps a run's mean steady across
/// seeds.
constexpr uint64_t kFrontierInstances = 3;
struct FrontierTenant {
  /// Tenant name: the region ("fo", "thm3", "ck", "ack", "conp") and
  /// the instance number.
  std::string name;
  /// Child span (and per-layer metric stem) of the solver it runs.
  std::string solver_span;
  cqa::Database db;
  cqa::Query query;
};
std::vector<FrontierTenant> MakeFrontier(uint64_t seed);

/// The reference certain answers of the path query
/// first(x | y), second(y | z) projected on x: x is certain iff its
/// `first` block is non-empty and every y it points at keys a
/// non-empty `second` block. `removed` keys are treated as absent
/// `second` blocks. Sorted by symbol id, the order rows travel in.
std::vector<cqa::SymbolId> PathCertainAnswers(
    const cqa::Database& db, cqa::SymbolId first, cqa::SymbolId second,
    const std::vector<cqa::SymbolId>& removed = {});

}  // namespace wirebench

#endif  // WIREBENCH_TENANTS_H_
