#ifndef CQA_NET_CODEC_H_
#define CQA_NET_CODEC_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cq/query.h"
#include "db/database.h"
#include "net/wire.h"
#include "serve/service.h"
#include "serve/session.h"
#include "util/status.h"

/// \file
/// Payload codecs for every protocol-v1 message: the middle half of the
/// binary protocol (frames live in net/wire.h, the socket loop in
/// net/server.h). The NORMATIVE field tables are docs/PROTOCOL.md §5–6;
/// each `Encode*` / `Decode*` pair here implements exactly one of them.
///
/// Design rules the codecs follow:
///   * symbols travel as strings and are (re)interned on decode —
///     `SymbolId`s never cross a process boundary. A decoder interns
///     only after it has read the whole value, in one batch; past the
///     interner's cap a query, fact, delta, schema or rows decode
///     answers ResourceExhausted;
///   * decoders validate EVERYTHING: every length against the remaining
///     bytes, every enum tag, and that no trailing bytes remain. A
///     malformed payload yields InvalidArgument (never a crash, never
///     an out-of-bounds read) — tests/net_codec_test.cc holds the
///     hostile-input property suite;
///   * decoders return the same structs `cqa::Service` speaks, so the
///     server dispatch is a thin verb switch.

namespace cqa {
namespace net {

// ------------------------------------------------------------- status

/// status := u8 code ++ string message. Codes are the numeric values of
/// `StatusCode` (wire-frozen; docs/PROTOCOL.md §3). An unknown code
/// decodes as kInternal rather than failing, so a newer peer's new
/// error still surfaces as an error.
void EncodeStatus(Writer* w, const Status& status);
Status DecodeStatus(Reader* r);

// ------------------------------------------------------------ symbols

/// Resolves `names` into `*ids` with one interner batch, or
/// ResourceExhausted (interning nothing) when a new name meets the
/// interner's cap. Every decoder resolves its names through it.
Status InternNames(const std::vector<std::string_view>& names,
                   std::vector<SymbolId>* ids);

// ---------------------------------------------------- data structures

/// query := varint natoms ++ atom*; atom := string relation ++
/// varint key_arity ++ varint arity ++ term*; term := u8 tag ++ string.
void EncodeQuery(Writer* w, const Query& q);
/// Structural decode; enforces key_arity <= arity and arity <=
/// kMaxArity per atom.
Result<Query> DecodeQuery(Reader* r);

/// fact := string relation ++ varint key_arity ++ varint arity ++
/// string*arity.
void EncodeFact(Writer* w, const Fact& fact);
Result<Fact> DecodeFact(Reader* r);

/// delta := varint nops ++ op*; op tags: 1 insert, 2 remove,
/// 3 replace_block (docs/PROTOCOL.md §5.4).
void EncodeDelta(Writer* w, const Delta& delta);
Result<Delta> DecodeDelta(Reader* r);

/// database := schema ++ varint nfacts ++ fact*; schema := varint n ++
/// (string name ++ varint arity ++ varint key_arity)*.
void EncodeDatabase(Writer* w, const Database& db);
Result<Database> DecodeDatabase(Reader* r);

/// Contiguous rows [begin, end) borrowed from a whole `Session::RowSet`
/// or from one snapshot `RowPage`: what the row encoder reads.
struct RowRange {
  /* implicit */ RowRange(const Session::RowSet& rows)
      : begin(rows.data()), end(rows.data() + rows.size()) {}
  /* implicit */ RowRange(const RowPage& page)
      : begin(page.begin()), end(page.end()) {}
  const std::vector<SymbolId>* begin;
  const std::vector<SymbolId>* end;
};

/// rows := varint nrows ++ row*; row := varint width ++ string*width.
/// The one row encoder: every reply's rows go through it.
void EncodeRows(Writer* w, RowRange rows);
/// Reads and validates every width and value first, then resolves the
/// whole page with one interner batch: a rejected page interns nothing.
/// ResourceExhausted when a new value meets the interner's cap.
Result<Session::RowSet> DecodeRows(Reader* r);

/// Arity cap applied while decoding atoms, facts and rows: wide enough
/// for any real relation, small enough that a hostile count cannot
/// drive a large allocation before running out of payload bytes.
constexpr uint64_t kMaxArity = 1024;

// ------------------------------------------------- request/response DTOs
//
// Wire-side mirrors of the Service structs. They differ in exactly the
// places process locality forces them to: prepared handles become
// `prepared_id` strings (minted by the server's Prepare), and queries
// travel structurally.

struct HelloRequest {
  uint64_t min_version = kProtocolVersion;
  uint64_t max_version = kProtocolVersion;
  std::string client_name;
};
struct HelloResponse {
  uint64_t version = kProtocolVersion;
  std::string server_name;
  uint64_t max_payload = kMaxPayload;
};

struct CreateDatabaseRequest {
  std::string name;
  Database db;
};

struct NameRequest {  // DropDatabase / OpenStore
  std::string name;
};

struct NameListResponse {  // ListDatabases / ListStores
  std::vector<std::string> names;
};

struct OpenStoreResponse {
  uint64_t epoch = 0;
  uint64_t replayed = 0;
  bool torn_tail_recovered = false;
};

struct PrepareRequest {
  Query query;
  /// Free-variable names (strings; interned server-side).
  std::vector<std::string> free_vars;
  /// Solver override by stable name ("sat", "oracle", ...); empty =
  /// classifier's choice.
  std::string force_solver;
};
struct PrepareResponse {
  /// Server-minted handle id; quote it in Solve / CertainAnswers /
  /// SolveBatch. Opaque. A server that evicted or restarted answers
  /// NotFound for it — re-Prepare and retry.
  std::string prepared_id;
  std::string solver_kind;   // stable SolverKind name
  std::string complexity;    // informational ComplexityClassName
  bool parameterized = false;
};

struct SolveCall {
  std::string database;
  /// Exactly one of prepared_id / query is set (mirrors the Service
  /// contract).
  std::string prepared_id;
  std::optional<Query> query;
};
struct SolveReply {
  bool certain = false;
  std::string solver_kind;
  uint64_t epoch = 0;
};

struct SolveBatchRequest {
  std::vector<SolveCall> calls;
};
/// Per-item status + reply, positionally aligned with the request.
struct SolveBatchResponse {
  std::vector<std::pair<Status, SolveReply>> items;
};

struct CertainAnswersCall {
  std::string database;
  std::string prepared_id;
  std::optional<Query> query;
  std::vector<std::string> free_vars;
  uint64_t page_size = 0;
  std::string page_token;
};
struct CertainAnswersReply {
  Session::RowSet rows;
  std::string next_page_token;
  uint64_t total_rows = 0;
  uint64_t epoch = 0;
};

struct ApplyDeltaCall {
  std::string database;
  Delta delta;
};
struct ApplyDeltaReply {
  uint64_t epoch = 0;
};

struct StatsCall {
  std::string database;  // empty = aggregate
};
/// stats := varint n ++ (string key ++ varint value)*. Keys are the
/// flattened counter names of `Service::StatsResponse`
/// (docs/PROTOCOL.md §6.9); receivers MUST ignore unknown keys, which
/// is what lets the counter set grow without a version bump.
struct StatsReply {
  std::map<std::string, uint64_t> counters;
};

struct MetricsReply {
  /// Prometheus text exposition (net/metrics.h renders it).
  std::string text;
};

// ------------------------------------------------------ encode/decode
//
// One pair per message. Decoders consume the WHOLE reader and fail on
// trailing bytes.

void EncodeHelloRequest(Writer* w, const HelloRequest& m);
Result<HelloRequest> DecodeHelloRequest(Reader* r);
void EncodeHelloResponse(Writer* w, const HelloResponse& m);
Result<HelloResponse> DecodeHelloResponse(Reader* r);

void EncodeCreateDatabaseRequest(Writer* w, const CreateDatabaseRequest& m);
Result<CreateDatabaseRequest> DecodeCreateDatabaseRequest(Reader* r);

void EncodeNameRequest(Writer* w, const NameRequest& m);
Result<NameRequest> DecodeNameRequest(Reader* r);

void EncodeNameListResponse(Writer* w, const NameListResponse& m);
Result<NameListResponse> DecodeNameListResponse(Reader* r);

void EncodeOpenStoreResponse(Writer* w, const OpenStoreResponse& m);
Result<OpenStoreResponse> DecodeOpenStoreResponse(Reader* r);

void EncodePrepareRequest(Writer* w, const PrepareRequest& m);
Result<PrepareRequest> DecodePrepareRequest(Reader* r);
void EncodePrepareResponse(Writer* w, const PrepareResponse& m);
Result<PrepareResponse> DecodePrepareResponse(Reader* r);

void EncodeSolveCall(Writer* w, const SolveCall& m);
Result<SolveCall> DecodeSolveCall(Reader* r);
void EncodeSolveReply(Writer* w, const SolveReply& m);
Result<SolveReply> DecodeSolveReply(Reader* r);

void EncodeSolveBatchRequest(Writer* w, const SolveBatchRequest& m);
Result<SolveBatchRequest> DecodeSolveBatchRequest(Reader* r);
void EncodeSolveBatchResponse(Writer* w, const SolveBatchResponse& m);
Result<SolveBatchResponse> DecodeSolveBatchResponse(Reader* r);

void EncodeCertainAnswersCall(Writer* w, const CertainAnswersCall& m);
Result<CertainAnswersCall> DecodeCertainAnswersCall(Reader* r);
void EncodeCertainAnswersReply(Writer* w, const CertainAnswersReply& m);
/// The server's page path: the same bytes as EncodeCertainAnswersReply,
/// with the rows encoded straight from the response's snapshot page.
void EncodeCertainAnswersResponse(Writer* w,
                                  const Service::CertainAnswersResponse& m);
Result<CertainAnswersReply> DecodeCertainAnswersReply(Reader* r);

void EncodeApplyDeltaCall(Writer* w, const ApplyDeltaCall& m);
Result<ApplyDeltaCall> DecodeApplyDeltaCall(Reader* r);
void EncodeApplyDeltaReply(Writer* w, const ApplyDeltaReply& m);
Result<ApplyDeltaReply> DecodeApplyDeltaReply(Reader* r);

void EncodeStatsCall(Writer* w, const StatsCall& m);
Result<StatsCall> DecodeStatsCall(Reader* r);
void EncodeStatsReply(Writer* w, const StatsReply& m);
Result<StatsReply> DecodeStatsReply(Reader* r);

void EncodeMetricsReply(Writer* w, const MetricsReply& m);
Result<MetricsReply> DecodeMetricsReply(Reader* r);

/// Flattens a Service stats snapshot into the wire counter map
/// (shared by the kStats verb and the metrics renderer, so the two
/// exports can never disagree on a counter's name).
std::map<std::string, uint64_t> FlattenStats(
    const Service::StatsResponse& stats);

}  // namespace net
}  // namespace cqa

#endif  // CQA_NET_CODEC_H_
