#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <thread>

#include "core/classifier.h"
#include "cq/matcher.h"
#include "cq/valuation.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "plan/plan_cache.h"
#include "plan/query_plan.h"
#include "serve/service.h"
#include "serve/session.h"
#include "solvers/solver.h"
#include "store/io.h"
#include "store/store.h"
#include "tenants.h"
#include "util/rng.h"

namespace wirebench {

using cqa::Database;
using cqa::Delta;
using cqa::Fact;
using cqa::PreparedQueryHandle;
using cqa::Query;
using cqa::Result;
using cqa::Service;
using cqa::Status;
using cqa::SymbolId;
namespace net = cqa::net;

namespace {

constexpr const char* kMissingDatabase = "no-such-tenant";

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------ twins

/// In-process copy of one served tenant for the traced pass: a twin
/// `Database` deltas are applied to with ApplyDeltaToDatabase, and for
/// durable tenants a twin `DbStore` with the served store's options.
struct TwinTenant {
  std::shared_mutex mu;
  Database db;
  std::unique_ptr<cqa::store::DbStore> store;
  uint64_t store_epoch = 0;
};

/// Everything the traced pass calls into besides the wire: a twin
/// `Service` holding the same tenants, a warm `PlanCache`, and the twin
/// tenants. No write the workload sends is applied twice to one of
/// them, and none reaches the served tenant.
struct Twin {
  std::unique_ptr<Service> service;
  cqa::PlanCache plan_cache;
  std::map<std::string, std::unique_ptr<TwinTenant>> tenants;

  TwinTenant& tenant(const std::string& name) { return *tenants.at(name); }
};

// ------------------------------------------------------- connections

/// What one connection counted. Merged after the window.
struct Tally {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  bool wrong = false;
  std::string first_error;
  /// End-to-end samples (solve_us, delta_us, first_page_us, stream_ms)
  /// and completed requests, per one-second slice of the window.
  std::map<std::string, std::vector<Samples>> sliced;
  std::vector<double> completed_per_slice;
  /// Per-layer counts (traced pass).
  std::map<std::string, double> counts;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  void Wrong(const std::string& what) {
    wrong = true;
    Fail("wrong answer: " + what);
  }
};

struct Conn {
  int index = 0;
  net::Client client;
  Tally tally;
  /// Traced pass only.
  std::unique_ptr<Tracer> tracer;
  Twin* twin = nullptr;
  cqa::Rng rng{1};
  uint64_t step = 0;
  /// Warm-up requests are neither counted nor checked.
  bool warm_up = false;
  int refuse_every = 0;
  Clock::time_point window_start;

  size_t Slice() const {
    return static_cast<size_t>(
        std::chrono::duration<double>(Clock::now() - window_start).count());
  }
  /// Records a latency sample of a checked request.
  void Record(const std::string& name, double value) {
    std::vector<Samples>& slices = tally.sliced[name];
    size_t slice = Slice();
    if (slices.size() <= slice) slices.resize(slice + 1);
    slices[slice].Add(value);
  }

  /// The database the next request goes to (see RunConfig::refuse_every).
  std::string Target(const std::string& database) {
    if (refuse_every > 0 && !warm_up &&
        (tally.attempted + 1) % static_cast<uint64_t>(refuse_every) == 0) {
      return kMissingDatabase;
    }
    return database;
  }
  /// Counts a finished wire request; false when it failed (the failure
  /// is counted).
  bool Finish(const Status& status, const char* verb) {
    if (warm_up) return status.ok();
    ++tally.attempted;
    if (!status.ok()) {
      tally.Fail(std::string(verb) + ": " + status.ToString());
      return false;
    }
    ++tally.completed;
    size_t slice = Slice();
    if (tally.completed_per_slice.size() <= slice) {
      tally.completed_per_slice.resize(slice + 1);
    }
    ++tally.completed_per_slice[slice];
    return true;
  }
};

/// Runs the twin call in `fn` as a child span when tracing.
template <typename Fn>
void Probe(Conn& c, const char* name, Fn&& fn) {
  if (c.tracer != nullptr) c.tracer->Child(name, std::forward<Fn>(fn));
}

// ------------------------------------------------------------ solves

struct SolveSpec {
  std::string database;
  /// Server-minted handle, or empty for an ad-hoc query.
  std::string prepared_id;
  /// The twin's handle for the same query (traced pass, prepared only).
  PreparedQueryHandle twin_handle;
  const Query* query = nullptr;
  bool expected = false;
  /// Child span of the solver the plan runs.
  const char* solver_span = "solvers.fo_decide";
};

void SolveProbes(Conn& c, const SolveSpec& s, const net::SolveCall& call,
                 const net::SolveReply& reply) {
  Twin& twin = *c.twin;
  Probe(c, "serve.service_solve", [&] {
    Service::SolveRequest request;
    request.database = s.database;
    if (s.twin_handle != nullptr) {
      request.prepared = s.twin_handle;
    } else {
      request.query = *s.query;
    }
    return twin.service->Solve(request).ok();
  });
  std::string call_bytes;
  std::string reply_bytes;
  Probe(c, "net.codec_encode", [&] {
    net::Writer cw(&call_bytes);
    net::EncodeSolveCall(&cw, call);
    net::Writer rw(&reply_bytes);
    net::EncodeSolveReply(&rw, reply);
  });
  Probe(c, "net.codec_decode", [&] {
    net::Reader cr(call_bytes);
    net::Reader rr(reply_bytes);
    return net::DecodeSolveCall(&cr).ok() && net::DecodeSolveReply(&rr).ok();
  });
  Result<std::shared_ptr<const cqa::QueryPlan>> plan =
      c.tracer->Child("plan.get_or_compile_hit",
                      [&] { return twin.plan_cache.GetOrCompile(*s.query); });
  Probe(c, "plan.compile",
        [&] { return cqa::QueryPlan::Compile(*s.query).ok(); });
  Probe(c, "core.classify",
        [&] { return cqa::ClassifyQuery(*s.query).ok(); });
  if (!plan.ok()) return;
  TwinTenant& tenant = twin.tenant(s.database);
  std::shared_lock<std::shared_mutex> lock(tenant.mu);
  cqa::EvalContext ctx(tenant.db);
  Probe(c, "cq.index_build", [&] { ctx.fact_index(); });
  Result<cqa::SolveOutcome> outcome =
      c.tracer->Child(s.solver_span, [&] { return (*plan)->Solve(ctx); });
  if (outcome.ok() && outcome->solver == cqa::SolverKind::kSat) {
    c.tally.counts["solvers.sat_calls"] += 1;
    c.tally.counts["solvers.sat_decisions"] += outcome->sat_decisions;
    c.tally.counts["solvers.sat_clauses"] += outcome->sat_clauses;
  }
}

void IssueSolve(Conn& c, const SolveSpec& s) {
  net::SolveCall call;
  call.database = c.Target(s.database);
  if (!s.prepared_id.empty()) {
    call.prepared_id = s.prepared_id;
  } else {
    call.query = *s.query;
  }
  if (c.tracer != nullptr) c.tracer->BeginRoot("solve");
  Clock::time_point t0 = Clock::now();
  Result<net::SolveReply> reply = c.client.Solve(call);
  Clock::time_point t1 = Clock::now();
  double us = Micros(t0, t1);
  if (c.Finish(reply.status(), "solve") && !c.warm_up) {
    c.Record("solve_us", us);
    if (reply->certain != s.expected) {
      c.tally.Wrong("solve on " + s.database + " answered " +
                    (reply->certain ? "certain" : "not certain"));
    }
  }
  if (c.tracer != nullptr) {
    c.tracer->AddChild("wire", t0, t1);
    if (reply.ok()) SolveProbes(c, s, call, *reply);
    c.tracer->EndRoot();
  }
}

// ------------------------------------------------------------ deltas

void DeltaProbes(Conn& c, const std::string& database,
                 const net::ApplyDeltaCall& call,
                 const net::ApplyDeltaReply& reply) {
  Twin& twin = *c.twin;
  Probe(c, "serve.service_delta", [&] {
    Service::DeltaRequest request;
    request.database = database;
    request.delta = call.delta;
    return twin.service->ApplyDelta(request).ok();
  });
  std::string call_bytes;
  std::string reply_bytes;
  Probe(c, "net.codec_encode", [&] {
    net::Writer cw(&call_bytes);
    net::EncodeApplyDeltaCall(&cw, call);
    net::Writer rw(&reply_bytes);
    net::EncodeApplyDeltaReply(&rw, reply);
  });
  Probe(c, "net.codec_decode", [&] {
    net::Reader cr(call_bytes);
    net::Reader rr(reply_bytes);
    return net::DecodeApplyDeltaCall(&cr).ok() &&
           net::DecodeApplyDeltaReply(&rr).ok();
  });
  TwinTenant& tenant = twin.tenant(database);
  std::unique_lock<std::shared_mutex> lock(tenant.mu);
  if (tenant.store != nullptr) {
    std::string delta_bytes;
    net::Writer dw(&delta_bytes);
    net::EncodeDelta(&dw, call.delta);
    c.tally.counts["store.delta_bytes"] += delta_bytes.size();
    uint64_t epoch = ++tenant.store_epoch;
    Probe(c, "store.append",
          [&] { return tenant.store->AppendDelta(call.delta, epoch).ok(); });
  }
  Probe(c, "db.apply", [&] {
    return cqa::ApplyDeltaToDatabase(call.delta, &tenant.db).ok();
  });
}

/// Sends `delta`; returns the epoch it committed as, or nullopt.
std::optional<uint64_t> IssueDelta(Conn& c, const std::string& database,
                                   const Delta& delta) {
  net::ApplyDeltaCall call;
  call.database = c.Target(database);
  call.delta = delta;
  if (c.tracer != nullptr) c.tracer->BeginRoot("delta");
  Clock::time_point t0 = Clock::now();
  Result<net::ApplyDeltaReply> reply = c.client.ApplyDelta(call);
  Clock::time_point t1 = Clock::now();
  double us = Micros(t0, t1);
  bool ok = c.Finish(reply.status(), "apply_delta");
  if (ok && !c.warm_up) c.Record("delta_us", us);
  if (c.tracer != nullptr) {
    c.tracer->AddChild("wire", t0, t1);
    if (reply.ok()) DeltaProbes(c, database, call, *reply);
    c.tracer->EndRoot();
  }
  if (!reply.ok()) return std::nullopt;
  return reply->epoch;
}

// ----------------------------------------------------------- streams

struct StreamSpec {
  std::string database;
  std::string prepared_id;
  PreparedQueryHandle twin_handle;
  const Query* query = nullptr;
  std::vector<SymbolId> free_vars;
  uint64_t page_size = 0;
  /// False: only the first page is requested.
  bool whole = false;
};

struct StreamResult {
  cqa::Session::RowSet rows;
  uint64_t epoch = 0;
  uint64_t total_rows = 0;
};

/// Enumerates and decides the candidates of the stream's query on the
/// twin tenant (first page only).
void StreamComputeProbes(Conn& c, const StreamSpec& s) {
  Twin& twin = *c.twin;
  Result<std::shared_ptr<const cqa::QueryPlan>> plan =
      c.tracer->Child("plan.get_or_compile_hit", [&] {
        return twin.plan_cache.GetOrCompile(*s.query, s.free_vars);
      });
  Probe(c, "plan.compile", [&] {
    return cqa::QueryPlan::Compile(*s.query, s.free_vars).ok();
  });
  Probe(c, "core.classify",
        [&] { return cqa::ClassifyQuery(*s.query).ok(); });
  if (!plan.ok()) return;
  TwinTenant& tenant = twin.tenant(s.database);
  std::shared_lock<std::shared_mutex> lock(tenant.mu);
  cqa::EvalContext ctx(tenant.db);
  Probe(c, "cq.index_build", [&] { ctx.fact_index(); });
  std::vector<std::vector<SymbolId>> candidates =
      c.tracer->Child("cq.enumerate", [&] {
        return cqa::CollectProjectionsSorted(ctx.fact_index(), *s.query,
                                             cqa::Valuation(), s.free_vars);
      });
  Result<std::vector<char>> certain = c.tracer->Child(
      "fo.decide", [&] { return (*plan)->IsCertainRows(ctx, candidates); });
  c.tally.counts["cq.streams"] += 1;
  c.tally.counts["cq.candidates"] += candidates.size();
  if (certain.ok()) {
    c.tally.counts["fo.certain"] +=
        std::count(certain->begin(), certain->end(), 1);
  }
}

void PageProbes(Conn& c, const StreamSpec& s, bool first,
                const net::CertainAnswersCall& call,
                const net::CertainAnswersReply& reply,
                std::string* twin_token) {
  Twin& twin = *c.twin;
  Probe(c, first ? "serve.service_first_page" : "serve.service_next_page",
        [&] {
          Service::CertainAnswersRequest request;
          request.database = s.database;
          request.page_size = s.page_size;
          if (first) {
            request.prepared = s.twin_handle;
          } else {
            request.page_token = *twin_token;
          }
          Result<Service::CertainAnswersResponse> page =
              twin.service->CertainAnswers(request);
          *twin_token = page.ok() ? page->next_page_token : "";
          return page.ok();
        });
  std::string call_bytes;
  std::string reply_bytes;
  Probe(c, "net.codec_encode", [&] {
    net::Writer cw(&call_bytes);
    net::EncodeCertainAnswersCall(&cw, call);
    net::Writer rw(&reply_bytes);
    net::EncodeCertainAnswersReply(&rw, reply);
  });
  Probe(c, "net.codec_decode", [&] {
    net::Reader cr(call_bytes);
    net::Reader rr(reply_bytes);
    return net::DecodeCertainAnswersCall(&cr).ok() &&
           net::DecodeCertainAnswersReply(&rr).ok();
  });
  c.tally.counts["net.reply_bytes"] += reply_bytes.size();
  c.tally.counts["net.rows"] += reply.rows.size();
  if (first) StreamComputeProbes(c, s);
}

/// Streams the certain answers of `s` page by page and checks what
/// holds for every stream: rows sorted and distinct within and across
/// pages, and one epoch and one total on every page. Returns nullopt
/// when a request failed or a check did not hold (both counted).
std::optional<StreamResult> IssueStream(Conn& c, const StreamSpec& s) {
  StreamResult out;
  std::string token;
  std::string twin_token;
  Clock::time_point stream_start = Clock::now();
  for (bool first = true; first || !token.empty(); first = false) {
    net::CertainAnswersCall call;
    if (first) {
      call.database = c.Target(s.database);
      call.prepared_id = s.prepared_id;
    } else {
      call.page_token = token;
    }
    call.page_size = s.page_size;
    if (c.tracer != nullptr) {
      c.tracer->BeginRoot(first ? "first_page" : "next_page");
    }
    Clock::time_point t0 = Clock::now();
    Result<net::CertainAnswersReply> reply = c.client.CertainAnswers(call);
    Clock::time_point t1 = Clock::now();
    double us = Micros(t0, t1);
    bool ok = c.Finish(reply.status(), first ? "first_page" : "next_page");
    if (ok && first && !c.warm_up) {
      c.Record("first_page_us", us);
    }
    if (c.tracer != nullptr) {
      c.tracer->AddChild("wire", t0, t1);
      if (reply.ok()) PageProbes(c, s, first, call, *reply, &twin_token);
      c.tracer->EndRoot();
    }
    if (!ok) return std::nullopt;
    std::string problem;
    if (first) {
      out.epoch = reply->epoch;
      out.total_rows = reply->total_rows;
    } else if (reply->epoch != out.epoch ||
               reply->total_rows != out.total_rows) {
      problem = "epoch or total changed between pages";
    }
    for (auto& row : reply->rows) {
      if (!out.rows.empty() && !(out.rows.back() < row)) {
        problem = "rows not sorted and distinct";
      }
      out.rows.push_back(std::move(row));
    }
    if (out.rows.size() > out.total_rows) problem = "more rows than total";
    if (!problem.empty()) {
      if (!c.warm_up) c.tally.Wrong(problem);
      return std::nullopt;
    }
    token = reply->next_page_token;
    if (!s.whole) break;
  }
  if (s.whole && !c.warm_up) {
    if (out.rows.size() != out.total_rows) {
      c.tally.Wrong("stream ended short of its total");
      return std::nullopt;
    }
    c.Record("stream_ms", Micros(stream_start, Clock::now()) / 1000.0);
  }
  return out;
}

/// True iff `rows` (one column) equal `reference`.
bool SameColumn(const cqa::Session::RowSet& rows,
                const std::vector<SymbolId>& reference, size_t count) {
  if (rows.size() != std::min(count, reference.size())) return false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != 1 || rows[i][0] != reference[i]) return false;
  }
  return true;
}

// --------------------------------------------------------- workloads

using Tenants = std::vector<std::pair<std::string, Database>>;

/// One traffic mix: its tenants, prepared handles, reference answers
/// and the requests each connection sends.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int connections() const = 0;
  virtual bool durable() const { return false; }
  /// Generates the tenants (part of set-up).
  virtual Tenants Generate(uint64_t seed) = 0;
  /// Prepares the workload's handles over the wire (part of set-up).
  virtual Status Prepare(net::Client& admin) = 0;
  /// Computes the reference answers after set-up.
  virtual Status ComputeReferences(net::Client& admin) = 0;
  /// Prepares the twin handles of the traced pass.
  virtual Status PrepareTwin(Twin& twin) = 0;
  /// Steps each connection runs to warm up.
  virtual int warm_up_steps() const = 0;
  /// The sample behind `latency_p50_us`: the workload's main verb.
  virtual std::string headline() const { return "solve_us"; }
  /// Issues the next request(s) of connection `c`.
  virtual void Step(Conn& c) = 0;
};

Result<std::string> PrepareOverWire(net::Client& admin, const Query& q,
                                    std::vector<std::string> free_vars,
                                    std::string force_solver) {
  net::PrepareRequest request;
  request.query = q;
  request.free_vars = std::move(free_vars);
  request.force_solver = std::move(force_solver);
  Result<net::PrepareResponse> response = admin.Prepare(request);
  if (!response.ok()) return response.status();
  return response->prepared_id;
}

/// The verdict of a SAT-forced handle on `database`: the reference for
/// every Boolean Solve.
Result<bool> SatReference(net::Client& admin, const std::string& database,
                          const Query& q) {
  Result<std::string> id = PrepareOverWire(admin, q, {}, "sat");
  if (!id.ok()) return id.status();
  net::SolveCall call;
  call.database = database;
  call.prepared_id = *id;
  Result<net::SolveReply> reply = admin.Solve(call);
  if (!reply.ok()) return reply.status();
  return reply->certain;
}

class PointMix : public Workload {
 public:
  static constexpr const char* kDb = "point_mix";
  static constexpr uint64_t kPageSize = 32;

  int connections() const override { return 4; }
  bool durable() const override { return true; }
  int warm_up_steps() const override { return 8; }

  Tenants Generate(uint64_t seed) override {
    data_ = MakePointMix(seed);
    ingest_.assign(data_.ingested.begin(), data_.ingested.end());
    Tenants out;
    out.emplace_back(kDb, data_.db);
    return out;
  }

  Status Prepare(net::Client& admin) override {
    prepared_ids_.clear();
    for (const Query& q : data_.prepared) {
      Result<std::string> id = PrepareOverWire(admin, q, {}, "");
      if (!id.ok()) return id.status();
      prepared_ids_.push_back(*id);
    }
    Result<std::string> id = PrepareOverWire(
        admin, data_.stream_query, {data_.stream_free_var}, "");
    if (!id.ok()) return id.status();
    stream_id_ = *id;
    return Status::OK();
  }

  Status ComputeReferences(net::Client& admin) override {
    prepared_expected_.clear();
    adhoc_expected_.clear();
    for (const Query& q : data_.prepared) {
      Result<bool> certain = SatReference(admin, kDb, q);
      if (!certain.ok()) return certain.status();
      prepared_expected_.push_back(*certain);
    }
    for (const std::vector<Query>& variants : data_.adhoc) {
      Result<bool> certain = SatReference(admin, kDb, variants[0]);
      if (!certain.ok()) return certain.status();
      adhoc_expected_.push_back(*certain);
    }
    // Deltas only touch R, which the stream query does not read.
    stream_reference_ = PathCertainAnswers(
        data_.db, cqa::InternSymbol("S"), cqa::InternSymbol("T"));
    return Status::OK();
  }

  Status PrepareTwin(Twin& twin) override {
    twin_prepared_.clear();
    for (const Query& q : data_.prepared) {
      Result<PreparedQueryHandle> h = twin.service->Prepare(q);
      if (!h.ok()) return h.status();
      twin_prepared_.push_back(*h);
      (void)twin.plan_cache.GetOrCompile(q);
    }
    for (const std::vector<Query>& variants : data_.adhoc) {
      (void)twin.plan_cache.GetOrCompile(variants[0]);
    }
    stream_vars_ = {cqa::InternSymbol(data_.stream_free_var)};
    Result<PreparedQueryHandle> h =
        twin.service->Prepare(data_.stream_query, stream_vars_);
    if (!h.ok()) return h.status();
    twin_stream_ = *h;
    (void)twin.plan_cache.GetOrCompile(data_.stream_query, stream_vars_);
    return Status::OK();
  }

  void Step(Conn& c) override {
    switch (c.step % 4) {
      case 0: {
        size_t i = c.rng.Below(data_.prepared.size());
        SolveSpec s;
        s.database = kDb;
        s.prepared_id = prepared_ids_[i];
        if (c.twin != nullptr) s.twin_handle = twin_prepared_[i];
        s.query = &data_.prepared[i];
        s.expected = c.warm_up ? false : prepared_expected_[i];
        IssueSolve(c, s);
        break;
      }
      case 1: {
        size_t i = c.rng.Below(data_.adhoc.size());
        size_t v = c.rng.Below(data_.adhoc[i].size());
        SolveSpec s;
        s.database = kDb;
        s.query = &data_.adhoc[i][v];
        s.expected = c.warm_up ? false : adhoc_expected_[i];
        IssueSolve(c, s);
        break;
      }
      case 2: {
        // Ingest with retention: insert a fact under a fresh key, as
        // real ingest does, and retire the oldest ingested fact. Every
        // delta changes the active domain, whose size stays put, so
        // its per-delta cost is the same all run long. Fresh keys are
        // never reused, so the interner grows, across passes too.
        Fact fresh = Fact::Make(
            "R",
            {"n" + std::to_string(fresh_keys_.fetch_add(1)),
             data_.r_values[c.rng.Below(data_.r_values.size())]},
            1);
        Fact oldest;
        {
          std::lock_guard<std::mutex> lock(ingest_mu_);
          oldest = ingest_.front();
          ingest_.pop_front();
        }
        Delta delta;
        delta.Insert(fresh);
        delta.Remove(oldest);
        bool ok = IssueDelta(c, kDb, delta).has_value();
        std::lock_guard<std::mutex> lock(ingest_mu_);
        if (ok) {
          ingest_.push_back(std::move(fresh));
        } else {
          ingest_.push_front(std::move(oldest));
        }
        break;
      }
      case 3: {
        StreamSpec s;
        s.database = kDb;
        s.prepared_id = stream_id_;
        s.twin_handle = twin_stream_;
        s.query = &data_.stream_query;
        s.free_vars = stream_vars_;
        s.page_size = kPageSize;
        std::optional<StreamResult> page = IssueStream(c, s);
        if (page.has_value() && !c.warm_up &&
            (!SameColumn(page->rows, stream_reference_, kPageSize) ||
             page->total_rows != stream_reference_.size())) {
          c.tally.Wrong("point_mix first page differs from the reference");
        }
        break;
      }
    }
  }

 private:
  PointMixData data_;
  std::atomic<uint64_t> fresh_keys_{0};
  /// Ingested facts still live, oldest first.
  std::mutex ingest_mu_;
  std::deque<Fact> ingest_;
  std::vector<std::string> prepared_ids_;
  std::string stream_id_;
  std::vector<bool> prepared_expected_;
  std::vector<bool> adhoc_expected_;
  std::vector<SymbolId> stream_reference_;
  std::vector<PreparedQueryHandle> twin_prepared_;
  PreparedQueryHandle twin_stream_;
  std::vector<SymbolId> stream_vars_;
};

class AnswerStream : public Workload {
 public:
  static constexpr const char* kDb = "answer_stream";
  /// Service::Options::max_page_size.
  static constexpr uint64_t kPageSize = 4096;
  /// The writer's pause between deltas. Still far more frequent than
  /// streams, so every stream sees a fresh epoch and recomputes, but the
  /// writer no longer convoys with the readers on the epoch gate at a
  /// rate set by thread scheduling.
  static constexpr std::chrono::milliseconds kWriterThink{5};

  int connections() const override { return 4; }
  int warm_up_steps() const override { return 2; }
  std::string headline() const override { return "stream_ms"; }

  Tenants Generate(uint64_t seed) override {
    data_ = MakeAnswerStream(seed);
    base_epoch_.reset();
    Tenants out;
    out.emplace_back(kDb, data_.db);
    return out;
  }

  Status Prepare(net::Client& admin) override {
    Result<std::string> id =
        PrepareOverWire(admin, data_.query, {data_.free_var}, "");
    if (!id.ok()) return id.status();
    stream_id_ = *id;
    return Status::OK();
  }

  Status ComputeReferences(net::Client&) override {
    SymbolId r = cqa::InternSymbol("R");
    SymbolId s = cqa::InternSymbol("S");
    base_reference_ = PathCertainAnswers(data_.db, r, s);
    flipped_reference_.clear();
    for (const std::vector<Fact>& block : data_.flip_blocks) {
      flipped_reference_.push_back(
          PathCertainAnswers(data_.db, r, s, {block[0].values()[0]}));
    }
    return Status::OK();
  }

  Status PrepareTwin(Twin& twin) override {
    vars_ = {cqa::InternSymbol(data_.free_var)};
    Result<PreparedQueryHandle> h = twin.service->Prepare(data_.query, vars_);
    if (!h.ok()) return h.status();
    twin_stream_ = *h;
    (void)twin.plan_cache.GetOrCompile(data_.query, vars_);
    return Status::OK();
  }

  void Step(Conn& c) override {
    if (c.index == 0) {
      Writer(c);
    } else {
      Reader(c);
    }
  }

 private:
  /// Writer step n deletes flip block n/2 (n even) or restores it
  /// (n odd); delta n commits as epoch base + n + 1.
  void Writer(Conn& c) {
    if (!c.warm_up) std::this_thread::sleep_for(kWriterThink);
    const std::vector<Fact>& block =
        data_.flip_blocks[(c.step / 2) % data_.flip_blocks.size()];
    Delta delta;
    delta.ReplaceBlock(block[0].relation(), block[0].KeyValues(),
                       c.step % 2 == 0 ? std::vector<Fact>() : block);
    std::optional<uint64_t> epoch = IssueDelta(c, kDb, delta);
    if (c.step == 0 && epoch.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      base_epoch_ = *epoch - 1;
    } else if (epoch.has_value() && !c.warm_up) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!base_epoch_.has_value() || *epoch != *base_epoch_ + c.step + 1) {
        c.tally.Wrong("writer epoch out of sequence");
      }
    }
  }

  void Reader(Conn& c) {
    StreamSpec s;
    s.database = kDb;
    s.prepared_id = stream_id_;
    s.twin_handle = twin_stream_;
    s.query = &data_.query;
    s.free_vars = vars_;
    s.page_size = kPageSize;
    s.whole = true;
    std::optional<StreamResult> stream = IssueStream(c, s);
    if (!stream.has_value() || c.warm_up) return;
    const std::vector<SymbolId>* reference = ReferenceAt(stream->epoch);
    if (reference == nullptr ||
        !SameColumn(stream->rows, *reference, reference->size())) {
      c.tally.Wrong("stream at epoch " + std::to_string(stream->epoch) +
                    " differs from its reference");
    }
  }

  const std::vector<SymbolId>* ReferenceAt(uint64_t epoch) {
    std::optional<uint64_t> base;
    {
      std::lock_guard<std::mutex> lock(mu_);
      base = base_epoch_;
    }
    if (!base.has_value() || epoch < *base) return nullptr;
    if (epoch == *base) return &base_reference_;
    uint64_t n = epoch - *base - 1;
    if (n % 2 == 1) return &base_reference_;
    return &flipped_reference_[(n / 2) % flipped_reference_.size()];
  }

  AnswerStreamData data_;
  std::string stream_id_;
  std::vector<SymbolId> base_reference_;
  std::vector<std::vector<SymbolId>> flipped_reference_;
  std::mutex mu_;
  std::optional<uint64_t> base_epoch_;
  PreparedQueryHandle twin_stream_;
  std::vector<SymbolId> vars_;
};

class FrontierDecide : public Workload {
 public:
  int connections() const override { return 2; }
  int warm_up_steps() const override { return 5; }

  Tenants Generate(uint64_t seed) override {
    tenants_ = MakeFrontier(seed);
    Tenants out;
    for (const FrontierTenant& t : tenants_) out.emplace_back(t.name, t.db);
    return out;
  }

  Status Prepare(net::Client& admin) override {
    ids_.clear();
    for (const FrontierTenant& t : tenants_) {
      Result<std::string> id = PrepareOverWire(admin, t.query, {}, "");
      if (!id.ok()) return id.status();
      ids_.push_back(*id);
    }
    return Status::OK();
  }

  Status ComputeReferences(net::Client& admin) override {
    expected_.clear();
    for (const FrontierTenant& t : tenants_) {
      Result<bool> certain = SatReference(admin, t.name, t.query);
      if (!certain.ok()) return certain.status();
      expected_.push_back(*certain);
    }
    return Status::OK();
  }

  Status PrepareTwin(Twin& twin) override {
    twin_ids_.clear();
    for (const FrontierTenant& t : tenants_) {
      Result<PreparedQueryHandle> h = twin.service->Prepare(t.query);
      if (!h.ok()) return h.status();
      twin_ids_.push_back(*h);
      (void)twin.plan_cache.GetOrCompile(t.query);
    }
    return Status::OK();
  }

  void Step(Conn& c) override {
    size_t i = (c.step + c.index) % tenants_.size();
    SolveSpec s;
    s.database = tenants_[i].name;
    s.prepared_id = ids_[i];
    if (c.twin != nullptr) s.twin_handle = twin_ids_[i];
    s.query = &tenants_[i].query;
    s.expected = c.warm_up ? false : expected_[i];
    s.solver_span = tenants_[i].solver_span.c_str();
    IssueSolve(c, s);
  }

 private:
  std::vector<FrontierTenant> tenants_;
  std::vector<std::string> ids_;
  std::vector<bool> expected_;
  std::vector<PreparedQueryHandle> twin_ids_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "point_mix") return std::make_unique<PointMix>();
  if (name == "answer_stream") return std::make_unique<AnswerStream>();
  if (name == "frontier_decide") return std::make_unique<FrontierDecide>();
  return nullptr;
}

// ------------------------------------------------------------- hosting

/// The served stack: a Service (durable when the workload is) behind a
/// Server on an ephemeral loopback port, plus the admin client.
struct Stack {
  std::unique_ptr<Service> service;
  std::unique_ptr<net::Server> server;
  net::Client admin;
  std::string dir;

  ~Stack() {
    admin.Close();
    if (server != nullptr) server->Stop();
    server.reset();
    service.reset();
    if (!dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

Service::Options ServiceOptions(const std::string& durable_dir) {
  Service::Options options;
  // The shipped WAL defaults (kInterval, 64 KiB) stay as they are.
  options.durability.dir = durable_dir;
  return options;
}

/// One full set-up: generate, host, CreateDatabase and Prepare over the
/// wire, connect the clients, warm up.
Status SetUp(Workload& workload, const RunConfig& config,
             const std::string& dir, Stack* stack,
             std::vector<std::unique_ptr<Conn>>* conns, Tenants* generated) {
  *generated = workload.Generate(config.seed);
  const Tenants& tenants = *generated;
  stack->dir = workload.durable() ? dir : "";
  if (!stack->dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(stack->dir, ignored);
  }
  stack->service = std::make_unique<Service>(ServiceOptions(stack->dir));
  net::Server::Options server_options;
  server_options.server_name = "wirebench";
  stack->server =
      std::make_unique<net::Server>(stack->service.get(), server_options);
  Status st = stack->server->Start();
  if (!st.ok()) return st;
  uint16_t port = stack->server->port();
  st = stack->admin.Connect("127.0.0.1", port);
  if (!st.ok()) return st;
  for (const auto& [name, db] : tenants) {
    st = stack->admin.CreateDatabase(name, db);
    if (!st.ok()) return st;
  }
  st = workload.Prepare(stack->admin);
  if (!st.ok()) return st;

  conns->clear();
  for (int i = 0; i < workload.connections(); ++i) {
    auto c = std::make_unique<Conn>();
    c->index = i;
    c->rng = cqa::Rng(config.seed * 1000003 + i + 1);
    c->refuse_every = config.refuse_every;
    st = c->client.Connect("127.0.0.1", port);
    if (!st.ok()) return st;
    conns->push_back(std::move(c));
  }
  // Warm-up: each connection runs its first steps (the answer_stream
  // writer's first flip fixes the epoch base) concurrently, unchecked.
  std::vector<std::thread> threads;
  for (auto& c : *conns) {
    threads.emplace_back([&workload, &c] {
      c->warm_up = true;
      for (int i = 0; i < workload.warm_up_steps(); ++i) {
        workload.Step(*c);
        ++c->step;
      }
      c->warm_up = false;
    });
  }
  for (std::thread& t : threads) t.join();
  return Status::OK();
}

/// Counters of the served stack, read before and after the window.
struct Counters {
  Service::StatsResponse stats;
  double shed = 0;
};

double PrometheusValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0;
}

Result<Counters> ReadCounters(Stack& stack) {
  Counters out;
  Result<Service::StatsResponse> stats =
      stack.service->Stats(Service::StatsRequest{});
  if (!stats.ok()) return stats.status();
  out.stats = *stats;
  Result<net::MetricsReply> metrics = stack.admin.Metrics();
  if (!metrics.ok()) return metrics.status();
  out.shed = PrometheusValue(metrics->text, "cqa_server_shed_inflight") +
             PrometheusValue(metrics->text, "cqa_server_shed_queue");
  return out;
}

/// Result of one measured window.
struct Pass {
  Tally tally;
  double wall_s = 0;
  /// Read as the window closes, before the tallies are merged.
  double peak_rss_mb = 0;
  std::vector<double> setup_s;
  Counters before;
  Counters after;
  std::vector<Span> spans;
  std::vector<cqa::store::DbStore::Stats> twin_stores;
};

/// Builds the twins of every tenant for a traced pass.
Status BuildTwin(Workload& workload, const Tenants& tenants,
                 const std::string& dir, Twin* twin) {
  std::string service_dir = workload.durable() ? dir + "/service" : "";
  twin->service = std::make_unique<Service>(ServiceOptions(service_dir));
  for (const auto& [name, db] : tenants) {
    Status st = twin->service->CreateDatabase(name, db);
    if (!st.ok()) return st;
    auto tenant = std::make_unique<TwinTenant>();
    tenant->db = db;
    if (workload.durable()) {
      cqa::store::DbStore::Options store_options;
      Result<std::unique_ptr<cqa::store::DbStore>> store =
          cqa::store::DbStore::Create(cqa::store::Env::Default(),
                                      dir + "/store-" + name, db, 0,
                                      store_options);
      if (!store.ok()) return store.status();
      tenant->store = std::move(*store);
    }
    twin->tenants[name] = std::move(tenant);
  }
  return workload.PrepareTwin(*twin);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Times one set-up into `pass->setup_s`.
Status TimedSetUp(Workload& workload, const RunConfig& config,
                  const std::string& dir, Stack* stack,
                  std::vector<std::unique_ptr<Conn>>* conns, Tenants* tenants,
                  Pass* pass) {
  Clock::time_point t0 = Clock::now();
  Status st = SetUp(workload, config, dir, stack, conns, tenants);
  pass->setup_s.push_back(
      std::chrono::duration<double>(Clock::now() - t0).count());
  return st;
}

/// Sets up, runs the window and, after it, repeats set-up until
/// `setup_repeats` set-ups are timed. The repeats come after the window
/// so the peak memory it reports holds one set-up, not the leftovers of
/// several.
Result<Pass> RunPass(Workload& workload, const RunConfig& config,
                     bool traced, int setup_repeats) {
  Pass pass;
  std::string dir = config.work_dir + (traced ? "/traced" : "/untraced");
  auto stack = std::make_unique<Stack>();
  std::vector<std::unique_ptr<Conn>> conns;
  Tenants tenants;
  Status st = TimedSetUp(workload, config, dir + "/served", stack.get(),
                         &conns, &tenants, &pass);
  if (!st.ok()) return st;
  st = workload.ComputeReferences(stack->admin);
  if (!st.ok()) return st;

  // The twin is declared after the stack so it is destroyed first.
  std::unique_ptr<Twin> twin;
  if (traced) {
    twin = std::make_unique<Twin>();
    st = BuildTwin(workload, tenants, dir + "/twin", twin.get());
    if (!st.ok()) return st;
    for (auto& c : conns) {
      c->twin = twin.get();
      c->tracer = std::make_unique<Tracer>(
          static_cast<uint64_t>(c->index + 1) << 48);
    }
  }

  Result<Counters> before = ReadCounters(*stack);
  if (!before.ok()) return before.status();
  pass.before = *before;

  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  {
    std::vector<std::thread> threads;
    for (auto& c : conns) {
      Conn* conn = c.get();
      conn->window_start = start;
      threads.emplace_back([&workload, conn, deadline] {
        while (Clock::now() < deadline) {
          workload.Step(*conn);
          ++conn->step;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  pass.peak_rss_mb = PeakRssMb();

  Result<Counters> after = ReadCounters(*stack);
  if (!after.ok()) return after.status();
  pass.after = *after;

  for (auto& c : conns) {
    Tally& t = c->tally;
    pass.tally.attempted += t.attempted;
    pass.tally.completed += t.completed;
    pass.tally.failed += t.failed;
    pass.tally.wrong = pass.tally.wrong || t.wrong;
    if (pass.tally.first_error.empty()) pass.tally.first_error = t.first_error;
    for (auto& [name, slices] : t.sliced) {
      std::vector<Samples>& merged = pass.tally.sliced[name];
      if (merged.size() < slices.size()) merged.resize(slices.size());
      for (size_t i = 0; i < slices.size(); ++i) merged[i].Append(slices[i]);
    }
    std::vector<double>& done = pass.tally.completed_per_slice;
    if (done.size() < t.completed_per_slice.size()) {
      done.resize(t.completed_per_slice.size());
    }
    for (size_t i = 0; i < t.completed_per_slice.size(); ++i) {
      done[i] += t.completed_per_slice[i];
    }
    for (auto& [name, value] : t.counts) pass.tally.counts[name] += value;
    if (c->tracer != nullptr) {
      std::vector<Span>& spans = c->tracer->spans();
      pass.spans.insert(pass.spans.end(),
                        std::make_move_iterator(spans.begin()),
                        std::make_move_iterator(spans.end()));
    }
  }
  if (twin != nullptr) {
    for (auto& [name, tenant] : twin->tenants) {
      if (tenant->store != nullptr) {
        pass.twin_stores.push_back(tenant->store->stats());
      }
    }
  }
  conns.clear();
  twin.reset();
  stack.reset();
  for (int rep = 1; rep < setup_repeats; ++rep) {
    Stack again;
    st = TimedSetUp(workload, config, dir + "/served", &again, &conns,
                    &tenants, &pass);
    conns.clear();
    if (!st.ok()) return st;
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  return pass;
}

// ------------------------------------------------------------ metrics

void AddTiming(std::vector<Metric>* out, const std::string& stem,
               const std::string& unit, const Samples& samples) {
  if (samples.empty()) return;
  out->push_back({stem + "_p50_" + unit, unit, samples.Quantile(0.5),
                  samples.size(), 0});
  double q = samples.TailQuantile(0.99);
  if (q > 0) {
    out->push_back({stem + "_p99_" + unit, unit, samples.Quantile(q),
                    samples.size(), q});
  }
}

/// Mean of the values between the first and third quartile.
double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t cut = values.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / (values.size() - 2 * cut);
}


std::vector<Metric> EndToEnd(const Pass& pass, const std::string& headline) {
  std::vector<Metric> out;
  std::map<std::string, Samples> s;
  for (const auto& [name, slices] : pass.tally.sliced) {
    for (const Samples& slice : slices) s[name].Append(slice);
  }
  auto get = [&](const char* name) -> const Samples& {
    static const Samples kEmpty;
    auto it = s.find(name);
    return it == s.end() ? kEmpty : it->second;
  };
  // The two metrics every workload reports are taken per one-second
  // slice of the window and then combined robustly, so a stall of a few
  // seconds on a shared host moves them less than a whole-window figure.
  // Only whole slices count.
  size_t slices = static_cast<size_t>(pass.wall_s);
  std::vector<double> done(pass.tally.completed_per_slice);
  done.resize(std::min(done.size(), slices));
  double rps = pass.wall_s > 0 ? pass.tally.completed / pass.wall_s : 0;
  if (done.size() >= 4) rps = InterquartileMean(done);
  out.push_back({"throughput_rps", "req/s", rps, pass.tally.completed, 0});

  // One latency every workload reports: its main verb's median.
  const Samples& main_verb = get(headline.c_str());
  double p50 = main_verb.Quantile(0.5);
  Samples slice_p50;
  auto it = pass.tally.sliced.find(headline);
  if (it != pass.tally.sliced.end()) {
    for (size_t i = 0; i < std::min(slices, it->second.size()); ++i) {
      if (!it->second[i].empty()) slice_p50.Add(it->second[i].Quantile(0.5));
    }
  }
  if (slice_p50.size() >= 3) p50 = slice_p50.Quantile(0.5);
  double scale = headline == "stream_ms" ? 1000.0 : 1.0;
  out.push_back({"latency_p50_us", "us", p50 * scale, main_verb.size(), 0});
  AddTiming(&out, "solve", "us", get("solve_us"));
  AddTiming(&out, "delta", "us", get("delta_us"));
  AddTiming(&out, "first_page", "us", get("first_page_us"));
  AddTiming(&out, "stream", "ms", get("stream_ms"));
  out.push_back({"error_rate", "failed/attempted",
                 pass.tally.attempted > 0
                     ? static_cast<double>(pass.tally.failed) /
                           pass.tally.attempted
                     : 0,
                 0, 0});
  std::vector<double> setup = pass.setup_s;
  std::sort(setup.begin(), setup.end());
  out.push_back({"setup_s", "s", setup.empty() ? 0 : setup[setup.size() / 2],
                 setup.size(), 0});
  out.push_back({"peak_rss_mb", "MB", pass.peak_rss_mb, 0, 0});
  return out;
}

/// Per-layer metrics of a traced pass: span timings grouped by root,
/// per-layer counts, and the served stack's counter deltas.
std::vector<Metric> Layers(const Pass& pass, double overhead_us) {
  std::vector<Metric> out;
  std::map<std::string, Samples> by_name;
  std::map<std::string, Samples> net_self;
  Samples delta_self;
  Samples all_self;
  Samples all_serve;

  // Children follow their root in each connection's log.
  std::map<uint64_t, const Span*> roots;
  std::map<uint64_t, std::map<std::string, double>> child_us;
  for (const Span& span : pass.spans) {
    if (span.parent == 0) {
      roots[span.id] = &span;
      continue;
    }
    child_us[span.parent][span.name] += span.us();
    by_name[span.name].Add(span.us());
  }
  for (const auto& [id, root] : roots) {
    auto it = child_us.find(id);
    if (it == child_us.end()) continue;
    const std::map<std::string, double>& c = it->second;
    double serve = 0;
    for (const auto& [name, us] : c) {
      if (name.compare(0, 14, "serve.service_") == 0) serve += us;
    }
    if (serve > 0) all_serve.Add(serve);
    auto wire = c.find("wire");
    if (wire == c.end() || serve == 0) continue;
    double self = wire->second - serve;
    all_self.Add(self);
    std::string verb = root->name == "solve"   ? "solve"
                       : root->name == "delta" ? "delta"
                                               : "page";
    net_self[verb].Add(self);
    if (verb == "delta") {
      double store = c.count("store.append") ? c.at("store.append") : 0;
      double db = c.count("db.apply") ? c.at("db.apply") : 0;
      delta_self.Add(c.at("serve.service_delta") - store - db);
    }
  }

  auto timing = [&](const std::string& name, const Samples& samples) {
    if (!samples.empty()) {
      out.push_back({name, "us", samples.Quantile(0.5), samples.size(), 0});
    }
  };
  timing("net.self_us", all_self);
  for (const auto& [verb, samples] : net_self) {
    timing("net." + verb + "_self_us", samples);
  }
  timing("serve.service_us", all_serve);
  timing("serve.delta_self_us", delta_self);
  double q = delta_self.TailQuantile(0.99);
  if (q > 0) {
    out.push_back({"serve.delta_self_p99_us", "us", delta_self.Quantile(q),
                   delta_self.size(), q});
  }
  for (const auto& [name, samples] : by_name) {
    if (name != "wire") timing(name + "_us", samples);
  }

  const std::map<std::string, double>& n = pass.tally.counts;
  auto count = [&](const char* name) {
    auto it = n.find(name);
    return it == n.end() ? 0.0 : it->second;
  };
  auto ratio = [&](const std::string& name, const std::string& unit,
                   double num, double den) {
    if (den > 0) out.push_back({name, unit, num / den, 0, 0});
  };
  ratio("net.bytes_per_row", "B/row", count("net.reply_bytes"),
        count("net.rows"));
  ratio("cq.candidates_per_stream", "rows", count("cq.candidates"),
        count("cq.streams"));
  ratio("fo.certain_ratio", "certain/candidates", count("fo.certain"),
        count("cq.candidates"));
  ratio("solvers.sat_decisions", "count/call", count("solvers.sat_decisions"),
        count("solvers.sat_calls"));
  ratio("solvers.sat_clauses", "count/call", count("solvers.sat_clauses"),
        count("solvers.sat_calls"));
  if (!pass.twin_stores.empty()) {
    double appended = 0;
    double snapshots = 0;
    for (const cqa::store::DbStore::Stats& s : pass.twin_stores) {
      appended += s.appended_bytes;
      snapshots += s.snapshots_written;
    }
    ratio("store.wal_bytes_per_delta_byte", "B/B", appended,
          count("store.delta_bytes"));
    out.push_back({"store.snapshots_written", "count", snapshots, 0, 0});
  }

  const Service::StatsResponse& b = pass.before.stats;
  const Service::StatsResponse& a = pass.after.stats;
  double per_k = pass.tally.completed > 0 ? 1000.0 / pass.tally.completed : 0;
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  double cached = d(a.session.answers_cached, b.session.answers_cached);
  double incremental =
      d(a.session.answers_incremental, b.session.answers_incremental);
  double full = d(a.session.answers_full, b.session.answers_full);
  ratio("serve.answer_cache_hit_ratio", "hits/serves", cached + incremental,
        cached + incremental + full);
  ratio("serve.rows_decided_per_stream", "rows",
        d(a.session.rows_decided, b.session.rows_decided),
        incremental + full);
  ratio("serve.parallel_chunks_per_batch", "chunks/batch",
        d(a.session.parallel_chunks, b.session.parallel_chunks),
        d(a.session.parallel_batches, b.session.parallel_batches));
  out.push_back({"serve.gate_reader_waits_per_1k", "per_1k_req",
                 d(a.contention.gate_reader_waits,
                   b.contention.gate_reader_waits) * per_k, 0, 0});
  out.push_back({"serve.gate_writer_handoffs_per_1k", "per_1k_req",
                 d(a.contention.gate_writer_handoffs,
                   b.contention.gate_writer_handoffs) * per_k, 0, 0});
  double hits = d(a.plan_cache.hits, b.plan_cache.hits);
  double misses = d(a.plan_cache.misses, b.plan_cache.misses);
  ratio("plan.cache_hit_ratio", "hits/lookups", hits, hits + misses);
  out.push_back({"plan.shard_waits_per_1k", "per_1k_req",
                 d(a.plan_cache.shard_waits, b.plan_cache.shard_waits) * per_k,
                 0, 0});
  out.push_back({"util.interner_symbols_per_1k", "per_1k_req",
                 d(a.contention.interner_symbols,
                   b.contention.interner_symbols) * per_k, 0, 0});
  out.push_back({"net.shed_per_1k", "per_1k_req",
                 (pass.after.shed - pass.before.shed) * per_k, 0, 0});
  out.push_back({"trace.overhead_us", "us", overhead_us, 0, 0});
  return out;
}

/// Mean wall time per request at the workload's connection count.
double WallPerRequestUs(const Pass& pass, int connections) {
  return pass.tally.completed > 0
             ? pass.wall_s * 1e6 * connections / pass.tally.completed
             : 0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "point_mix", "answer_stream", "frontier_decide"};
  return kNames;
}

Result<Report> RunBenchmark(const RunConfig& config) {
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload);
  if (workload == nullptr) {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "'");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create " + config.work_dir + ": " +
                               ec.message());
  }

  Result<Pass> measured = RunPass(*workload, config, /*traced=*/false,
                                  std::max(1, config.setup_repeats));
  if (!measured.ok()) return measured.status();

  Report report;
  report.meta = HostMetadata();
  report.meta.emplace_back("workload", config.workload);
  report.meta.emplace_back("seed", std::to_string(config.seed));
  report.meta.emplace_back("connections",
                           std::to_string(workload->connections()));
  report.meta.emplace_back("seconds", JsonNumber(config.seconds));
  report.meta.emplace_back("trace", config.trace ? "1" : "0");
  report.meta.emplace_back("loop", "closed");
  report.end_to_end =
      EndToEnd(*measured, workload->headline());
  report.attempted = measured->tally.attempted;
  report.failed = measured->tally.failed;
  report.correct = !measured->tally.wrong;
  report.first_error = measured->tally.first_error;

  if (config.trace) {
    Result<Pass> traced = RunPass(*workload, config, /*traced=*/true, 1);
    if (!traced.ok()) return traced.status();
    int conns = workload->connections();
    double overhead = WallPerRequestUs(*traced, conns) -
                      WallPerRequestUs(*measured, conns);
    report.layers = Layers(*traced, overhead);
    report.attempted += traced->tally.attempted;
    report.failed += traced->tally.failed;
    report.correct = report.correct && !traced->tally.wrong;
    if (report.first_error.empty()) {
      report.first_error = traced->tally.first_error;
    }
    report.spans = std::move(traced->spans);
  }
  std::filesystem::remove_all(config.work_dir, ec);
  return report;
}

}  // namespace wirebench
