// The payoff of prepared-query handles: a handle pins its compiled
// plan, so re-serving it through Service::SolveBatch touches neither
// the canonicalizer nor the plan cache — versus the cold path, where
// every request arrives as an ad-hoc query and the plan cache is too
// small to hold any class, so each request pays classification +
// attack-graph analysis + (on the FO path) the rewriter.
//
// Acceptance tracking: BM_Service_PreparedReServe vs
// BM_Service_ColdCompilePerRequest qps in BENCH_results.json — the
// prepared path must win by >= 3x. BM_Service_AdHocWarmCache sits in
// between (cache lookup, no compile) and shows what the handle saves
// over a warm cache: the canonicalization + lookup per call.
//
// The workload spans the solver frontier (FO, terminal-cycles, AC(k),
// C(k), SAT) against one registered database, plus a forced-oracle
// handle cross-checking the FO answer on the small conference database
// — all six solver kinds flow through the same SolveRequest struct.

#include "bench_main.h"

#include "cqa.h"

#include <string>
#include <vector>

namespace {

using namespace cqa;

/// One query per natural complexity class (same shapes as
/// bench_serving's workload), repeated `reps` times.
std::vector<Query> Workload(int reps) {
  std::vector<Query> base = {
      corpus::ConferenceQuery(),
      MustParseQuery("Rp(u | v), Sp(v | w)"),  // FO path join
      MustParseQuery("T1(x, u1 | u2, z), T2(x, u2 | u1, z), "
                     "T3(x, y, u3 | u4), T4(x, y, u4 | u3), "
                     "T5(y, u5 | u6), T6(y, u6 | u5)"),  // Theorem 3
      corpus::Ack(3),
      corpus::Ck(3),
      corpus::Q0(),  // SAT
  };
  std::vector<Query> out;
  out.reserve(base.size() * reps);
  for (int r = 0; r < reps; ++r) {
    for (const Query& q : base) out.push_back(q);
  }
  return out;
}

Database ServingDb(int blocks) {
  Database db = corpus::ConferenceDatabase();
  for (const Query& q : Workload(1)) {
    BlockDbGenOptions options;
    options.seed = 42;
    options.blocks_per_relation = blocks;
    options.max_block_size = 2;
    options.domain_size = blocks;
    Database extra = RandomBlockDatabase(q, options);
    for (const Fact& f : extra.facts()) db.AddFact(f).ok();
  }
  return db;
}

/// Hot path: handles prepared once, requests re-served from the pinned
/// plans. This is the number a long-lived caller sees.
void BM_Service_PreparedReServe(benchmark::State& state) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  service.CreateDatabase("bench", ServingDb(2)).ok();
  std::vector<Query> queries = Workload(static_cast<int>(state.range(0)));
  std::vector<Service::SolveRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].database = "bench";
    requests[i].prepared = service.Prepare(queries[i]).value();
  }
  size_t served = 0;
  for (auto _ : state) {
    auto results = service.SolveBatch(requests);
    benchmark::DoNotOptimize(results);
    served += results.size();
  }
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["queries"] = static_cast<double>(requests.size());
  state.counters["prepared"] = static_cast<double>(stats.prepared_queries);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_PreparedReServe)
    ->RangeMultiplier(2)
    ->Range(4, cqa_bench::RangeLimit(64, 8))
    ->UseRealTime();

/// Cold path: ad-hoc queries against a capacity-1 plan cache. The six
/// α-classes rotate through the single slot, so every request misses
/// and recompiles — per-request cold compile through the same front
/// door.
void BM_Service_ColdCompilePerRequest(benchmark::State& state) {
  Service::Options options;
  options.num_threads = 1;
  options.plan_cache.capacity = 1;
  options.plan_cache.num_shards = 1;
  Service service(options);
  service.CreateDatabase("bench", ServingDb(2)).ok();
  std::vector<Query> queries = Workload(static_cast<int>(state.range(0)));
  std::vector<Service::SolveRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].database = "bench";
    requests[i].query = queries[i];
  }
  size_t served = 0;
  for (auto _ : state) {
    auto results = service.SolveBatch(requests);
    benchmark::DoNotOptimize(results);
    served += results.size();
  }
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["queries"] = static_cast<double>(requests.size());
  state.counters["plan_misses"] =
      static_cast<double>(stats.plan_cache.misses);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_ColdCompilePerRequest)
    ->RangeMultiplier(2)
    ->Range(4, cqa_bench::RangeLimit(64, 8))
    ->UseRealTime();

/// Between the two: ad-hoc queries against a warm, big-enough cache —
/// per-request canonicalization + sharded lookup, no compile.
void BM_Service_AdHocWarmCache(benchmark::State& state) {
  Service::Options options;
  options.num_threads = 1;
  Service service(options);
  service.CreateDatabase("bench", ServingDb(2)).ok();
  std::vector<Query> queries = Workload(static_cast<int>(state.range(0)));
  std::vector<Service::SolveRequest> requests(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    requests[i].database = "bench";
    requests[i].query = queries[i];
  }
  service.SolveBatch(requests);  // warm every class
  size_t served = 0;
  for (auto _ : state) {
    auto results = service.SolveBatch(requests);
    benchmark::DoNotOptimize(results);
    served += results.size();
  }
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["queries"] = static_cast<double>(requests.size());
  state.counters["plan_hits"] = static_cast<double>(stats.plan_cache.hits);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_AdHocWarmCache)
    ->RangeMultiplier(2)
    ->Range(4, cqa_bench::RangeLimit(64, 8))
    ->UseRealTime();

/// The sixth solver kind through the same request struct: a
/// forced-oracle handle (repair enumeration) cross-checking the FO
/// answer on the 4-repair conference database.
void BM_Service_OracleCrossCheck(benchmark::State& state) {
  Service service;
  service.CreateDatabase("conference", corpus::ConferenceDatabase()).ok();
  Service::PrepareOptions force;
  force.force_solver = SolverKind::kOracle;
  Service::SolveRequest fo;
  fo.database = "conference";
  fo.prepared = service.Prepare(corpus::ConferenceQuery()).value();
  Service::SolveRequest oracle;
  oracle.database = "conference";
  oracle.prepared =
      service.Prepare(corpus::ConferenceQuery(), {}, force).value();
  for (auto _ : state) {
    auto a = service.Solve(fo);
    auto b = service.Solve(oracle);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    if (a->outcome.certain != b->outcome.certain) {
      state.SkipWithError("oracle disagrees with the FO plan");
    }
  }
}
BENCHMARK(BM_Service_OracleCrossCheck);

/// Answer pagination end to end: stream the certain answers of the
/// path join in pages off one pinned snapshot.
void BM_Service_PaginatedAnswers(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    db.AddFact(Fact::Make("R", {a, b}, 1)).ok();
    db.AddFact(Fact::Make("S", {b, "c"}, 1)).ok();
  }
  Service service;
  service.CreateDatabase("pages", std::move(db)).ok();
  PreparedQueryHandle handle =
      service
          .Prepare(MustParseQuery("R(x | y), S(y | z)"),
                   {InternSymbol("x")})
          .value();
  size_t rows = 0;
  for (auto _ : state) {
    Service::CertainAnswersRequest request;
    request.database = "pages";
    request.prepared = handle;
    request.page_size = 256;
    Result<Service::CertainAnswersResponse> page =
        service.CertainAnswers(request);
    rows += page->rows.size();
    while (!page->next_page_token.empty()) {
      Service::CertainAnswersRequest next;
      next.database = "pages";
      next.page_token = page->next_page_token;
      page = service.CertainAnswers(next);
      rows += page->rows.size();
    }
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Service_PaginatedAnswers)
    ->RangeMultiplier(4)
    ->Range(1024, cqa_bench::RangeLimit(4096, 1024));

/// The client half of a page: decode one 4096-row, one-column
/// certain_answers reply whose values are all interned already (a
/// client streaming a tenant that its process also serves, as the
/// end-to-end answer_stream readers do), on 1 thread and on 3 threads
/// at once. At 3 threads the wall time is the run's wall clock over all
/// three threads' decodes (3 threads that never contend read a third of
/// the 1-thread time) and the CPU time is each decode's own cost, so the
/// pair shows what concurrent readers cost each other.
void BM_Codec_DecodeRows(benchmark::State& state) {
  static const std::string* page = [] {
    net::CertainAnswersReply reply;
    for (int i = 0; i < 4096; ++i) {
      reply.rows.push_back({InternSymbol("page-row-" + std::to_string(i))});
    }
    reply.total_rows = 3 * 4096;
    reply.next_page_token = "v1:1:4096";
    auto* bytes = new std::string;
    net::Writer w(bytes);
    net::EncodeCertainAnswersReply(&w, reply);
    return bytes;
  }();
  size_t rows = 0;
  for (auto _ : state) {
    net::Reader r(*page);
    Result<net::CertainAnswersReply> reply =
        net::DecodeCertainAnswersReply(&r);
    rows = reply->rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kAvgThreads);
  state.counters["threads"] = benchmark::Counter(
      state.threads(), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_Codec_DecodeRows)->Threads(1)->Threads(3);

/// Thread-scaling series through the front door: one uncached
/// CertainAnswers request per iteration over a `blocks`-block path
/// database, its candidate batch partitioned across `threads` workers.
/// The end-to-end façade counterpart of BM_Fo_CertainAnswersParallel;
/// filter on the "threads" field for the curve.
void BM_Service_CertainAnswersThreads(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int threads = static_cast<int>(state.range(1));
  Database db;
  for (int i = 0; i < n; ++i) {
    std::string a = "a" + std::to_string(i);
    std::string b = "b" + std::to_string(i);
    db.AddFact(Fact::Make("R", {a, b}, 1)).ok();
    if (i % 7 == 0) {
      db.AddFact(Fact::Make("R", {a, "dead" + std::to_string(i)}, 1)).ok();
    }
    db.AddFact(Fact::Make("S", {b, "c"}, 1)).ok();
  }
  Service::Options options;
  options.num_threads = threads;
  options.session.answer_cache_capacity = 0;
  options.default_page_size = 1 << 20;
  options.max_page_size = 1 << 20;
  Service service(options);
  service.CreateDatabase("wide", std::move(db)).ok();
  PreparedQueryHandle handle =
      service
          .Prepare(MustParseQuery("R(x | y), S(y | z)"),
                   {InternSymbol("x")})
          .value();
  size_t rows = 0;
  for (auto _ : state) {
    Service::CertainAnswersRequest request;
    request.database = "wide";
    request.prepared = handle;
    rows = service.CertainAnswers(request)->rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["threads"] = threads;
  Service::StatsResponse stats = service.Stats({}).value();
  state.counters["parallel_chunks"] =
      static_cast<double>(stats.session.parallel_chunks);
}
BENCHMARK(BM_Service_CertainAnswersThreads)
    ->ArgsProduct({{cqa_bench::RangeLimit(4096, 256)},
                   cqa_bench::ThreadCounts()});

}  // namespace
