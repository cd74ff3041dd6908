// The durability walkthrough — and the binary CI kills with SIGKILL to
// prove crash recovery on a real filesystem. Three modes:
//
//   durability_demo serve <dir> <deltas>
//       Creates (or recovers) a durable database under <dir> and
//       applies <deltas> sequential deltas, printing the epoch after
//       each so a harness can kill the process mid-stream. Exits 0.
//
//   durability_demo verify <dir> <expected-min-epoch>
//       Recovers the database from <dir>, replays the delta history up
//       to the recovered epoch onto a bare database (the oracle), and
//       asserts both the fact set and the certain answers of a join
//       query agree. Exits 0 on agreement, 1 on any mismatch.
//
//   durability_demo demo
//       A self-contained tour: create, mutate, "crash" (drop the
//       Service without closing it cleanly is not possible in-process,
//       so the tour uses a torn WAL tail instead), recover, and print
//       what recovery reports.
//
// The delta history is a pure function of the epoch, so serve and
// verify agree on what epoch N means without any side channel — that
// is what lets verify reconstruct the oracle from nothing but the
// recovered epoch.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cqa.h"

using namespace cqa;

namespace {

Query DemoQuery() { return MustParseQuery("R(x | y), S(y | z)"); }

/// The canonical history: delta for epoch `e` (1-based).
Delta HistoryDelta(uint64_t e) {
  std::string a = "a" + std::to_string(e);
  std::string b = "b" + std::to_string(e);
  Delta d;
  d.Insert(Fact::Make("R", {a, b}, 1));
  d.Insert(Fact::Make("S", {b, "c"}, 1));
  if (e % 3 == 0) d.Insert(Fact::Make("R", {a, "dead"}, 1));
  if (e >= 2 && e % 4 == 2) {
    std::string old = "a" + std::to_string(e - 2);
    d.ReplaceBlock(InternSymbol("R"), {InternSymbol(old)},
                   {Fact::Make("R", {old, "rewired"}, 1)});
  }
  return d;
}

Service::Options DurableOptions(const std::string& dir) {
  Service::Options options;
  options.num_threads = 2;
  options.durability.dir = dir;
  // Interval sync: bounded loss on SIGKILL, far from fsync-per-delta —
  // the policy a harness killing us mid-stream actually stresses.
  options.durability.wal.policy = store::Wal::SyncPolicy::kInterval;
  options.durability.wal.sync_interval_bytes = 512;
  options.durability.compaction_threshold_bytes = 16 * 1024;
  return options;
}

int Serve(const std::string& dir, int deltas) {
  Service service(DurableOptions(dir));
  uint64_t epoch = 0;
  if (service.ListStores().empty()) {
    if (!service.CreateDatabase("demo", Database()).ok()) {
      std::fprintf(stderr, "serve: CreateDatabase failed\n");
      return 1;
    }
    std::printf("serve: created fresh store in %s\n", dir.c_str());
  } else {
    Result<Service::OpenStoreResponse> opened = service.OpenStore("demo");
    if (!opened.ok()) {
      std::fprintf(stderr, "serve: recovery failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    epoch = opened->epoch;
    std::printf("serve: recovered at epoch %llu (%llu replayed%s)\n",
                static_cast<unsigned long long>(opened->epoch),
                static_cast<unsigned long long>(opened->replayed),
                opened->torn_tail_recovered ? ", torn tail dropped" : "");
  }
  for (int i = 0; i < deltas; ++i) {
    Service::DeltaRequest req;
    req.database = "demo";
    req.delta = HistoryDelta(epoch + 1);
    Result<Service::DeltaResponse> applied = service.ApplyDelta(req);
    if (!applied.ok()) {
      std::fprintf(stderr, "serve: delta failed: %s\n",
                   applied.status().ToString().c_str());
      return 1;
    }
    epoch = applied->epoch;
    std::printf("epoch %llu\n", static_cast<unsigned long long>(epoch));
    std::fflush(stdout);  // the harness kills us on a line boundary
  }
  return 0;
}

int Verify(const std::string& dir, uint64_t min_epoch) {
  Service service(DurableOptions(dir));
  Result<Service::OpenStoreResponse> opened = service.OpenStore("demo");
  if (!opened.ok()) {
    std::fprintf(stderr, "verify: recovery failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::printf("verify: recovered at epoch %llu (%llu replayed%s)\n",
              static_cast<unsigned long long>(opened->epoch),
              static_cast<unsigned long long>(opened->replayed),
              opened->torn_tail_recovered ? ", torn tail dropped" : "");
  if (opened->epoch < min_epoch) {
    std::fprintf(stderr, "verify: epoch %llu below required minimum %llu\n",
                 static_cast<unsigned long long>(opened->epoch),
                 static_cast<unsigned long long>(min_epoch));
    return 1;
  }

  // The oracle: the history is a function of the epoch, so recovery to
  // epoch E must mean EXACTLY the first E deltas, bit for bit.
  Database oracle;
  for (uint64_t e = 1; e <= opened->epoch; ++e) {
    if (!ApplyDeltaToDatabase(HistoryDelta(e), &oracle).ok()) {
      std::fprintf(stderr, "verify: oracle replay broke at epoch %llu\n",
                   static_cast<unsigned long long>(e));
      return 1;
    }
  }

  // Certain-answer agreement is the end-to-end check: serve the join
  // query from BOTH the recovered store and a memory-only service
  // holding the oracle replay, and compare rows.
  Query q = DemoQuery();
  std::vector<SymbolId> fv = {InternSymbol("x")};
  Service oracle_service;
  if (!oracle_service.CreateDatabase("demo", std::move(oracle)).ok()) {
    return 1;
  }
  Service::CertainAnswersRequest req;
  req.database = "demo";
  req.query = q;
  req.free_vars = fv;
  req.page_size = 1 << 20;
  Result<Service::CertainAnswersResponse> served =
      service.CertainAnswers(req);
  Result<Service::CertainAnswersResponse> expected =
      oracle_service.CertainAnswers(req);
  if (!served.ok() || !expected.ok()) {
    std::fprintf(stderr, "verify: CertainAnswers failed: %s\n",
                 (served.ok() ? expected : served).status().ToString()
                     .c_str());
    return 1;
  }
  if (!std::equal(served->rows.begin(), served->rows.end(),
                  expected->rows.begin(), expected->rows.end())) {
    std::fprintf(stderr,
                 "verify: served %zu certain answers, oracle has %zu\n",
                 served->rows.size(), expected->rows.size());
    return 1;
  }
  std::printf("verify: %zu certain answers match the oracle replay\n",
              served->rows.size());
  return 0;
}

int Demo() {
  std::printf("=== durable databases tour ===\n");
  store::MemEnv env;  // in-memory disk so the tour leaves no files
  Service::Options options;
  options.num_threads = 2;
  options.durability.dir = "/tour";
  options.durability.env = &env;
  {
    Service service(options);
    service.CreateDatabase("demo", Database()).ok();
    for (uint64_t e = 1; e <= 5; ++e) {
      Service::DeltaRequest req;
      req.database = "demo";
      req.delta = HistoryDelta(e);
      service.ApplyDelta(req).ok();
    }
    std::printf("applied 5 deltas; WAL is the only copy of them\n");
  }
  // Tear the final WAL record by hand — what SIGKILL mid-append leaves.
  std::string wal = store::JoinPath("/tour/demo", store::WalFileName(0));
  std::string bytes = env.FileContent(wal).value();
  env.SetFileContent(wal, bytes.substr(0, bytes.size() - 4)).ok();
  std::printf("tore the last WAL record (crash mid-append)\n");

  Service service(options);
  Result<Service::OpenStoreResponse> opened = service.OpenStore("demo");
  if (!opened.ok()) return 1;
  std::printf("recovered: epoch %llu, %llu replayed, torn tail %s\n",
              static_cast<unsigned long long>(opened->epoch),
              static_cast<unsigned long long>(opened->replayed),
              opened->torn_tail_recovered ? "dropped" : "none");
  return opened->epoch == 4 && opened->torn_tail_recovered ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0 && argc == 4) {
    return Serve(argv[2], std::atoi(argv[3]));
  }
  if (argc >= 2 && std::strcmp(argv[1], "verify") == 0 && argc == 4) {
    return Verify(argv[2], std::strtoull(argv[3], nullptr, 10));
  }
  if (argc == 2 && std::strcmp(argv[1], "demo") == 0) {
    return Demo();
  }
  if (argc == 1) return Demo();
  std::fprintf(stderr,
               "usage: %s [demo | serve <dir> <deltas> | verify <dir> "
               "<min-epoch>]\n",
               argv[0]);
  return 2;
}
