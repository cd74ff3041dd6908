// classify_query: a small CLI around the tractability-frontier
// classifier (the paper's main deliverable).
//
// Usage:
//   classify_query                       # classifies the built-in corpus
//   classify_query "R(x | y), S(y | x)"  # classifies one query
//   classify_query --dot "R(x | y), S(y | x)"   # + Graphviz output
//
// Query syntax: atoms comma-separated; `|` splits the primary key from
// the other positions; quoted or numeric tokens are constants.

#include <cstdio>
#include <cstring>
#include <string>

#include "cqa.h"

namespace {

void Report(const std::string& name, const cqa::Query& q, bool dot) {
  using namespace cqa;
  std::printf("=== %s ===\n%s\n", name.c_str(), q.ToString().c_str());
  Result<Classification> cls = ClassifyQuery(q);
  if (!cls.ok()) {
    std::printf("  -> %s\n\n", cls.status().ToString().c_str());
    return;
  }
  std::printf("%s", cls->explanation.c_str());
  std::printf("  => CERTAINTY(q) is %s\n",
              ComplexityClassName(cls->complexity));
  if (cls->complexity == ComplexityClass::kFirstOrder) {
    // The rewriting as the SQLite backend runs it: relations are tables
    // of interned-symbol INTEGER columns (fo/sql_lower.h).
    Result<std::shared_ptr<const QueryPlan>> plan = QueryPlan::Compile(q);
    if (plan.ok() && (*plan)->fo_program() != nullptr) {
      Result<std::string> sql = BooleanSolveSql(*(*plan)->fo_program());
      if (sql.ok()) {
        std::printf("  SQL certain rewriting:\n    %s\n", sql->c_str());
      }
    }
  }
  std::printf("\n");
  if (dot && cls->attack_graph.has_value()) {
    std::printf("%s\n", AttackGraphToDot(*cls->attack_graph).c_str());
    Result<JoinTree> tree = BuildJoinTree(q);
    if (tree.ok()) {
      std::printf("%s\n", JoinTreeToDot(*tree, q).c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool dot = false;
  std::string text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dot") == 0) {
      dot = true;
    } else {
      text = argv[i];
    }
  }
  if (!text.empty()) {
    cqa::Result<cqa::Query> q = cqa::ParseQuery(text);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      return 1;
    }
    Report("query", *q, dot);
    return 0;
  }
  for (const auto& [name, q] : cqa::corpus::AllNamedQueries()) {
    Report(name, q, dot);
  }
  return 0;
}
