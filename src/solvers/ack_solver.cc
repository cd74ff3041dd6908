#include "solvers/ack_solver.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <map>

#include "core/classifier.h"
#include "core/cycles.h"
#include "cq/matcher.h"
#include "db/purify.h"

namespace cqa {

namespace internal {

int LayeredCycleSolver::VertexId(int layer, SymbolId constant) {
  auto key = std::make_pair(layer, constant);
  auto it = vertex_ids_.find(key);
  if (it != vertex_ids_.end()) return it->second;
  int id = static_cast<int>(vertices_.size());
  vertex_ids_.emplace(key, id);
  vertices_.push_back(key);
  adj_.emplace_back();
  return id;
}

void LayeredCycleSolver::AddEdge(int layer, SymbolId from, SymbolId to,
                                 int fact_id) {
  int u = VertexId(layer, from);
  int v = VertexId((layer + 1) % k_, to);
  adj_[u].push_back(Edge{v, fact_id});
}

void LayeredCycleSolver::ForbidCycle(const std::vector<SymbolId>& cycle) {
  assert(static_cast<int>(cycle.size()) == k_);
  forbidden_.insert(cycle);
}

std::optional<std::vector<int>> LayeredCycleSolver::FindFalsifyingChoice() {
  int n = num_vertices();
  if (n == 0) return std::vector<int>{};  // Empty repair falsifies q.

  Digraph g(n);
  for (int v = 0; v < n; ++v) {
    for (const Edge& e : adj_[v]) g[v].push_back(e.to);
  }
  std::vector<int> comp = TarjanScc(g);

  // marked_edge[v]: index into adj_[v] of the chosen outgoing edge.
  std::vector<int> marked_edge(n, -1);
  int num_comps = comp.empty() ? 0
                               : *std::max_element(comp.begin(), comp.end()) +
                                     1;

  for (int c = 0; c < num_comps; ++c) {
    std::vector<int> members;
    for (int v = 0; v < n; ++v) {
      if (comp[v] == c) members.push_back(v);
    }
    bool found_good = false;

    // Both searches walk exactly k edges from a layer-0 root. Every
    // k-cycle passes layer 0 exactly once, and every elementary cycle of
    // length > k also passes layer 0, so layer-0 roots are complete.
    std::vector<int> walk_vertices;  // a_1 .. a_{m+1} (root first).
    std::vector<int> walk_edges;     // Edge index taken at a_i.

    // Case A: a k-cycle that is not forbidden.
    std::function<bool(int, int)> FindFreeKCycle = [&](int root,
                                                       int v) -> bool {
      if (static_cast<int>(walk_edges.size()) == k_) {
        if (v != root) return false;
        std::vector<SymbolId> cycle(k_);
        for (int i = 0; i < k_; ++i) {
          cycle[i] = vertices_[walk_vertices[i]].second;
        }
        if (forbidden_.count(cycle)) return false;
        for (int i = 0; i < k_; ++i) {
          marked_edge[walk_vertices[i]] = walk_edges[i];
        }
        return true;
      }
      for (int ei = 0; ei < static_cast<int>(adj_[v].size()); ++ei) {
        int to = adj_[v][ei].to;
        if (comp[to] != c) continue;
        walk_vertices.push_back(to);
        walk_edges.push_back(ei);
        if (FindFreeKCycle(root, to)) return true;
        walk_vertices.pop_back();
        walk_edges.pop_back();
      }
      return false;
    };

    // Case B: an elementary cycle longer than k, via the paper's
    // criterion — a k-step walk a_1..a_{k+1} with a_1 != a_{k+1} and a
    // return path from a_{k+1} to a_1 avoiding {a_1..a_k} x V edges.
    std::function<bool(int, int)> FindLongCycle = [&](int root,
                                                      int v) -> bool {
      if (static_cast<int>(walk_edges.size()) == k_) {
        int tail = v;
        if (tail == root) return false;
        std::vector<char> walk_member(n, 0);
        for (int i = 0; i < k_; ++i) walk_member[walk_vertices[i]] = 1;
        std::vector<int> parent_vertex(n, -1), parent_edge(n, -1);
        std::deque<int> queue{tail};
        parent_vertex[tail] = tail;
        bool reached = false;
        while (!queue.empty() && !reached) {
          int cur = queue.front();
          queue.pop_front();
          if (walk_member[cur]) continue;  // Out-edges of the walk banned.
          for (int ei = 0; ei < static_cast<int>(adj_[cur].size()); ++ei) {
            int to = adj_[cur][ei].to;
            if (parent_vertex[to] != -1) continue;
            parent_vertex[to] = cur;
            parent_edge[to] = ei;
            if (to == root) {
              reached = true;
              break;
            }
            queue.push_back(to);
          }
        }
        if (!reached) return false;
        for (int i = 0; i < k_; ++i) {
          marked_edge[walk_vertices[i]] = walk_edges[i];
        }
        for (int cur = root; cur != tail;) {
          int pv = parent_vertex[cur];
          marked_edge[pv] = parent_edge[cur];
          cur = pv;
        }
        return true;
      }
      for (int ei = 0; ei < static_cast<int>(adj_[v].size()); ++ei) {
        int to = adj_[v][ei].to;
        if (comp[to] != c) continue;
        walk_vertices.push_back(to);
        walk_edges.push_back(ei);
        if (FindLongCycle(root, to)) return true;
        walk_vertices.pop_back();
        walk_edges.pop_back();
      }
      return false;
    };

    for (int root : members) {
      if (vertices_[root].first != 0) continue;
      walk_vertices.assign(1, root);
      walk_edges.clear();
      if (!forbid_all_ && FindFreeKCycle(root, root)) {
        found_good = true;
        break;
      }
      walk_vertices.assign(1, root);
      walk_edges.clear();
      if (FindLongCycle(root, root)) {
        found_good = true;
        break;
      }
    }

    if (!found_good) {
      // Some strong component admits no good cycle: every choice marks a
      // forbidden cycle, hence every repair satisfies q.
      return std::nullopt;
    }
  }

  // Extend the marked cycles to a full choice: every unmarked vertex
  // takes its first edge on a shortest path towards a marked vertex
  // (distances strictly decrease, so no new cycles are created).
  std::vector<int> dist(n, -1);
  std::deque<int> queue;
  // Reverse adjacency for the multi-source BFS.
  std::vector<std::vector<std::pair<int, int>>> radj(n);  // (from, edge idx)
  for (int v = 0; v < n; ++v) {
    for (int ei = 0; ei < static_cast<int>(adj_[v].size()); ++ei) {
      radj[adj_[v][ei].to].emplace_back(v, ei);
    }
  }
  for (int v = 0; v < n; ++v) {
    if (marked_edge[v] != -1) {
      dist[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    int cur = queue.front();
    queue.pop_front();
    for (auto [from, ei] : radj[cur]) {
      if (dist[from] == -1) {
        dist[from] = dist[cur] + 1;
        marked_edge[from] = ei;
        queue.push_back(from);
      }
    }
  }
  std::vector<int> choice;
  choice.reserve(n);
  for (int v = 0; v < n; ++v) {
    if (marked_edge[v] == -1) {
      // Unreachable vertex (cannot happen on purified inputs, where every
      // vertex shares a strong component with a marked cycle).
      return std::nullopt;
    }
    choice.push_back(adj_[v][marked_edge[v]].fact_id);
  }
  return choice;
}

}  // namespace internal

namespace {

struct AckInstance {
  internal::LayeredCycleSolver solver;
  PurifiedView view;
  SymbolId s_relation = 0;
};

Result<AckInstance> BuildInstance(const Database& db, const Query& q,
                                  const std::optional<AckShape>& shape) {
  if (!shape.has_value()) {
    return Status::InvalidArgument("query does not match AC(k)");
  }
  int k = shape->cycle.k;
  AckInstance inst{internal::LayeredCycleSolver(k), PurifyView(db, q),
                   q.atom(shape->s_atom).relation()};

  // Layer of each R relation: position of its key variable in the cycle.
  std::map<SymbolId, int> layer_of;
  for (int i = 0; i < k; ++i) {
    layer_of[q.atom(shape->cycle.atom_order[i]).relation()] = i;
  }
  for (int b = 0; b < static_cast<int>(db.blocks().size()); ++b) {
    if (!inst.view.kept[b]) continue;
    for (int fid : db.blocks()[b].fact_ids) {
      const Fact& f = db.facts()[fid];
      auto it = layer_of.find(f.relation());
      if (it != layer_of.end()) {
        inst.solver.AddEdge(it->second, f.values()[0], f.values()[1], fid);
      } else if (f.relation() == inst.s_relation) {
        inst.solver.ForbidCycle(f.values());
      }
    }
  }
  return inst;
}

}  // namespace

AckSolver::AckSolver(Query q)
    : Solver(std::move(q)), shape_(MatchAckPattern(query_)) {}

Result<SolverCall> AckSolver::Decide(EvalContext& ctx) const {
  Result<AckInstance> inst = BuildInstance(ctx.db(), query_, shape_);
  if (!inst.ok()) return inst.status();
  SolverCall call;
  call.certain = !inst->solver.FindFalsifyingChoice().has_value();
  return call;
}

Result<std::optional<std::vector<Fact>>> AckSolver::FindFalsifyingRepair(
    EvalContext& ctx) const {
  Result<AckInstance> inst = BuildInstance(ctx.db(), query_, shape_);
  if (!inst.ok()) return inst.status();
  SolverCall call;
  call.certain = false;  // updated below once the choice is known
  std::optional<std::vector<int>> choice =
      inst->solver.FindFalsifyingChoice();
  call.certain = !choice.has_value();
  stats_.Record(call);
  if (!choice.has_value()) return std::optional<std::vector<Fact>>();
  const Database& db = ctx.db();
  std::vector<Fact> repair;
  // Chosen R facts (one per R block, i.e. per vertex).
  for (int fid : *choice) repair.push_back(db.facts()[fid]);
  // Surviving S facts (all-key: singleton blocks are in every repair).
  for (int b = 0; b < static_cast<int>(db.blocks().size()); ++b) {
    if (inst->view.kept[b] && db.blocks()[b].relation == inst->s_relation) {
      repair.push_back(db.facts()[db.blocks()[b].fact_ids[0]]);
    }
  }
  // Witnesses of blocks removed during purification (Lemma 1 lift).
  for (int fid : inst->view.witnesses) repair.push_back(db.facts()[fid]);
  return std::optional<std::vector<Fact>>(std::move(repair));
}

}  // namespace cqa
