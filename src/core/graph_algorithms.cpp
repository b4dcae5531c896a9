#include "ptask/core/graph_algorithms.hpp"

#include <algorithm>
#include <stdexcept>

namespace ptask::core {

namespace {

/// True if the edge u -> v may be an interior link of a linear chain.
bool chainable(const TaskGraph& g, TaskId u, TaskId v) {
  return g.out_degree(u) == 1 && g.in_degree(v) == 1 && !g.task(u).is_marker() &&
         !g.task(v).is_marker();
}

}  // namespace

ChainContraction contract_linear_chains(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  ChainContraction result;
  result.representative.assign(static_cast<std::size_t>(n), kInvalidTask);

  // Identify chain heads: a task is a head unless its unique predecessor
  // chains into it.
  std::vector<bool> is_head(static_cast<std::size_t>(n), true);
  for (TaskId u = 0; u < n; ++u) {
    if (graph.out_degree(u) == 1) {
      const TaskId v = graph.successors(u).front();
      if (chainable(graph, u, v)) is_head[static_cast<std::size_t>(v)] = false;
    }
  }

  // Walk every chain from its head and create the contracted node.
  for (TaskId head = 0; head < n; ++head) {
    if (!is_head[static_cast<std::size_t>(head)]) continue;
    std::vector<TaskId> chain{head};
    TaskId cur = head;
    while (graph.out_degree(cur) == 1) {
      const TaskId next = graph.successors(cur).front();
      if (!chainable(graph, cur, next)) break;
      chain.push_back(next);
      cur = next;
    }

    MTask merged = graph.task(head);
    if (chain.size() > 1) {
      merged.set_name("chain(" + graph.task(chain.front()).name() + ".." +
                      graph.task(chain.back()).name() + ")");
      for (std::size_t i = 1; i < chain.size(); ++i) {
        const MTask& t = graph.task(chain[i]);
        merged.add_work_flop(t.work_flop());
        for (const CollectiveOp& op : t.comms()) merged.add_comm(op);
        for (const Param& p : t.params()) merged.add_param(p);
        merged.set_max_cores(std::min(merged.max_cores(), t.max_cores()));
      }
    }
    const TaskId c = result.contracted.add_task(std::move(merged));
    result.members.push_back(chain);
    for (TaskId member : chain) {
      result.representative[static_cast<std::size_t>(member)] = c;
    }
  }

  // Re-create edges between distinct contracted nodes.  The bulk insert
  // dedups and runs one Kahn pass over the whole contracted graph, instead
  // of a per-edge reachability probe -- same resulting adjacency (first
  // occurrence wins), but linear instead of quadratic on dense inputs.
  std::vector<std::pair<TaskId, TaskId>> edges;
  edges.reserve(static_cast<std::size_t>(graph.num_edges()));
  for (TaskId u = 0; u < n; ++u) {
    for (TaskId v : graph.successors(u)) {
      const TaskId cu = result.representative[static_cast<std::size_t>(u)];
      const TaskId cv = result.representative[static_cast<std::size_t>(v)];
      if (cu != cv) edges.push_back({cu, cv});
    }
  }
  result.contracted.add_edges(edges);
  return result;
}

ChainContraction identity_contraction(const TaskGraph& graph) {
  ChainContraction result;
  result.contracted = graph;
  result.members.resize(static_cast<std::size_t>(graph.num_tasks()));
  result.representative.resize(static_cast<std::size_t>(graph.num_tasks()));
  for (TaskId id = 0; id < graph.num_tasks(); ++id) {
    result.members[static_cast<std::size_t>(id)] = {id};
    result.representative[static_cast<std::size_t>(id)] = id;
  }
  return result;
}

std::vector<std::vector<TaskId>> greedy_layers(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  std::vector<int> remaining_preds(static_cast<std::size_t>(n));
  for (TaskId id = 0; id < n; ++id) {
    remaining_preds[static_cast<std::size_t>(id)] = graph.in_degree(id);
  }

  std::vector<std::vector<TaskId>> layers;
  std::vector<TaskId> frontier;
  for (TaskId id = 0; id < n; ++id) {
    if (remaining_preds[static_cast<std::size_t>(id)] == 0) {
      frontier.push_back(id);
    }
  }

  int emitted = 0;
  while (!frontier.empty()) {
    std::vector<TaskId> layer;
    std::vector<TaskId> next;
    for (TaskId id : frontier) {
      if (!graph.task(id).is_marker()) layer.push_back(id);
      ++emitted;
      for (TaskId s : graph.successors(id)) {
        if (--remaining_preds[static_cast<std::size_t>(s)] == 0) {
          next.push_back(s);
        }
      }
    }
    if (!layer.empty()) layers.push_back(std::move(layer));
    frontier = std::move(next);
  }
  if (emitted != n) throw std::logic_error("task graph contains a cycle");
  return layers;
}

double walk_critical_path(const TaskGraph& graph,
                          std::span<const double> bottom_level,
                          std::vector<TaskId>& path) {
  path.clear();
  double length = 0.0;
  TaskId cur = kInvalidTask;
  for (TaskId id = 0; id < graph.num_tasks(); ++id) {
    const double len = bottom_level[static_cast<std::size_t>(id)];
    if (graph.in_degree(id) == 0 && len > length) {
      length = len;
      cur = id;
    }
  }
  while (cur != kInvalidTask) {
    path.push_back(cur);
    TaskId next = kInvalidTask;
    double best = -1.0;
    for (TaskId s : graph.successors(cur)) {
      const double len = bottom_level[static_cast<std::size_t>(s)];
      if (len > best) {
        best = len;
        next = s;
      }
    }
    cur = next;
  }
  return length;
}

void critical_path(const TaskGraph& graph, std::span<const TaskId> order,
                   std::span<const double> task_time, CriticalPathInfo& info) {
  const int n = graph.num_tasks();
  if (static_cast<int>(task_time.size()) != n) {
    throw std::invalid_argument("one task time per task required");
  }
  info.bottom_level.resize(static_cast<std::size_t>(n));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId id = *it;
    double below = 0.0;
    for (TaskId s : graph.successors(id)) {
      below = std::max(below, info.bottom_level[static_cast<std::size_t>(s)]);
    }
    info.bottom_level[static_cast<std::size_t>(id)] =
        below + task_time[static_cast<std::size_t>(id)];
  }
  info.length = walk_critical_path(graph, info.bottom_level, info.path);
}

CriticalPathInfo critical_path(const TaskGraph& graph,
                               std::span<const double> task_time) {
  const std::vector<TaskId> order = graph.topological_order();
  CriticalPathInfo info;
  critical_path(graph, order, task_time, info);
  info.top_level.assign(order.size(), 0.0);
  for (TaskId id : order) {
    double top = 0.0;
    for (TaskId p : graph.predecessors(id)) {
      top = std::max(top, info.top_level[static_cast<std::size_t>(p)] +
                              task_time[static_cast<std::size_t>(p)]);
    }
    info.top_level[static_cast<std::size_t>(id)] = top;
  }
  return info;
}

TaskGraph repeat_graph(const TaskGraph& step, int repetitions) {
  if (repetitions < 1) throw std::invalid_argument("need >= 1 repetition");
  TaskGraph program;
  std::vector<TaskId> prev_map;  // previous copy: original id -> program id

  for (int rep = 0; rep < repetitions; ++rep) {
    std::vector<TaskId> map(static_cast<std::size_t>(step.num_tasks()),
                            kInvalidTask);
    for (TaskId id = 0; id < step.num_tasks(); ++id) {
      if (step.task(id).is_marker()) continue;
      MTask copy = step.task(id);
      copy.set_name(copy.name() + "#" + std::to_string(rep));
      map[static_cast<std::size_t>(id)] = program.add_task(std::move(copy));
    }
    for (TaskId from = 0; from < step.num_tasks(); ++from) {
      if (step.task(from).is_marker()) continue;
      for (TaskId to : step.successors(from)) {
        if (step.task(to).is_marker()) continue;
        program.add_edge(map[static_cast<std::size_t>(from)],
                         map[static_cast<std::size_t>(to)]);
      }
    }
    if (rep > 0) {
      // Sinks of the previous copy feed the sources of this one.
      for (TaskId id = 0; id < step.num_tasks(); ++id) {
        const MTask& t = step.task(id);
        if (t.is_marker()) continue;
        bool is_sink = true;
        for (TaskId s : step.successors(id)) {
          if (!step.task(s).is_marker()) is_sink = false;
        }
        if (!is_sink) continue;
        for (TaskId src = 0; src < step.num_tasks(); ++src) {
          const MTask& st = step.task(src);
          if (st.is_marker()) continue;
          bool is_source = true;
          for (TaskId p : step.predecessors(src)) {
            if (!step.task(p).is_marker()) is_source = false;
          }
          if (!is_source) continue;
          program.add_edge(prev_map[static_cast<std::size_t>(id)],
                           map[static_cast<std::size_t>(src)]);
        }
      }
    }
    prev_map = std::move(map);
  }
  return program;
}

}  // namespace ptask::core
