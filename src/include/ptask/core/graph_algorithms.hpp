#pragma once
/// \file graph_algorithms.hpp
/// Structural algorithms on M-task graphs used by the schedulers:
/// linear-chain contraction and greedy layer partitioning (paper Section
/// 3.2, steps 1 and 2), plus critical-path machinery for CPA/CPR.

#include <span>
#include <vector>

#include "ptask/core/task_graph.hpp"

namespace ptask::core {

/// Result of replacing every maximal linear chain by a single node.
struct ChainContraction {
  TaskGraph contracted;
  /// members[c] lists the original task ids merged into contracted task c,
  /// in chain order (singleton for tasks that were not part of a chain).
  std::vector<std::vector<TaskId>> members;
  /// representative[orig] is the contracted node containing `orig`.
  std::vector<TaskId> representative;
};

/// Contracts all maximal linear chains (paper Section 3.2, step 1).
///
/// A linear chain is a path v1 -> v2 -> ... -> vk (k >= 2) where every
/// interior link satisfies out_degree(vi) == 1 and in_degree(vi+1) == 1.
/// The merged node accumulates the members' work and internal communication,
/// takes the most restrictive max_cores, and -- by construction -- forces all
/// chain members onto the same core group, avoiding re-distributions inside
/// the chain.  Marker tasks never participate in chains.
ChainContraction contract_linear_chains(const TaskGraph& graph);

/// The identity contraction: every task is its own (singleton) chain.  Used
/// by schedulers that skip chain contraction but still produce results in
/// the contracted-id index space.
ChainContraction identity_contraction(const TaskGraph& graph);

/// Greedy breadth-first partition into layers of pairwise independent tasks
/// (paper Section 3.2, step 2): repeatedly emit every task whose predecessors
/// have all been emitted.  Marker tasks are skipped (they carry no
/// computation and belong to no layer).
std::vector<std::vector<TaskId>> greedy_layers(const TaskGraph& graph);

/// Longest-path data for CPA/CPR.  `task_time[id]` is the (allocation-
/// dependent) execution time of task id.
struct CriticalPathInfo {
  double length = 0.0;
  std::vector<double> top_level;     ///< longest path ending before the task
  std::vector<double> bottom_level;  ///< longest path starting at the task
  std::vector<TaskId> path;          ///< one critical path, in order
};

/// All of CriticalPathInfo, over a topological order built for this call.
CriticalPathInfo critical_path(const TaskGraph& graph,
                               std::span<const double> task_time);

/// Bottom levels, length and path (no top levels) over a caller-built
/// topological `order`, reusing the buffers of `info`.
void critical_path(const TaskGraph& graph, std::span<const TaskId> order,
                   std::span<const double> task_time, CriticalPathInfo& info);

/// Walks one critical path over `bottom_level` into `path` (the source with
/// the largest bottom level, then the largest successor each step; the
/// first wins a tie) and returns its length.
double walk_critical_path(const TaskGraph& graph,
                          std::span<const double> bottom_level,
                          std::vector<TaskId>& path);

/// Concatenates `repetitions` copies of a per-step graph into one program
/// graph: every (non-marker) sink of copy r feeds every (non-marker) source
/// of copy r+1, modelling the input-output relation that carries a solver's
/// state from one time step into the next.  Task names get a "#r" suffix;
/// markers are dropped (schedulers re-insert their own bookkeeping).
TaskGraph repeat_graph(const TaskGraph& step, int repetitions);

}  // namespace ptask::core
