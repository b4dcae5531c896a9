#pragma once
// Reference implementation of Algorithm 1: a verbatim transplant of the
// pre-refactor monolithic LayerScheduler (obs instrumentation stripped; it
// does not affect results).  Every candidate group count is priced, sorted
// and assigned in full through the plain cost model -- no row memo, no
// pruning, no early stop, no heap.  The equivalence tests compare every
// field of its output against the composed pipeline with exact == --
// including the doubles, because the pipeline promises bit-identical
// floating-point association order, not just agreement within a tolerance.
// The performance options it ignores (parallel_layers) must not change the
// result either.

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ptask/core/graph_algorithms.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/pipeline.hpp"

namespace ptask::sched {

class ReferenceLayerScheduler {
 public:
  ReferenceLayerScheduler(const cost::CostModel& cost,
                          LayerSchedulerOptions options = {})
      : cost_(&cost), options_(options) {}

  LayeredSchedule schedule(const core::TaskGraph& graph,
                           int total_cores) const {
    if (total_cores <= 0) {
      throw std::invalid_argument("core count must be positive");
    }
    LayeredSchedule result;
    result.total_cores = total_cores;
    if (options_.contract_chains) {
      result.contraction = core::contract_linear_chains(graph);
    } else {
      // Identity contraction.
      result.contraction.contracted = graph;
      result.contraction.members.resize(
          static_cast<std::size_t>(graph.num_tasks()));
      result.contraction.representative.resize(
          static_cast<std::size_t>(graph.num_tasks()));
      for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
        result.contraction.members[static_cast<std::size_t>(id)] = {id};
        result.contraction.representative[static_cast<std::size_t>(id)] = id;
      }
    }
    const core::TaskGraph& contracted = result.contraction.contracted;
    const std::vector<std::vector<core::TaskId>> layers =
        core::greedy_layers(contracted);
    result.layers.reserve(layers.size());
    for (const std::vector<core::TaskId>& layer_tasks : layers) {
      ScheduledLayer layer =
          schedule_layer(contracted, layer_tasks, total_cores);
      result.predicted_makespan += layer.predicted_time;
      result.layers.push_back(std::move(layer));
    }
    return result;
  }

 private:
  ScheduledLayer schedule_layer(const core::TaskGraph& graph,
                                const std::vector<core::TaskId>& tasks,
                                int total_cores) const {
    const int P = total_cores;
    const int n_tasks = static_cast<int>(tasks.size());
    int g_limit = std::min(P, n_tasks);
    int g_first = 1;
    if (options_.fixed_groups > 0) {
      g_first = g_limit = std::min(options_.fixed_groups, std::min(P, n_tasks));
    }

    ScheduledLayer best;
    double best_time = std::numeric_limits<double>::infinity();

    std::vector<std::size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), 0);

    for (int g = g_first; g <= g_limit; ++g) {
      const std::vector<int> sizes = equal_group_sizes(P, g);
      std::vector<double> time(tasks.size());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        time[i] =
            cost_->symbolic_task_time(graph.task(tasks[i]), sizes[0], g, P);
      }
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return time[a] > time[b];
      });

      std::vector<double> accumulated(static_cast<std::size_t>(g), 0.0);
      std::vector<int> task_group(tasks.size(), 0);
      for (std::size_t i : order) {
        const std::size_t target = static_cast<std::size_t>(
            std::min_element(accumulated.begin(), accumulated.end()) -
            accumulated.begin());
        const double t = cost_->symbolic_task_time(graph.task(tasks[i]),
                                                   sizes[target], g, P);
        accumulated[target] += t;
        task_group[i] = static_cast<int>(target);
      }
      const double t_act =
          *std::max_element(accumulated.begin(), accumulated.end());
      if (t_act < best_time) {
        best_time = t_act;
        best.tasks = tasks;
        best.group_sizes = sizes;
        best.task_group = task_group;
        best.predicted_time = t_act;
      }
    }

    if (options_.adjust_group_sizes && best.num_groups() > 1) {
      std::vector<double> work(static_cast<std::size_t>(best.num_groups()),
                               0.0);
      for (std::size_t i = 0; i < best.tasks.size(); ++i) {
        work[static_cast<std::size_t>(best.task_group[i])] +=
            graph.task(best.tasks[i]).work_flop();
      }
      best.group_sizes = proportional_group_sizes(P, work);
      std::vector<double> accumulated(
          static_cast<std::size_t>(best.num_groups()), 0.0);
      for (std::size_t i = 0; i < best.tasks.size(); ++i) {
        const std::size_t gidx = static_cast<std::size_t>(best.task_group[i]);
        accumulated[gidx] += cost_->symbolic_task_time(
            graph.task(best.tasks[i]), best.group_sizes[gidx],
            best.num_groups(), P);
      }
      best.predicted_time =
          *std::max_element(accumulated.begin(), accumulated.end());
    }
    return best;
  }

  const cost::CostModel* cost_;
  LayerSchedulerOptions options_;
};

}  // namespace ptask::sched
