#include "ptask/sched/timeline.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

namespace ptask::sched {

namespace {

struct TaskLocation {
  std::size_t layer = 0;
  int group = 0;
};

std::vector<TaskLocation> locate_tasks(const LayeredSchedule& schedule) {
  const int n = schedule.contraction.contracted.num_tasks();
  std::vector<TaskLocation> loc(static_cast<std::size_t>(n),
                                TaskLocation{static_cast<std::size_t>(-1), -1});
  for (std::size_t li = 0; li < schedule.layers.size(); ++li) {
    const ScheduledLayer& layer = schedule.layers[li];
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      loc[static_cast<std::size_t>(layer.tasks[i])] =
          TaskLocation{li, layer.task_group[i]};
    }
  }
  return loc;
}

/// Lowered form of one re-distribution: a message schedule over an explicit
/// placement (flat core ids).  Replicated -> replicated moves become a
/// binomial broadcast from the producer's first core to the destination
/// cores that do not already hold the data; everything else becomes the
/// pairwise transfer rounds of the element-wise plan.
struct RedistLowering {
  std::vector<int> placement;
  net::MessageSchedule schedule;
  bool empty() const { return schedule.empty(); }
};

RedistLowering lower_redistribution(const RedistributionEdge& edge,
                                    const cost::GroupLayout& src,
                                    const cost::GroupLayout& dst) {
  RedistLowering lowering;
  const std::size_t n_elems = edge.bytes / sizeof(double);
  if (n_elems == 0) return lowering;

  if (edge.src_dist.is_replicated() && edge.dst_dist.is_replicated()) {
    lowering.placement.push_back(src.cores.front());
    for (int core : dst.cores) {
      if (std::find(src.cores.begin(), src.cores.end(), core) ==
          src.cores.end()) {
        lowering.placement.push_back(core);
      }
    }
    if (lowering.placement.size() > 1) {
      lowering.schedule = net::binomial_bcast(
          static_cast<int>(lowering.placement.size()), 0, edge.bytes);
    }
    return lowering;
  }

  const bool same = src.cores == dst.cores;
  const dist::RedistributionPlan plan = dist::RedistributionPlan::compute(
      n_elems, sizeof(double), edge.src_dist,
      static_cast<std::size_t>(src.size()), edge.dst_dist,
      static_cast<std::size_t>(dst.size()), same);
  if (plan.empty()) return lowering;

  lowering.placement.assign(src.cores.begin(), src.cores.end());
  std::vector<int> dst_rank(dst.cores.size());
  for (std::size_t d = 0; d < dst.cores.size(); ++d) {
    const auto it = std::find(lowering.placement.begin(),
                              lowering.placement.end(), dst.cores[d]);
    if (it != lowering.placement.end()) {
      dst_rank[d] = static_cast<int>(it - lowering.placement.begin());
    } else {
      dst_rank[d] = static_cast<int>(lowering.placement.size());
      lowering.placement.push_back(dst.cores[d]);
    }
  }
  std::vector<net::Message> messages;
  for (const dist::Transfer& t : plan.transfers()) {
    const int s = static_cast<int>(t.src_rank);
    const int d = dst_rank.at(t.dst_rank);
    if (s == d) continue;
    messages.push_back(net::Message{s, d, t.bytes});
  }
  lowering.schedule = net::redistribution_rounds(messages);
  return lowering;
}

}  // namespace

std::vector<RedistributionEdge> redistribution_edges(
    const LayeredSchedule& schedule) {
  const core::TaskGraph& graph = schedule.contraction.contracted;
  const std::vector<TaskLocation> loc = locate_tasks(schedule);

  std::vector<RedistributionEdge> edges;
  for (core::TaskId producer = 0; producer < graph.num_tasks(); ++producer) {
    if (graph.task(producer).is_marker()) continue;
    for (core::TaskId consumer : graph.successors(producer)) {
      if (graph.task(consumer).is_marker()) continue;
      const TaskLocation& pl = loc[static_cast<std::size_t>(producer)];
      const TaskLocation& cl = loc[static_cast<std::size_t>(consumer)];
      if (pl.group < 0 || cl.group < 0) continue;
      // Match output parameters of the producer with input parameters of the
      // consumer by name.  The *last* matching output wins (latest write
      // inside a contracted chain).
      for (const core::Param& in : graph.task(consumer).params()) {
        if (!in.is_input) continue;
        const core::Param* out = nullptr;
        for (const core::Param& p : graph.task(producer).params()) {
          if (p.is_output && p.name == in.name) out = &p;
        }
        if (out == nullptr) continue;
        RedistributionEdge edge;
        edge.producer = producer;
        edge.consumer = consumer;
        edge.producer_layer = pl.layer;
        edge.consumer_layer = cl.layer;
        edge.producer_group = pl.group;
        edge.consumer_group = cl.group;
        edge.param_name = in.name;
        edge.bytes = std::min(out->bytes, in.bytes);
        edge.src_dist = out->distribution;
        edge.dst_dist = in.distribution;
        edges.push_back(std::move(edge));
      }
    }
  }
  return edges;
}

double gantt_redistribution_time(const core::TaskGraph& graph,
                                 const GanttSchedule& schedule,
                                 const cost::CostModel& cost) {
  const arch::LinkParams& slow =
      cost.machine().link(arch::CommLevel::InterNode);
  double total = 0.0;
  for (core::TaskId producer = 0; producer < graph.num_tasks(); ++producer) {
    if (graph.task(producer).is_marker()) continue;
    const TaskSlot& src_slot =
        schedule.slots[static_cast<std::size_t>(producer)];
    if (src_slot.cores.empty()) continue;
    for (core::TaskId consumer : graph.successors(producer)) {
      if (graph.task(consumer).is_marker()) continue;
      const TaskSlot& dst_slot =
          schedule.slots[static_cast<std::size_t>(consumer)];
      if (dst_slot.cores.empty() || src_slot.cores == dst_slot.cores) continue;
      for (const core::Param& in : graph.task(consumer).params()) {
        if (!in.is_input) continue;
        const core::Param* out = nullptr;
        for (const core::Param& p : graph.task(producer).params()) {
          if (p.is_output && p.name == in.name) out = &p;
        }
        if (out == nullptr) continue;
        RedistributionEdge edge;
        edge.bytes = std::min(out->bytes, in.bytes);
        edge.src_dist = out->distribution;
        edge.dst_dist = in.distribution;
        const cost::GroupLayout src{src_slot.cores};
        const cost::GroupLayout dst{dst_slot.cores};
        const RedistLowering lowering = lower_redistribution(edge, src, dst);
        for (const net::Round& round : lowering.schedule) {
          std::size_t max_bytes = 0;
          for (const net::Message& m : round.messages) {
            max_bytes = std::max(max_bytes, m.bytes);
          }
          total += slow.transfer_time(max_bytes);
        }
      }
    }
  }
  return total;
}

TimelineResult TimelineEvaluator::evaluate(
    const LayeredSchedule& schedule,
    std::span<const cost::LayerLayout> layouts,
    const TimelineOptions& options) const {
  if (layouts.size() != schedule.layers.size()) {
    throw std::invalid_argument("one layout per layer required");
  }
  const core::TaskGraph& graph = schedule.contraction.contracted;

  std::unique_ptr<cost::HybridCostModel> hybrid;
  if (options.threads_per_rank > 1) {
    cost::HybridConfig config;
    config.threads_per_rank = options.threads_per_rank;
    hybrid = std::make_unique<cost::HybridCostModel>(cost_->machine(), config);
  }

  TimelineResult result;
  result.layer_times.reserve(schedule.layers.size());
  for (std::size_t li = 0; li < schedule.layers.size(); ++li) {
    const ScheduledLayer& layer = schedule.layers[li];
    const cost::LayerLayout& layout = layouts[li];
    std::vector<double> group_time(layout.groups.size(), 0.0);
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      const std::size_t g = static_cast<std::size_t>(layer.task_group[i]);
      const core::MTask& task = graph.task(layer.tasks[i]);
      group_time[g] += hybrid != nullptr
                           ? hybrid->mapped_task_time(task, layout, g)
                           : cost_->mapped_task_time(task, layout, g);
    }
    const double layer_time =
        group_time.empty()
            ? 0.0
            : *std::max_element(group_time.begin(), group_time.end());
    result.layer_times.push_back(layer_time);
    result.makespan += layer_time;
  }

  if (options.include_redistribution) {
    const net::LinkModel link(cost_->machine());
    for (const RedistributionEdge& edge : redistribution_edges(schedule)) {
      const cost::GroupLayout& src =
          layouts[edge.producer_layer]
              .groups[static_cast<std::size_t>(edge.producer_group)];
      const cost::GroupLayout& dst =
          layouts[edge.consumer_layer]
              .groups[static_cast<std::size_t>(edge.consumer_group)];
      const RedistLowering lowering = lower_redistribution(edge, src, dst);
      if (lowering.empty()) continue;
      result.redistribution_time +=
          link.schedule_time(lowering.schedule, lowering.placement);
    }
    result.makespan += result.redistribution_time;
  }
  return result;
}

sim::SimResult TimelineEvaluator::simulate(
    const LayeredSchedule& schedule,
    std::span<const cost::LayerLayout> layouts,
    const TimelineOptions& options) const {
  if (layouts.size() != schedule.layers.size()) {
    throw std::invalid_argument("one layout per layer required");
  }
  const core::TaskGraph& graph = schedule.contraction.contracted;
  const arch::Machine& machine = cost_->machine();

  // Rank space: the union of cores used by any layer, in first-seen order.
  std::vector<int> rank_cores;
  std::map<int, int> rank_of;
  for (const cost::LayerLayout& layout : layouts) {
    for (const cost::GroupLayout& g : layout.groups) {
      for (int core : g.cores) {
        if (rank_of.emplace(core, static_cast<int>(rank_cores.size())).second) {
          rank_cores.push_back(core);
        }
      }
    }
  }
  const int nranks = static_cast<int>(rank_cores.size());
  sim::ProgramSet programs(nranks);
  std::vector<int> all_ranks(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) all_ranks[static_cast<std::size_t>(r)] = r;

  const std::vector<RedistributionEdge> redist =
      options.include_redistribution ? redistribution_edges(schedule)
                                     : std::vector<RedistributionEdge>{};

  // Hybrid execution: collectives run over the rank sub-layout (every t-th
  // core), every collective pays two team synchronizations, and compute is
  // derated by the team efficiency -- mirroring cost::HybridCostModel in
  // the simulated path.
  const int threads = std::max(1, options.threads_per_rank);
  std::unique_ptr<cost::HybridCostModel> hybrid;
  if (threads > 1) {
    cost::HybridConfig config;
    config.threads_per_rank = threads;
    hybrid = std::make_unique<cost::HybridCostModel>(cost_->machine(), config);
  }

  auto group_ranks = [&](const cost::GroupLayout& g) {
    std::vector<int> ranks;
    ranks.reserve(g.cores.size());
    for (int core : g.cores) ranks.push_back(rank_of.at(core));
    return ranks;
  };
  /// Communicator ranks of a group: all cores (pure MPI) or one rank per
  /// team anchor core (hybrid).
  auto comm_ranks = [&](const cost::GroupLayout& g) {
    if (hybrid == nullptr) return group_ranks(g);
    std::vector<int> ranks;
    for (std::size_t i = 0; i < g.cores.size();
         i += static_cast<std::size_t>(threads)) {
      ranks.push_back(rank_of.at(g.cores[i]));
    }
    return ranks;
  };
  auto team_sync_seconds = [&](const cost::GroupLayout& g) {
    if (hybrid == nullptr || g.size() < threads) return 0.0;
    return hybrid->team_sync_time(threads, hybrid->team_span(g, 0));
  };

  const net::MessageSchedule layer_barrier = net::barrier(nranks);

  for (std::size_t li = 0; li < schedule.layers.size(); ++li) {
    const ScheduledLayer& layer = schedule.layers[li];
    const cost::LayerLayout& layout = layouts[li];

    // Re-distributions feeding this layer.
    for (const RedistributionEdge& edge : redist) {
      if (edge.consumer_layer != li) continue;
      const cost::GroupLayout& src =
          layouts[edge.producer_layer]
              .groups[static_cast<std::size_t>(edge.producer_group)];
      const cost::GroupLayout& dst =
          layout.groups[static_cast<std::size_t>(edge.consumer_group)];
      const RedistLowering lowering = lower_redistribution(edge, src, dst);
      if (lowering.empty()) continue;
      std::vector<int> redist_ranks;
      redist_ranks.reserve(lowering.placement.size());
      for (int core : lowering.placement) {
        redist_ranks.push_back(rank_of.at(core));
      }
      programs.add_collective(lowering.schedule, redist_ranks);
    }

    // Tasks, group by group (tasks of one group run back-to-back in
    // assignment order on the group's ranks).
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      const std::size_t g = static_cast<std::size_t>(layer.task_group[i]);
      const core::MTask& task = graph.task(layer.tasks[i]);
      const cost::GroupLayout& group = layout.groups[g];
      const std::vector<int> ranks = group_ranks(group);
      const std::vector<int> collective_ranks = comm_ranks(group);
      const double sync = team_sync_seconds(group);

      programs.add_compute(ranks,
                           cost_->symbolic_compute_time(task, group.size()) +
                               sync);
      for (const core::CollectiveOp& op : task.comms()) {
        if (sync > 0.0) {
          programs.add_compute(ranks,
                               2.0 * sync * static_cast<double>(op.repeat));
        }
        const int explicit_reps =
            std::min(op.repeat, options.max_explicit_repeats);
        for (int rep = 0; rep < explicit_reps; ++rep) {
          switch (op.scope) {
            case core::CommScope::Global: {
              std::vector<int> global_ranks;
              for (const cost::GroupLayout& gg : layout.groups) {
                for (int rank : comm_ranks(gg)) global_ranks.push_back(rank);
              }
              const net::MessageSchedule s =
                  cost::CostModel::collective_schedule(
                      op, static_cast<int>(global_ranks.size()));
              programs.add_collective(s, global_ranks);
              break;
            }
            case core::CommScope::Group: {
              const net::MessageSchedule s =
                  cost::CostModel::collective_schedule(
                      op, static_cast<int>(collective_ranks.size()));
              programs.add_collective(s, collective_ranks);
              break;
            }
            case core::CommScope::Orthogonal: {
              int min_size = layout.groups.front().size();
              for (const cost::GroupLayout& gg : layout.groups) {
                min_size = std::min(min_size, gg.size());
              }
              const int g_count = static_cast<int>(layout.groups.size());
              if (g_count <= 1) break;
              core::CollectiveOp per_position = op;
              per_position.data_bytes =
                  op.data_bytes / static_cast<std::size_t>(min_size) *
                  static_cast<std::size_t>(g_count);
              const net::MessageSchedule s =
                  cost::CostModel::collective_schedule(per_position, g_count);
              // Only the positions this group owns add ops for their ranks;
              // lowering once per position covers all groups, so do it only
              // when processing the first group-assigned task that has the
              // op -- to keep things simple we lower it for group 0's task
              // only (all groups run it jointly).
              if (g == 0 || layer.num_groups() == 1) {
                // Under hybrid execution only the team anchor cores (every
                // t-th position) carry ranks that communicate.
                for (int j = 0; j < min_size; j += threads) {
                  std::vector<int> comm;
                  comm.reserve(static_cast<std::size_t>(g_count));
                  for (const cost::GroupLayout& gg : layout.groups) {
                    comm.push_back(
                        rank_of.at(gg.cores[static_cast<std::size_t>(j)]));
                  }
                  programs.add_collective(s, comm);
                }
              }
              break;
            }
          }
        }
        if (op.repeat > explicit_reps) {
          // Charge the residual repetitions as analytically priced busy time.
          const double once = cost_->mapped_collective_time(op, layout, g);
          programs.add_compute(
              ranks, static_cast<double>(op.repeat - explicit_reps) * once);
        }
      }
    }

    if (options.barrier_between_layers && li + 1 < schedule.layers.size()) {
      programs.add_collective(layer_barrier, all_ranks);
    }
  }

  const sim::NetworkSim simulator(machine, rank_cores);
  return simulator.run(programs, options.record_trace);
}

namespace {

const LayeredSchedule& require_layers(const Schedule& schedule) {
  if (!schedule.has_layers()) {
    throw std::invalid_argument(
        "schedule '" + schedule.strategy +
        "' has no layer structure for the timeline evaluator");
  }
  return schedule.layered;
}

}  // namespace

TimelineResult TimelineEvaluator::evaluate(
    const Schedule& schedule, std::span<const cost::LayerLayout> layouts,
    const TimelineOptions& options) const {
  return evaluate(require_layers(schedule), layouts, options);
}

sim::SimResult TimelineEvaluator::simulate(
    const Schedule& schedule, std::span<const cost::LayerLayout> layouts,
    const TimelineOptions& options) const {
  return simulate(require_layers(schedule), layouts, options);
}

}  // namespace ptask::sched
