#include "ptask/cost/cost_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "ptask/net/collectives.hpp"

namespace ptask::cost {

std::vector<int> LayerLayout::all_cores() const {
  std::vector<int> cores;
  cores.reserve(static_cast<std::size_t>(total_cores()));
  for (const GroupLayout& g : groups) {
    cores.insert(cores.end(), g.cores.begin(), g.cores.end());
  }
  return cores;
}

CostModel::CostModel(arch::Machine machine)
    : machine_(std::move(machine)), link_(machine_) {}

double CostModel::symbolic_compute_time(const core::MTask& task, int q) const {
  if (q <= 0) throw std::invalid_argument("core count must be positive");
  const int effective = std::min(q, task.max_cores());
  return task.work_flop() /
         (static_cast<double>(effective) * machine_.spec().sustained_flops());
}

namespace {

double uniform_collective_time(const core::CollectiveOp& op, int participants,
                               std::size_t per_rank_bytes,
                               const arch::LinkParams& link) {
  switch (op.kind) {
    case core::CollectiveKind::Bcast:
      return net::bcast_time_uniform(participants, op.data_bytes, link);
    case core::CollectiveKind::Allgather:
      return net::allgather_time_uniform(participants, per_rank_bytes, link);
    case core::CollectiveKind::Allreduce:
      return net::allreduce_time_uniform(participants, op.data_bytes, link);
    case core::CollectiveKind::Barrier:
      return net::barrier_time_uniform(participants, link);
    case core::CollectiveKind::Exchange:
      return net::exchange_time_uniform(participants, op.data_bytes, link);
  }
  throw std::logic_error("invalid collective kind");
}

}  // namespace

double CostModel::symbolic_comm_time(const core::MTask& task, int q,
                                     int num_groups, int total_cores) const {
  if (q <= 0 || num_groups <= 0 || total_cores <= 0) {
    throw std::invalid_argument("positive sizes required");
  }
  // Default mapping pattern: every operation priced on the slowest network.
  const arch::LinkParams& slow = machine_.link(arch::CommLevel::InterNode);
  double total = 0.0;
  for (const core::CollectiveOp& op : task.comms()) {
    int participants = q;
    std::size_t per_rank = op.data_bytes / static_cast<std::size_t>(q);
    switch (op.scope) {
      case core::CommScope::Global:
        participants = total_cores;
        per_rank = op.data_bytes / static_cast<std::size_t>(total_cores);
        break;
      case core::CommScope::Group:
        break;
      case core::CommScope::Orthogonal:
        // One participant per concurrent group; each contributes its group's
        // per-core block.
        participants = num_groups;
        per_rank = op.data_bytes / static_cast<std::size_t>(q);
        break;
    }
    total += static_cast<double>(op.repeat) *
             uniform_collective_time(op, participants, per_rank, slow);
  }
  return total;
}

double CostModel::symbolic_task_time(const core::MTask& task, int q,
                                     int num_groups, int total_cores) const {
  return symbolic_compute_time(task, q) +
         symbolic_comm_time(task, q, num_groups, total_cores);
}

bool CostModel::depends_on_num_groups(const core::MTask& task) {
  for (const core::CollectiveOp& op : task.comms()) {
    if (op.scope == core::CommScope::Orthogonal) return true;
  }
  return false;
}

net::MessageSchedule CostModel::collective_schedule(
    const core::CollectiveOp& op, int q) {
  if (q <= 1) return {};
  const std::size_t per_rank = op.data_bytes / static_cast<std::size_t>(q);
  switch (op.kind) {
    case core::CollectiveKind::Bcast:
      return net::binomial_bcast(q, 0, op.data_bytes);
    case core::CollectiveKind::Allgather:
      return net::allgather(q, per_rank);
    case core::CollectiveKind::Allreduce:
      return net::allreduce(q, op.data_bytes);
    case core::CollectiveKind::Barrier:
      return net::barrier(q);
    case core::CollectiveKind::Exchange:
      return net::ring_exchange(q, op.data_bytes);
  }
  throw std::logic_error("invalid collective kind");
}

double CostModel::mapped_collective_time(const core::CollectiveOp& op,
                                         const LayerLayout& layout,
                                         std::size_t group_index) const {
  if (group_index >= layout.groups.size()) {
    throw std::out_of_range("group index out of range");
  }
  switch (op.scope) {
    case core::CommScope::Global: {
      const std::vector<int> cores = layout.all_cores();
      const net::MessageSchedule schedule =
          collective_schedule(op, static_cast<int>(cores.size()));
      return link_.schedule_time(schedule, cores);
    }
    case core::CommScope::Group: {
      // All groups run the (structurally identical) group collective at the
      // same time; charge the merged contention and return the makespan.
      std::vector<net::MessageSchedule> schedules;
      std::vector<std::vector<int>> placements;
      for (const GroupLayout& g : layout.groups) {
        // Payload convention: data_bytes is the group-local vector size, so
        // each group's per-rank contribution is data_bytes / |group|.
        schedules.push_back(collective_schedule(op, g.size()));
        placements.push_back(g.cores);
      }
      return link_.concurrent_schedule_time(schedules, placements);
    }
    case core::CommScope::Orthogonal: {
      // Communicator j = the j-th core of every group; all positions run
      // concurrently.
      int min_size = layout.groups.front().size();
      for (const GroupLayout& g : layout.groups) {
        min_size = std::min(min_size, g.size());
      }
      const int g_count = static_cast<int>(layout.groups.size());
      if (g_count <= 1 || min_size <= 0) return 0.0;
      // Per orthogonal rank the payload is one group's per-core block:
      // data_bytes / q of the owning group; use the layer's modal group size.
      core::CollectiveOp per_position = op;
      per_position.data_bytes =
          op.data_bytes / static_cast<std::size_t>(min_size) *
          static_cast<std::size_t>(g_count);
      // collective_schedule divides by participant count (g_count), so the
      // per-rank block below equals data_bytes / min_size as intended.
      std::vector<net::MessageSchedule> schedules;
      std::vector<std::vector<int>> placements;
      for (int j = 0; j < min_size; ++j) {
        std::vector<int> comm;
        comm.reserve(static_cast<std::size_t>(g_count));
        for (const GroupLayout& g : layout.groups) {
          comm.push_back(g.cores[static_cast<std::size_t>(j)]);
        }
        schedules.push_back(collective_schedule(per_position, g_count));
        placements.push_back(std::move(comm));
      }
      return link_.concurrent_schedule_time(schedules, placements);
    }
  }
  throw std::logic_error("invalid communication scope");
}

double CostModel::mapped_task_time(const core::MTask& task,
                                   const LayerLayout& layout,
                                   std::size_t group_index) const {
  const GroupLayout& group = layout.groups.at(group_index);
  double total = symbolic_compute_time(task, group.size());
  for (const core::CollectiveOp& op : task.comms()) {
    total += static_cast<double>(op.repeat) *
             mapped_collective_time(op, layout, group_index);
  }
  return total;
}

double CostModel::redistribution_time(const dist::RedistributionPlan& plan,
                                      std::span<const int> src_cores,
                                      std::span<const int> dst_cores) const {
  if (plan.empty()) return 0.0;
  // Translate group-local ranks into one combined placement: sources first,
  // then destinations.
  std::vector<int> placement(src_cores.begin(), src_cores.end());
  std::vector<net::Message> messages;
  messages.reserve(plan.transfers().size());
  // Destination cores may coincide with source cores (same group); reuse the
  // source slot in that case so the placement stays injective.
  std::vector<int> dst_rank(dst_cores.size());
  for (std::size_t d = 0; d < dst_cores.size(); ++d) {
    const auto it =
        std::find(placement.begin(), placement.end(), dst_cores[d]);
    if (it != placement.end()) {
      dst_rank[d] = static_cast<int>(it - placement.begin());
    } else {
      dst_rank[d] = static_cast<int>(placement.size());
      placement.push_back(dst_cores[d]);
    }
  }
  for (const dist::Transfer& t : plan.transfers()) {
    const int src = static_cast<int>(t.src_rank);
    const int dst = dst_rank.at(t.dst_rank);
    if (src == dst) continue;  // same physical core: free
    messages.push_back(net::Message{src, dst, t.bytes});
  }
  const net::MessageSchedule schedule = net::redistribution_rounds(messages);
  return link_.schedule_time(schedule, placement);
}

}  // namespace ptask::cost
