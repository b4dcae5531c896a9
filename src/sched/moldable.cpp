#include "ptask/sched/moldable.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <stdexcept>

namespace ptask::sched {

TaskTimeTable::TaskTimeTable(const core::TaskGraph& graph,
                             const cost::CostModel& cost, int total_cores,
                             MoldableCostMode mode)
    : total_cores_(total_cores), num_tasks_(graph.num_tasks()) {
  if (total_cores <= 0) {
    throw std::invalid_argument("core count must be positive");
  }
  times_.reserve(static_cast<std::size_t>(graph.num_tasks()) *
                 static_cast<std::size_t>(total_cores));
  for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    // Orthogonal collectives are inter-task exchanges and never part of
    // T(t, p); price the task without them.
    core::MTask task(graph.task(id).name(), graph.task(id).work_flop());
    task.set_max_cores(graph.task(id).max_cores());
    if (mode == MoldableCostMode::CommAware) {
      for (const core::CollectiveOp& op : graph.task(id).comms()) {
        if (op.scope != core::CommScope::Orthogonal) task.add_comm(op);
      }
    }
    for (int p = 1; p <= total_cores; ++p) {
      times_.push_back(cost.symbolic_task_time(task, p, 1, total_cores));
    }
  }
}

double TaskTimeTable::time(core::TaskId id, int p) const {
  if (p < 1 || p > total_cores_) throw std::out_of_range("bad core count");
  if (id < 0 || id >= num_tasks_) throw std::out_of_range("bad task id");
  return row(id)[p - 1];
}

namespace {

constexpr int kWordBits = 64;

/// The lowest `n` set bits of `m` (all of them when it has at most `n`).
std::uint64_t lowest_bits(std::uint64_t m, int n) {
  if (std::popcount(m) <= n) return m;
  std::uint64_t taken = 0;
  for (; n > 0; --n) {
    taken |= m & (~m + 1);
    m &= m - 1;
  }
  return taken;
}

}  // namespace

ListScheduler::ListScheduler(const core::TaskGraph& graph,
                             const TaskTimeTable& table)
    : table_(&table),
      P_(table.total_cores()),
      words_(static_cast<std::size_t>((P_ + kWordBits - 1) / kWordBits)),
      order_(graph.topological_order()) {
  const std::size_t n = static_cast<std::size_t>(graph.num_tasks());
  for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
    const std::vector<core::TaskId>& succ = graph.successors(id);
    const std::vector<core::TaskId>& pred = graph.predecessors(id);
    succ_ids_.insert(succ_ids_.end(), succ.begin(), succ.end());
    pred_ids_.insert(pred_ids_.end(), pred.begin(), pred.end());
    succ_off_.push_back(static_cast<int>(succ_ids_.size()));
    pred_off_.push_back(static_cast<int>(pred_ids_.size()));
  }
  task_time_.resize(n);
  bottom_.resize(n);
  ready_time_.resize(n);
  start_.resize(n);
  finish_.resize(n);
  remaining_preds_.resize(n);
  task_bits_.assign(n * words_, 0);
  task_lo_.assign(n, 0);
  task_hi_.assign(n, 0);
  pred_.assign(words_, 0);
}

int ListScheduler::take_slot() {
  if (free_slots_.empty()) {
    const int slot = static_cast<int>(pool_.size() / words_);
    pool_.resize(pool_.size() + words_, 0);
    return slot;
  }
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

GanttSchedule ListScheduler::schedule(std::span<const int> allocation) {
  GanttSchedule gantt;
  gantt.total_cores = P_;
  gantt.makespan = makespan(allocation);
  gantt.slots.resize(order_.size());
  for (core::TaskId id = 0; id < static_cast<int>(order_.size()); ++id) {
    const std::size_t i = static_cast<std::size_t>(id);
    TaskSlot& slot = gantt.slots[i];
    slot.cores.reserve(static_cast<std::size_t>(allocation[i]));
    const std::uint64_t* bits = task_bits(id);
    for (int w = task_lo_[i]; w < task_hi_[i]; ++w) {
      for (std::uint64_t m = bits[w]; m != 0; m &= m - 1) {
        slot.cores.push_back(w * kWordBits + std::countr_zero(m));
      }
    }
    slot.start = start_[i];
    slot.finish = finish_[i];
  }
  return gantt;
}

double ListScheduler::makespan(std::span<const int> allocation,
                               double abort_above) {
  const int n = static_cast<int>(order_.size());
  if (static_cast<int>(allocation.size()) != n) {
    throw std::invalid_argument("one allocation entry per task required");
  }
  for (core::TaskId id = 0; id < n; ++id) {
    const int p = allocation[static_cast<std::size_t>(id)];
    if (p < 1 || p > P_) throw std::out_of_range("bad core count");
    task_time_[static_cast<std::size_t>(id)] = table_->row(id)[p - 1];
  }
  // Bottom levels, as core::critical_path computes them.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const std::size_t i = static_cast<std::size_t>(*it);
    double below = 0.0;
    for (int e = succ_off_[i]; e < succ_off_[i + 1]; ++e) {
      below = std::max(below, bottom_[static_cast<std::size_t>(succ_ids_[e])]);
    }
    bottom_[i] = below + task_time_[i];
  }
  ready_.clear();
  for (core::TaskId id = 0; id < n; ++id) {
    const std::size_t i = static_cast<std::size_t>(id);
    remaining_preds_[i] = pred_off_[i + 1] - pred_off_[i];
    ready_time_[i] = 0.0;
    if (remaining_preds_[i] == 0) ready_.push_back(id);
  }

  // Every core free at time 0: one full block.
  for (const Block& block : blocks_) {
    std::fill(block_bits(block) + block.lo, block_bits(block) + block.hi, 0);
    free_slots_.push_back(block.slot);
  }
  blocks_.clear();
  const Block all{0.0, P_, 0, static_cast<int>(words_), take_slot()};
  std::uint64_t* all_bits = block_bits(all);
  std::fill(all_bits, all_bits + words_, ~std::uint64_t{0});
  if (P_ % kWordBits != 0) {
    all_bits[words_ - 1] = (std::uint64_t{1} << (P_ % kWordBits)) - 1;
  }
  blocks_.push_back(all);

  double makespan = 0.0;
  while (!ready_.empty()) {
    // Pick the ready task with the largest bottom level.
    const auto it = std::max_element(
        ready_.begin(), ready_.end(), [&](core::TaskId a, core::TaskId b) {
          return bottom_[static_cast<std::size_t>(a)] <
                 bottom_[static_cast<std::size_t>(b)];
        });
    const core::TaskId id = *it;
    ready_.erase(it);
    const std::size_t i = static_cast<std::size_t>(id);

    // The start time is fixed by the p-th earliest-free core.
    const int p = allocation[i];
    double kth_free = 0.0;
    int seen = 0;
    for (const Block& block : blocks_) {
      seen += block.count;
      if (seen >= p) {
        kth_free = block.free;
        break;
      }
    }
    start_[i] = std::max(ready_time_[i], kth_free);
    finish_[i] = start_[i] + task_time_[i];
    place(id, p, start_[i], finish_[i]);
    makespan = std::max(makespan, finish_[i]);
    if (makespan > abort_above) return makespan;

    for (int e = succ_off_[i]; e < succ_off_[i + 1]; ++e) {
      const core::TaskId s = succ_ids_[e];
      ready_time_[static_cast<std::size_t>(s)] =
          std::max(ready_time_[static_cast<std::size_t>(s)], finish_[i]);
      if (--remaining_preds_[static_cast<std::size_t>(s)] == 0) {
        ready_.push_back(s);
      }
    }
  }
  return makespan;
}

void ListScheduler::place(core::TaskId id, int p, double start,
                          double finish) {
  const std::size_t i = static_cast<std::size_t>(id);
  // Predecessor cores, and the words that can hold them.
  int pred_lo = static_cast<int>(words_);
  int pred_hi = 0;
  for (int e = pred_off_[i]; e < pred_off_[i + 1]; ++e) {
    const core::TaskId pr = pred_ids_[e];
    const std::size_t j = static_cast<std::size_t>(pr);
    const std::uint64_t* bits = task_bits(pr);
    for (int w = task_lo_[j]; w < task_hi_[j]; ++w) pred_[w] |= bits[w];
    pred_lo = std::min(pred_lo, task_lo_[j]);
    pred_hi = std::max(pred_hi, task_hi_[j]);
  }

  std::uint64_t* mine = task_bits(id);
  std::fill(mine + task_lo_[i], mine + task_hi_[i], 0);
  int lo = static_cast<int>(words_);
  int hi = 0;
  int need = p;
  const auto take = [&](Block& block, int w, std::uint64_t candidates) {
    const std::uint64_t m = lowest_bits(candidates, need);
    block_bits(block)[w] &= ~m;
    block.count -= std::popcount(m);
    need -= std::popcount(m);
    mine[w] |= m;
    lo = std::min(lo, w);
    hi = std::max(hi, w + 1);
  };
  // Any core free by `start` is an equally good pick, so the predecessor
  // cores among them go first, in (free time, index) order: blocks in
  // ascending free time, bits in ascending index.
  for (Block& block : blocks_) {
    if (need == 0 || block.free > start) break;
    const std::uint64_t* bits = block_bits(block);
    const int end = std::min(block.hi, pred_hi);
    for (int w = std::max(block.lo, pred_lo); w < end && need > 0; ++w) {
      if ((bits[w] & pred_[w]) != 0) take(block, w, bits[w] & pred_[w]);
    }
  }
  // Backfill with the earliest-free other cores.  At least p cores are
  // free by `start`, so these are too.
  for (Block& block : blocks_) {
    if (need == 0) break;
    const std::uint64_t* bits = block_bits(block);
    for (int w = block.lo; w < block.hi && need > 0; ++w) {
      if ((bits[w] & ~pred_[w]) != 0) take(block, w, bits[w] & ~pred_[w]);
    }
  }
  for (int w = pred_lo; w < pred_hi; ++w) pred_[w] = 0;
  task_lo_[i] = lo;
  task_hi_[i] = hi;

  // Drop the emptied blocks (their bitsets are all zero again) and tighten
  // the word ranges of the rest.
  std::size_t kept = 0;
  for (Block& block : blocks_) {
    if (block.count == 0) {
      free_slots_.push_back(block.slot);
      continue;
    }
    const std::uint64_t* bits = block_bits(block);
    while (bits[block.lo] == 0) ++block.lo;
    while (bits[block.hi - 1] == 0) --block.hi;
    blocks_[kept++] = block;
  }
  blocks_.resize(kept);

  // The chosen cores all become free at `finish`.
  const auto pos = std::lower_bound(
      blocks_.begin(), blocks_.end(), finish,
      [](const Block& block, double t) { return block.free < t; });
  if (pos != blocks_.end() && pos->free == finish) {
    std::uint64_t* bits = block_bits(*pos);
    for (int w = lo; w < hi; ++w) bits[w] |= mine[w];
    pos->count += p;
    pos->lo = std::min(pos->lo, lo);
    pos->hi = std::max(pos->hi, hi);
    return;
  }
  const std::ptrdiff_t at = pos - blocks_.begin();
  const Block block{finish, p, lo, hi, take_slot()};
  std::copy(mine + lo, mine + hi, block_bits(block) + lo);
  blocks_.insert(blocks_.begin() + at, block);
}

GanttSchedule list_schedule(const core::TaskGraph& graph,
                            std::span<const int> allocation,
                            const TaskTimeTable& table) {
  return ListScheduler(graph, table).schedule(allocation);
}

}  // namespace ptask::sched
