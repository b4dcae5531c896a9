// Byte-identity of the list-scheduling workspace (ListScheduler,
// list_schedule), of CPR and of CPA/MCPA against verbatim copies of the
// implementations they replaced: a flat (free time, core index) vector kept
// sorted per placement, a CPR loop that built a full Gantt schedule per
// trial, and a CPA allocation loop that called the one-shot
// core::critical_path on every step.
// Allocations, every slot's cores/start/finish and the makespan are compared
// with exact ==, on all five fuzz families at the instance's own core count
// and at 64, 96 (a partial last bitset word) and 256 cores.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/core/graph_algorithms.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/fuzz/generator.hpp"
#include "ptask/fuzz/rng.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/sched/cpa_scheduler.hpp"
#include "ptask/sched/cpr_scheduler.hpp"
#include "ptask/sched/moldable.hpp"

namespace ptask::sched {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations, transplanted verbatim.  The only additions are
// the trial/acceptance counts of the CPR loop.
// ---------------------------------------------------------------------------

GanttSchedule reference_list_schedule(
    const core::TaskGraph& graph, std::span<const int> allocation,
    const TaskTimeTable& table,
    double abort_above = std::numeric_limits<double>::infinity()) {
  const int n = graph.num_tasks();
  const int P = table.total_cores();
  if (static_cast<int>(allocation.size()) != n) {
    throw std::invalid_argument("one allocation entry per task required");
  }

  std::vector<double> task_time(static_cast<std::size_t>(n));
  for (core::TaskId id = 0; id < n; ++id) {
    task_time[static_cast<std::size_t>(id)] =
        table.time(id, allocation[static_cast<std::size_t>(id)]);
  }
  const core::CriticalPathInfo cp = core::critical_path(graph, task_time);

  // Ready tasks ordered by decreasing bottom level.
  std::vector<int> remaining_preds(static_cast<std::size_t>(n));
  std::vector<double> ready_time(static_cast<std::size_t>(n), 0.0);
  std::vector<core::TaskId> ready;
  for (core::TaskId id = 0; id < n; ++id) {
    remaining_preds[static_cast<std::size_t>(id)] = graph.in_degree(id);
    if (remaining_preds[static_cast<std::size_t>(id)] == 0) {
      ready.push_back(id);
    }
  }

  std::vector<double> core_free(static_cast<std::size_t>(P), 0.0);
  // All cores in (free time, index) order -- the order a stable sort of
  // 0..P-1 by free time yields.  Kept incrementally as a flat sorted
  // vector: a placement gives all of its p cores the same new free time
  // (the task's finish), so one compaction pass plus one block insert at
  // the lower bound restores the order in O(P) with no allocations.  CPR
  // runs this scheduler once per trial widening, which is where the
  // difference to re-sorting every core for every task shows.
  std::vector<std::pair<double, int>> free_order(static_cast<std::size_t>(P));
  for (int c = 0; c < P; ++c) {
    free_order[static_cast<std::size_t>(c)] = {0.0, c};
  }
  std::vector<char> pred_core(static_cast<std::size_t>(P), 0);
  std::vector<char> chosen_core(static_cast<std::size_t>(P), 0);
  std::vector<int> pred_list;

  GanttSchedule gantt;
  gantt.total_cores = P;
  gantt.slots.resize(static_cast<std::size_t>(n));

  int scheduled = 0;
  while (!ready.empty()) {
    // Pick the ready task with the largest bottom level.
    const auto it = std::max_element(
        ready.begin(), ready.end(), [&](core::TaskId a, core::TaskId b) {
          return cp.bottom_level[static_cast<std::size_t>(a)] <
                 cp.bottom_level[static_cast<std::size_t>(b)];
        });
    const core::TaskId id = *it;
    ready.erase(it);

    const int p = allocation[static_cast<std::size_t>(id)];
    if (p < 1 || p > P) throw std::invalid_argument("allocation out of range");

    // Cores that become free earliest; among equally free cores, prefer the
    // cores of the task's predecessors (data affinity keeps chains on one
    // set of cores and avoids spurious re-distributions).
    pred_list.clear();
    for (core::TaskId pr : graph.predecessors(id)) {
      for (int c : gantt.slots[static_cast<std::size_t>(pr)].cores) {
        if (pred_core[static_cast<std::size_t>(c)] == 0) {
          pred_core[static_cast<std::size_t>(c)] = 1;
          pred_list.push_back(c);
        }
      }
    }
    // The start time is fixed by the p-th earliest-free core; any core free
    // by then is an equally good pick, so among those the predecessor cores
    // win (affinity costs nothing and avoids re-distribution).  The chosen
    // set is therefore: predecessor cores free by `start` first (in free
    // time order), then the other earliest-free cores -- at least p cores
    // are free by `start` by construction.
    double start = std::max(ready_time[static_cast<std::size_t>(id)],
                            free_order[static_cast<std::size_t>(p - 1)].first);
    TaskSlot& slot = gantt.slots[static_cast<std::size_t>(id)];
    slot.cores.clear();
    // The sorted prefix with free <= start holds every eligible core (at
    // least p of them, since the p-th earliest-free core bounds `start`);
    // walking it visits cores in (free time, index) order, so taking the
    // predecessor cores first and backfilling with the rest reproduces the
    // affinity tie-break exactly.
    for (std::size_t i = 0; i < free_order.size() &&
                            static_cast<int>(slot.cores.size()) < p;
         ++i) {
      if (free_order[i].first > start) break;
      if (pred_core[static_cast<std::size_t>(free_order[i].second)] != 0) {
        slot.cores.push_back(free_order[i].second);
      }
    }
    for (std::size_t i = 0; static_cast<int>(slot.cores.size()) < p; ++i) {
      if (pred_core[static_cast<std::size_t>(free_order[i].second)] == 0) {
        slot.cores.push_back(free_order[i].second);
      }
    }
    for (const int c : pred_list) pred_core[static_cast<std::size_t>(c)] = 0;
    std::sort(slot.cores.begin(), slot.cores.end());
    for (int c : slot.cores) {
      start = std::max(start, core_free[static_cast<std::size_t>(c)]);
    }
    slot.start = start;
    slot.finish = start + task_time[static_cast<std::size_t>(id)];
    // Restore the free order: drop the chosen cores, then merge them back
    // in from the rear -- they all share the finish time and come with
    // ascending indices, so they already form a sorted run.
    for (int c : slot.cores) {
      chosen_core[static_cast<std::size_t>(c)] = 1;
      core_free[static_cast<std::size_t>(c)] = slot.finish;
    }
    auto kept_end = std::remove_if(
        free_order.begin(), free_order.end(), [&](const auto& entry) {
          return chosen_core[static_cast<std::size_t>(entry.second)] != 0;
        });
    auto dst = free_order.end();
    for (std::size_t b = slot.cores.size(); b > 0;) {
      const std::pair<double, int> entry{
          slot.finish, slot.cores[static_cast<std::size_t>(b - 1)]};
      if (kept_end != free_order.begin() && *(kept_end - 1) > entry) {
        *--dst = *(--kept_end);
      } else {
        *--dst = entry;
        --b;
      }
    }
    for (int c : slot.cores) chosen_core[static_cast<std::size_t>(c)] = 0;
    gantt.makespan = std::max(gantt.makespan, slot.finish);
    ++scheduled;
    // Prune-cutoff for trial-and-reject callers: the makespan is monotone
    // in the placements, so exceeding the cutoff now decides the trial.
    // The returned schedule is partial; only its makespan is meaningful.
    if (gantt.makespan > abort_above) return gantt;

    for (core::TaskId s : graph.successors(id)) {
      ready_time[static_cast<std::size_t>(s)] =
          std::max(ready_time[static_cast<std::size_t>(s)], slot.finish);
      if (--remaining_preds[static_cast<std::size_t>(s)] == 0) {
        ready.push_back(s);
      }
    }
  }
  if (scheduled != n) throw std::logic_error("graph contains a cycle");
  return gantt;
}

struct CprCounts {
  std::uint64_t trials = 0;
  std::uint64_t accepted = 0;
};

MoldableResult reference_cpr(const core::TaskGraph& graph,
                             const cost::CostModel& cost, int total_cores,
                             MoldableCostMode mode, CprCounts* counts) {
  const int n = graph.num_tasks();
  const int P = total_cores;
  const TaskTimeTable table(graph, cost, P, mode);

  MoldableResult result;
  result.allocation.assign(static_cast<std::size_t>(n), 1);
  result.schedule = reference_list_schedule(graph, result.allocation, table);

  auto total_task_time = [&] {
    double total = 0.0;
    for (core::TaskId id = 0; id < n; ++id) {
      total += table.time(id, result.allocation[static_cast<std::size_t>(id)]);
    }
    return total;
  };

  std::vector<double> task_time(static_cast<std::size_t>(n));
  constexpr double kEps = 1e-15;
  bool improved = true;
  while (improved) {
    improved = false;
    for (core::TaskId id = 0; id < n; ++id) {
      task_time[static_cast<std::size_t>(id)] =
          table.time(id, result.allocation[static_cast<std::size_t>(id)]);
    }
    const core::CriticalPathInfo cp = core::critical_path(graph, task_time);
    const double sum_before = total_task_time();

    // Try the critical-path tasks in decreasing bottom-level order.
    std::vector<core::TaskId> candidates = cp.path;
    std::sort(candidates.begin(), candidates.end(),
              [&](core::TaskId a, core::TaskId b) {
                return cp.bottom_level[static_cast<std::size_t>(a)] >
                       cp.bottom_level[static_cast<std::size_t>(b)];
              });
    for (core::TaskId id : candidates) {
      const int p = result.allocation[static_cast<std::size_t>(id)];
      if (p >= P || p >= graph.task(id).max_cores()) continue;
      result.allocation[static_cast<std::size_t>(id)] = p + 1;
      ++counts->trials;
      // Cutoff prunes doomed trials: once the partial makespan exceeds
      // current + kEps neither the strict-improvement nor the tie branch
      // below can accept, so list_schedule stops placing tasks early.  The
      // decision is exactly the one the full schedule would produce (the
      // makespan only grows as tasks are placed).
      GanttSchedule trial = reference_list_schedule(
          graph, result.allocation, table, result.schedule.makespan + kEps);
      // Accept strict makespan improvements; on an exact tie, accept if the
      // sum of the task times shrank (this is what lets CPR make progress
      // through the plateau of a layer of equal independent tasks, where
      // widening any single task cannot move the makespan until all of them
      // widened).
      bool accept = trial.makespan < result.schedule.makespan - kEps;
      if (!accept && trial.makespan <= result.schedule.makespan + kEps) {
        accept = total_task_time() < sum_before - kEps;
      }
      if (accept) {
        ++counts->accepted;
        result.schedule = std::move(trial);
        improved = true;
        break;  // recompute the critical path with the new allocation
      }
      result.allocation[static_cast<std::size_t>(id)] = p;  // revert
    }
  }
  return result;
}

/// CPA's allocation loop.  The one change to the copy: the final schedule
/// comes from reference_list_schedule instead of list_schedule.
MoldableResult reference_cpa_allocate_and_schedule(
    const core::TaskGraph& graph, int P, const TaskTimeTable& table,
    const std::vector<int>& alloc_cap) {
  const int n = graph.num_tasks();
  MoldableResult result;
  result.allocation.assign(static_cast<std::size_t>(n), 1);

  std::vector<double> task_time(static_cast<std::size_t>(n));
  auto refresh_times = [&] {
    for (core::TaskId id = 0; id < n; ++id) {
      task_time[static_cast<std::size_t>(id)] =
          table.time(id, result.allocation[static_cast<std::size_t>(id)]);
    }
  };
  auto average_area = [&] {
    double area = 0.0;
    for (core::TaskId id = 0; id < n; ++id) {
      area += task_time[static_cast<std::size_t>(id)] *
              result.allocation[static_cast<std::size_t>(id)];
    }
    return area / static_cast<double>(P);
  };

  refresh_times();
  while (true) {
    const core::CriticalPathInfo cp = core::critical_path(graph, task_time);
    if (cp.length <= average_area()) break;

    core::TaskId best = core::kInvalidTask;
    double best_gain = 0.0;
    for (core::TaskId id : cp.path) {
      const int p = result.allocation[static_cast<std::size_t>(id)];
      if (p >= alloc_cap[static_cast<std::size_t>(id)] ||
          p >= graph.task(id).max_cores()) {
        continue;
      }
      if (table.time(id, p + 1) >= task_time[static_cast<std::size_t>(id)]) {
        continue;
      }
      const double gain = task_time[static_cast<std::size_t>(id)] / p -
                          table.time(id, p + 1) / (p + 1);
      if (best == core::kInvalidTask || gain > best_gain) {
        best = id;
        best_gain = gain;
      }
    }
    if (best == core::kInvalidTask || best_gain <= 0.0) break;
    result.allocation[static_cast<std::size_t>(best)] += 1;
    task_time[static_cast<std::size_t>(best)] =
        table.time(best, result.allocation[static_cast<std::size_t>(best)]);
  }

  result.schedule = reference_list_schedule(graph, result.allocation, table);
  return result;
}

MoldableResult reference_cpa(const core::TaskGraph& graph,
                             const cost::CostModel& cost, int total_cores,
                             MoldableCostMode mode) {
  const TaskTimeTable table(graph, cost, total_cores, mode);
  const std::vector<int> cap(static_cast<std::size_t>(graph.num_tasks()),
                             total_cores);
  return reference_cpa_allocate_and_schedule(graph, total_cores, table, cap);
}

MoldableResult reference_mcpa(const core::TaskGraph& graph,
                              const cost::CostModel& cost, int total_cores,
                              MoldableCostMode mode) {
  const TaskTimeTable table(graph, cost, total_cores, mode);
  // Level-width bound: a task in a precedence level of width w may use at
  // most ceil(P / w) cores, so the level as a whole fits the machine.
  std::vector<int> cap(static_cast<std::size_t>(graph.num_tasks()), 1);
  for (const std::vector<core::TaskId>& level : core::greedy_layers(graph)) {
    const int width = static_cast<int>(level.size());
    const int bound =
        std::max(1, (total_cores + width - 1) / std::max(1, width));
    for (core::TaskId id : level) {
      cap[static_cast<std::size_t>(id)] = bound;
    }
  }
  return reference_cpa_allocate_and_schedule(graph, total_cores, table, cap);
}

// ---------------------------------------------------------------------------

void expect_identical(const GanttSchedule& want, const GanttSchedule& got,
                      const std::string& label) {
  ASSERT_EQ(want.total_cores, got.total_cores) << label;
  ASSERT_EQ(want.slots.size(), got.slots.size()) << label;
  for (std::size_t i = 0; i < want.slots.size(); ++i) {
    const std::string where = label + " task " + std::to_string(i);
    ASSERT_EQ(want.slots[i].cores, got.slots[i].cores) << where;
    ASSERT_EQ(want.slots[i].start, got.slots[i].start) << where;
    ASSERT_EQ(want.slots[i].finish, got.slots[i].finish) << where;
  }
  ASSERT_EQ(want.makespan, got.makespan) << label;
}

void expect_identical(const MoldableResult& want, const MoldableResult& got,
                      const std::string& label) {
  ASSERT_EQ(want.allocation, got.allocation) << label;
  expect_identical(want.schedule, got.schedule, label);
}

/// The first `per_family` fuzz instances of every family, from one seed
/// stream.
std::vector<fuzz::Instance> instances_per_family(int per_family) {
  const std::uint64_t base =
      fuzz::substream(fuzz::seed_from_env(fuzz::kDefaultFuzzSeed), 0xC9A);
  const std::size_t wanted = 5u * static_cast<std::size_t>(per_family);
  std::array<int, 5> have{};
  std::vector<fuzz::Instance> out;
  for (std::uint64_t k = 0; out.size() < wanted; ++k) {
    fuzz::Instance inst = fuzz::random_instance(fuzz::substream(base, k));
    int& count = have[static_cast<std::size_t>(inst.family)];
    if (count == per_family) continue;
    ++count;
    out.push_back(std::move(inst));
  }
  return out;
}

TEST(CprReference, ReproducesReferenceOnAllFamilies) {
  int cases = 0;
  for (const fuzz::Instance& inst : instances_per_family(4)) {
    const arch::Machine m(inst.machine);
    const cost::CostModel cost(m);
    for (const int P : {inst.total_cores, 64, 96, 256}) {
      // CPR's default compute-only pricing and the comm-aware one.
      for (const MoldableCostMode mode :
           {MoldableCostMode::ComputeOnly, MoldableCostMode::CommAware}) {
        const std::string label =
            inst.name + " P=" + std::to_string(P) +
            (mode == MoldableCostMode::CommAware ? " comm-aware" : "");
        CprCounts counts;
        const MoldableResult want = reference_cpr(inst.graph, cost, P, mode,
                                                  &counts);
        expect_identical(want, CprScheduler(cost, mode).schedule(inst.graph, P),
                         label);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 5 * 4 * 4 * 2);
}

TEST(CpaReference, ReproducesReferenceOnAllFamilies) {
  int cases = 0;
  for (const fuzz::Instance& inst : instances_per_family(4)) {
    const arch::Machine m(inst.machine);
    const cost::CostModel cost(m);
    for (const int P : {inst.total_cores, 64, 96, 256}) {
      // The schedulers' default comm-aware pricing and the compute-only one.
      for (const MoldableCostMode mode :
           {MoldableCostMode::CommAware, MoldableCostMode::ComputeOnly}) {
        const std::string label =
            inst.name + " P=" + std::to_string(P) +
            (mode == MoldableCostMode::ComputeOnly ? " compute-only" : "");
        expect_identical(reference_cpa(inst.graph, cost, P, mode),
                         CpaScheduler(cost, mode).schedule(inst.graph, P),
                         "CPA " + label);
        expect_identical(reference_mcpa(inst.graph, cost, P, mode),
                         McpaScheduler(cost, mode).schedule(inst.graph, P),
                         "MCPA " + label);
        cases += 2;
      }
    }
  }
  EXPECT_EQ(cases, 5 * 4 * 4 * 2 * 2);
}

TEST(ListScheduleReference, ReproducesReferenceOnCpaAndMcpaAllocations) {
  int cases = 0;
  for (const fuzz::Instance& inst : instances_per_family(4)) {
    const arch::Machine m(inst.machine);
    const cost::CostModel cost(m);
    for (const int P : {inst.total_cores, 64, 96, 256}) {
      const TaskTimeTable table(inst.graph, cost, P);
      const std::string label = inst.name + " P=" + std::to_string(P);
      for (const MoldableResult& result :
           {CpaScheduler(cost).schedule(inst.graph, P),
            McpaScheduler(cost).schedule(inst.graph, P)}) {
        expect_identical(
            reference_list_schedule(inst.graph, result.allocation, table),
            list_schedule(inst.graph, result.allocation, table), label);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 5 * 4 * 4 * 2);
}

TEST(ListScheduleReference, ReproducesReferenceOnAWideGraphAtP1024) {
  // All-ones allocations keep hundreds of free-time blocks alive at once.
  fuzz::GeneratorParams params;
  params.max_width = 300;
  params.max_depth = 8;
  params.edge_density = 0.05;
  fuzz::Rng rng(fuzz::substream(fuzz::kDefaultFuzzSeed, 0x1ED));
  const core::TaskGraph graph = fuzz::layered_graph(rng, params);
  ASSERT_GE(graph.num_tasks(), 500);
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 256;
  const arch::Machine m(spec);
  const cost::CostModel cost(m);
  const TaskTimeTable table(graph, cost, 1024);
  const std::vector<int> ones(static_cast<std::size_t>(graph.num_tasks()), 1);
  expect_identical(reference_list_schedule(graph, ones, table),
                   list_schedule(graph, ones, table), "all ones, P=1024");
  // Mixed widths on the same graph, including whole-machine tasks.
  std::vector<int> mixed(ones.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = i % 97 == 0 ? 1024 : 1 + static_cast<int>((i * 37) % 150);
  }
  expect_identical(reference_list_schedule(graph, mixed, table),
                   list_schedule(graph, mixed, table), "mixed, P=1024");
}

TEST(ListScheduler, ReusedWorkspaceMatchesFreshRuns) {
  // One workspace across allocations and aborted trials gives the results
  // of a fresh workspace per call.
  const fuzz::Instance inst = instances_per_family(1)[0];
  const arch::Machine m(inst.machine);
  const cost::CostModel cost(m);
  const int P = 96;
  const TaskTimeTable table(inst.graph, cost, P);
  const std::vector<int> ones(static_cast<std::size_t>(inst.graph.num_tasks()),
                              1);
  const std::vector<int> wide(ones.size(), 40);
  ListScheduler list(inst.graph, table);
  const GanttSchedule wide_gantt = list.schedule(wide);
  const double aborted = list.makespan(ones, 0.0);
  EXPECT_GT(aborted, 0.0);
  EXPECT_LE(aborted, list.makespan(ones));
  expect_identical(reference_list_schedule(inst.graph, ones, table),
                   list.schedule(ones), "ones after wide");
  expect_identical(reference_list_schedule(inst.graph, wide, table),
                   list.schedule(wide), "wide after ones");
  expect_identical(wide_gantt, list_schedule(inst.graph, wide, table),
                   "fresh workspace");
}

TEST(ListScheduler, RejectsBadAllocationEntriesAndTaskIds) {
  const fuzz::Instance inst = instances_per_family(1)[0];
  const arch::Machine m(inst.machine);
  const cost::CostModel cost(m);
  const int P = 16;
  const TaskTimeTable table(inst.graph, cost, P);
  const int n = inst.graph.num_tasks();
  ListScheduler list(inst.graph, table);
  std::vector<int> allocation(static_cast<std::size_t>(n), 1);
  for (const int bad : {0, -1, P + 1}) {
    allocation.back() = bad;
    EXPECT_THROW(list.makespan(allocation), std::out_of_range) << bad;
    EXPECT_THROW(list.schedule(allocation), std::out_of_range) << bad;
  }
  allocation.back() = P;
  EXPECT_GT(list.makespan(allocation), 0.0);
  EXPECT_THROW(list.makespan(std::vector<int>(allocation.size() + 1, 1)),
               std::invalid_argument);
  // The checked accessor still rejects a bad task id and core count.
  EXPECT_THROW(table.time(-1, 1), std::out_of_range);
  EXPECT_THROW(table.time(n, 1), std::out_of_range);
  EXPECT_THROW(table.time(0, 0), std::out_of_range);
  EXPECT_THROW(table.time(0, P + 1), std::out_of_range);
  EXPECT_EQ(table.time(n - 1, P), table.row(n - 1)[P - 1]);
}

TEST(CprCounters, CountTrialsAndAcceptancesPerCall) {
  // Two independent equal tasks between a source and a sink, on 4 cores.
  core::TaskGraph g;
  const core::TaskId source = g.add_task(core::MTask("src", 1.0e9));
  const core::TaskId sink = g.add_task(core::MTask("sink", 1.0e9));
  for (int i = 0; i < 2; ++i) {
    const core::TaskId mid = g.add_task(core::MTask("mid" + std::to_string(i),
                                                    4.0e9));
    g.add_edge(source, mid);
    g.add_edge(mid, sink);
  }
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 1;
  const arch::Machine m(spec);
  const cost::CostModel cost(m);

  obs::metrics().reset();
  const MoldableResult result = CprScheduler(cost).schedule(g, 4);
  CprCounts counts;
  expect_identical(reference_cpr(g, cost, 4, MoldableCostMode::ComputeOnly,
                                 &counts),
                   result, "counters");
  EXPECT_EQ(obs::metrics().counter("sched.cpr.trials").value(), counts.trials);
  EXPECT_EQ(obs::metrics().counter("sched.cpr.accepted").value(),
            counts.accepted);
  EXPECT_EQ(counts.trials, 12u);
  EXPECT_EQ(counts.accepted, 8u);
  // A second call adds its own counts once more.
  CprScheduler(cost).schedule(g, 4);
  EXPECT_EQ(obs::metrics().counter("sched.cpr.trials").value(),
            2 * counts.trials);
  EXPECT_EQ(obs::metrics().counter("sched.cpr.accepted").value(),
            2 * counts.accepted);
}

}  // namespace
}  // namespace ptask::sched
