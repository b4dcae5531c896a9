// Tests for the shared-memory M-task runtime: thread teams, group
// collectives, and the schedule executor.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <mutex>
#include <numeric>

#include "ptask/obs/metrics.hpp"
#include "ptask/rt/executor.hpp"
#include "ptask/rt/group_comm.hpp"
#include "ptask/rt/thread_team.hpp"
#include "ptask/sched/pipeline.hpp"

namespace ptask::rt {
namespace {

TEST(ThreadTeam, RunsEveryWorkerExactlyOnce) {
  ThreadTeam team(4);
  std::vector<std::atomic<int>> hits(4);
  team.run([&](int w) { hits[static_cast<std::size_t>(w)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, IsReusable) {
  ThreadTeam team(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    team.run([&](int) { total++; });
  }
  EXPECT_EQ(total.load(), 30);
}

TEST(ThreadTeam, PropagatesExceptions) {
  ThreadTeam team(2);
  EXPECT_THROW(team.run([](int w) {
    if (w == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
  // The team survives and stays usable.
  std::atomic<int> ok{0};
  team.run([&](int) { ok++; });
  EXPECT_EQ(ok.load(), 2);
}

TEST(ThreadTeam, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadTeam(0), std::invalid_argument);
}

TEST(Barrier, SynchronizesCounters) {
  const int size = 4;
  Barrier barrier(size);
  ThreadTeam team(size);
  std::vector<int> before(static_cast<std::size_t>(size), 0);
  std::atomic<bool> all_wrote_before_any_read{true};
  team.run([&](int w) {
    before[static_cast<std::size_t>(w)] = 1;
    barrier.arrive_and_wait();
    for (int v : before) {
      if (v != 1) all_wrote_before_any_read = false;
    }
  });
  EXPECT_TRUE(all_wrote_before_any_read.load());
}

TEST(Barrier, Reusable) {
  Barrier barrier(2);
  ThreadTeam team(2);
  std::atomic<int> phase_sum{0};
  team.run([&](int) {
    for (int i = 0; i < 100; ++i) {
      barrier.arrive_and_wait();
      phase_sum++;
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(phase_sum.load(), 200);
}

TEST(GroupComm, BcastDelivers) {
  const int size = 4;
  GroupComm comm(size);
  ThreadTeam team(size);
  std::vector<std::vector<double>> data(static_cast<std::size_t>(size),
                                        std::vector<double>(3, 0.0));
  data[2] = {1.0, 2.0, 3.0};
  team.run([&](int w) { comm.bcast(w, 2, data[static_cast<std::size_t>(w)]); });
  for (const auto& d : data) {
    EXPECT_EQ(d, (std::vector<double>{1.0, 2.0, 3.0}));
  }
}

TEST(GroupComm, AllgatherConcatenatesInRankOrder) {
  const int size = 3;
  GroupComm comm(size);
  ThreadTeam team(size);
  // Uneven contributions: 1, 2, 3 elements.
  std::vector<std::vector<double>> contrib{{10.0}, {20.0, 21.0},
                                           {30.0, 31.0, 32.0}};
  std::vector<std::vector<double>> out(static_cast<std::size_t>(size),
                                       std::vector<double>(6, 0.0));
  team.run([&](int w) {
    comm.allgather(w, contrib[static_cast<std::size_t>(w)],
                   out[static_cast<std::size_t>(w)]);
  });
  const std::vector<double> expected{10.0, 20.0, 21.0, 30.0, 31.0, 32.0};
  for (const auto& o : out) EXPECT_EQ(o, expected);
}

TEST(GroupComm, AllreduceSumAndMax) {
  const int size = 4;
  GroupComm comm(size);
  ThreadTeam team(size);
  std::vector<double> sums(static_cast<std::size_t>(size), 0.0);
  std::vector<double> maxs(static_cast<std::size_t>(size), 0.0);
  team.run([&](int w) {
    sums[static_cast<std::size_t>(w)] =
        comm.allreduce_sum(w, static_cast<double>(w + 1));
    maxs[static_cast<std::size_t>(w)] =
        comm.allreduce_max(w, static_cast<double>(10 - w));
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, 10.0);
  for (double m : maxs) EXPECT_DOUBLE_EQ(m, 10.0);
}

TEST(GroupComm, RepeatedCollectivesDoNotCrossTalk) {
  const int size = 2;
  GroupComm comm(size);
  ThreadTeam team(size);
  std::vector<double> results(static_cast<std::size_t>(size) * 5, 0.0);
  team.run([&](int w) {
    for (int i = 0; i < 5; ++i) {
      results[static_cast<std::size_t>(w * 5 + i)] =
          comm.allreduce_sum(w, static_cast<double>(i));
    }
  });
  for (int w = 0; w < size; ++w) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(w * 5 + i)], 2.0 * i);
    }
  }
}

// --- executor ---

arch::Machine machine() {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 4;
  return arch::Machine(spec);
}

TEST(Executor, RunsEveryTaskSpmdOnItsGroup) {
  // Four independent comm-heavy tasks on 8 virtual cores: the scheduler
  // splits into groups; every task must execute once per group member.
  core::TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    core::MTask t("t" + std::to_string(i), 1.0e10);
    t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                  core::CommScope::Group, 8u << 20, 8});
    g.add_task(std::move(t));
  }
  const cost::CostModel cm(machine());
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 8).layered;

  std::vector<std::atomic<int>> invocations(4);
  std::vector<std::atomic<int>> group_sizes(4);
  std::vector<TaskFn> fns(4);
  for (int i = 0; i < 4; ++i) {
    fns[static_cast<std::size_t>(i)] = [&, i](ExecContext& ctx) {
      invocations[static_cast<std::size_t>(i)]++;
      group_sizes[static_cast<std::size_t>(i)] = ctx.group_size;
      // The communicator must span exactly the group.
      EXPECT_EQ(ctx.comm->size(), ctx.group_size);
      EXPECT_LT(ctx.group_rank, ctx.group_size);
    };
  }
  Executor exec(8);
  exec.run(s, fns);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(invocations[static_cast<std::size_t>(i)].load(),
              group_sizes[static_cast<std::size_t>(i)].load());
  }
}

TEST(Executor, ChainMembersRunInOrderOnTheSameGroup) {
  core::TaskGraph g;
  const core::TaskId a = g.add_task(core::MTask("a", 1.0));
  const core::TaskId b = g.add_task(core::MTask("b", 1.0));
  g.add_edge(a, b);
  const cost::CostModel cm(machine());
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 4).layered;

  std::vector<int> order;
  std::mutex mtx;
  std::vector<TaskFn> fns(2);
  fns[static_cast<std::size_t>(a)] = [&](ExecContext& ctx) {
    if (ctx.group_rank == 0) {
      std::lock_guard<std::mutex> lock(mtx);
      order.push_back(0);
    }
    ctx.comm->barrier(ctx.group_rank);
  };
  fns[static_cast<std::size_t>(b)] = [&](ExecContext& ctx) {
    ctx.comm->barrier(ctx.group_rank);
    if (ctx.group_rank == 0) {
      std::lock_guard<std::mutex> lock(mtx);
      order.push_back(1);
    }
  };
  Executor exec(4);
  exec.run(s, fns);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Executor, LayersAreSynchronized) {
  // Producer layer writes, consumer layer reads: with the executor's
  // inter-layer barrier the consumer always sees the final value.
  core::TaskGraph g;
  const core::TaskId p1 = g.add_task(core::MTask("p1", 1.0));
  const core::TaskId p2 = g.add_task(core::MTask("p2", 1.0));
  core::MTask consumer_task("c", 1.0);
  const core::TaskId c = g.add_task(std::move(consumer_task));
  g.add_edge(p1, c);
  g.add_edge(p2, c);

  const cost::CostModel cm(machine());
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 4).layered;
  std::atomic<int> produced{0};
  std::atomic<int> seen{-1};
  std::vector<TaskFn> fns(3);
  fns[static_cast<std::size_t>(p1)] = [&](ExecContext&) { produced++; };
  fns[static_cast<std::size_t>(p2)] = [&](ExecContext&) { produced++; };
  fns[static_cast<std::size_t>(c)] = [&](ExecContext& ctx) {
    if (ctx.group_rank == 0) seen = produced.load();
  };
  Executor exec(4);
  exec.run(s, fns);
  // Both producers ran on multiple cores each.
  EXPECT_EQ(seen.load(), produced.load());
  EXPECT_GE(seen.load(), 2);
}

TEST(Executor, OrthogonalCommunicatorsBindSamePositions) {
  // Four equal groups of two: every member must see an orthogonal
  // communicator of size 4 whose rank is the group index, and an orthogonal
  // allreduce must combine values across groups, not within them.
  core::TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    core::MTask t("t" + std::to_string(i), 1.0e10);
    t.add_comm(core::CollectiveOp{core::CollectiveKind::Allgather,
                                  core::CommScope::Group, 8u << 20, 8});
    g.add_task(std::move(t));
  }
  const cost::CostModel cm(machine());
  sched::LayerSchedulerOptions opts;
  opts.fixed_groups = 4;
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm, opts).run(g, 8).layered;

  std::vector<double> sums(8, 0.0);
  std::vector<TaskFn> fns(4);
  for (int i = 0; i < 4; ++i) {
    fns[static_cast<std::size_t>(i)] = [&](ExecContext& ctx) {
      ASSERT_NE(ctx.orth, nullptr);
      EXPECT_EQ(ctx.orth->size(), 4);
      const double value = 100.0 * ctx.group_index + ctx.group_rank;
      const double sum = ctx.orth->allreduce_sum(ctx.group_index, value);
      sums[static_cast<std::size_t>(ctx.group_index * 2 + ctx.group_rank)] =
          sum;
    };
  }
  Executor exec(8);
  exec.run(s, fns);
  // Sum over groups at position p: 100*(0+1+2+3) + 4*p = 600 + 4p.
  for (int gi = 0; gi < 4; ++gi) {
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(gi * 2)], 600.0);
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(gi * 2 + 1)], 604.0);
  }
}

/// Hand-built one-layer schedule with explicit group sizes and task
/// assignment (identity contraction), for exercising group structures the
/// scheduler search would not normally pick.
sched::LayeredSchedule manual_layer(const core::TaskGraph& g, int total_cores,
                                    std::vector<int> group_sizes,
                                    std::vector<int> task_group) {
  sched::LayeredSchedule s;
  s.total_cores = total_cores;
  s.contraction.contracted = g;
  s.contraction.members.resize(static_cast<std::size_t>(g.num_tasks()));
  s.contraction.representative.resize(static_cast<std::size_t>(g.num_tasks()));
  std::vector<core::TaskId> tasks;
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    s.contraction.members[static_cast<std::size_t>(id)] = {id};
    s.contraction.representative[static_cast<std::size_t>(id)] = id;
    tasks.push_back(id);
  }
  sched::ScheduledLayer layer;
  layer.tasks = std::move(tasks);
  layer.group_sizes = std::move(group_sizes);
  layer.task_group = std::move(task_group);
  s.layers.push_back(std::move(layer));
  return s;
}

TEST(Executor, UnequalGroupsGiveHighRanksNoOrthogonalComm) {
  // Groups of 3 and 1 cores: orthogonal communicators only exist up to the
  // smallest group's size, so only position 0 is bound across groups; the
  // higher ranks of the large group must see orth == nullptr.
  core::TaskGraph g;
  g.add_task(core::MTask("t0", 1.0));
  g.add_task(core::MTask("t1", 1.0));
  const sched::LayeredSchedule s = manual_layer(g, 4, {3, 1}, {0, 1});

  std::array<std::atomic<int>, 4> orth_size{};  // indexed by worker
  std::vector<TaskFn> fns(2);
  for (int i = 0; i < 2; ++i) {
    fns[static_cast<std::size_t>(i)] = [&](ExecContext& ctx) {
      const int worker =
          (ctx.group_index == 0 ? 0 : 3) + ctx.group_rank;  // layout offset
      orth_size[static_cast<std::size_t>(worker)] =
          ctx.orth == nullptr ? 0 : ctx.orth->size();
      if (ctx.orth != nullptr) {
        // Orthogonal rank == group index; lockstep across both groups.
        const double sum = ctx.orth->allreduce_sum(
            ctx.group_index, static_cast<double>(ctx.group_index + 1));
        EXPECT_DOUBLE_EQ(sum, 3.0);  // groups 0 and 1 contribute 1 and 2
      }
    };
  }
  Executor exec(4);
  exec.run(s, fns);
  EXPECT_EQ(orth_size[0].load(), 2);  // group 0, position 0: bound
  EXPECT_EQ(orth_size[1].load(), 0);  // group 0, positions 1-2: unbound
  EXPECT_EQ(orth_size[2].load(), 0);
  EXPECT_EQ(orth_size[3].load(), 2);  // group 1, position 0: bound
}

TEST(Executor, LockstepOrthogonalCollectivesAcrossThreeGroups) {
  // Three groups of two cores each running structurally identical tasks:
  // every position must be bound across all three groups, and a *sequence*
  // of orthogonal collectives must stay in lockstep (the stage-vector
  // solver pattern of paper Section 4.2).
  core::TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    g.add_task(core::MTask("t" + std::to_string(i), 1.0));
  }
  const sched::LayeredSchedule s = manual_layer(g, 6, {2, 2, 2}, {0, 1, 2});

  std::array<std::atomic<int>, 6> checks_passed{};
  std::vector<TaskFn> fns(3);
  for (int i = 0; i < 3; ++i) {
    fns[static_cast<std::size_t>(i)] = [&](ExecContext& ctx) {
      ASSERT_NE(ctx.orth, nullptr);
      ASSERT_EQ(ctx.orth->size(), 3);
      const int worker = ctx.group_index * 2 + ctx.group_rank;
      int passed = 0;
      // Collective 1: sum of group indices across the three groups.
      const double sum = ctx.orth->allreduce_sum(
          ctx.group_index, static_cast<double>(ctx.group_index));
      if (sum == 3.0) ++passed;  // 0 + 1 + 2
      // Collective 2: max of position-scaled values.
      const double max = ctx.orth->allreduce_max(
          ctx.group_index,
          static_cast<double>(10 * ctx.group_index + ctx.group_rank));
      if (max == static_cast<double>(20 + ctx.group_rank)) ++passed;
      // Collective 3: broadcast from the middle group.
      std::array<double, 1> data{
          ctx.group_index == 1 ? 42.0 + ctx.group_rank : 0.0};
      ctx.orth->bcast(ctx.group_index, /*root=*/1, data);
      if (data[0] == 42.0 + ctx.group_rank) ++passed;
      checks_passed[static_cast<std::size_t>(worker)] = passed;
    };
  }
  Executor exec(6);
  exec.run(s, fns);
  for (int w = 0; w < 6; ++w) {
    EXPECT_EQ(checks_passed[static_cast<std::size_t>(w)].load(), 3)
        << "worker " << w;
  }
}

TEST(Executor, SingleGroupMultiTaskLayerHasNullOrth) {
  // One group with several tasks assigned back-to-back: num_groups == 1, so
  // no orthogonal communicator exists for any of them.
  core::TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    g.add_task(core::MTask("t" + std::to_string(i), 1.0));
  }
  const sched::LayeredSchedule s = manual_layer(g, 4, {4}, {0, 0, 0});
  std::atomic<int> null_orths{0};
  std::vector<TaskFn> fns(3);
  for (int i = 0; i < 3; ++i) {
    fns[static_cast<std::size_t>(i)] = [&](ExecContext& ctx) {
      EXPECT_EQ(ctx.num_groups, 1);
      if (ctx.orth == nullptr) null_orths++;
    };
  }
  Executor exec(4);
  exec.run(s, fns);
  EXPECT_EQ(null_orths.load(), 12);  // 3 tasks x 4 group members
}

TEST(Executor, FaultInjectionPreservesSemantics) {
  // Aggressive delays and yield storms must not change what executes or
  // what the collectives compute.
  core::TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    g.add_task(core::MTask("t" + std::to_string(i), 1.0));
  }
  const sched::LayeredSchedule s = manual_layer(g, 6, {2, 2, 2}, {0, 1, 2});
  FaultOptions faults;
  faults.task_delays = true;
  faults.yield_storm = true;
  faults.seed = 0xFA117;
  faults.max_delay_us = 50;
  Executor exec(6, faults);
  EXPECT_TRUE(exec.fault_injector().enabled());
  std::atomic<int> good{0};
  std::vector<TaskFn> fns(3);
  for (int i = 0; i < 3; ++i) {
    fns[static_cast<std::size_t>(i)] = [&](ExecContext& ctx) {
      const double sum = ctx.comm->allreduce_sum(ctx.group_rank, 1.0);
      if (sum == static_cast<double>(ctx.group_size)) good++;
    };
  }
  for (int round = 0; round < 5; ++round) {
    exec.run(s, fns);
  }
  EXPECT_EQ(good.load(), 5 * 6);
}

TEST(Executor, FaultInjectionIsAccountedInMetrics) {
  // Injected perturbations must not be mystery gaps: the injector reports
  // how often it fired and how much delay it added through obs metrics.
  const std::uint64_t injections_before =
      obs::metrics().counter("rt.fault.injections").value();
  const std::uint64_t delay_before =
      obs::metrics().counter("rt.fault.delay_us").value();

  core::TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    g.add_task(core::MTask("t" + std::to_string(i), 1.0));
  }
  const sched::LayeredSchedule s = manual_layer(g, 6, {2, 2, 2}, {0, 1, 2});
  FaultOptions faults;
  faults.task_delays = true;
  faults.seed = 0xFA117;
  faults.max_delay_us = 50;
  Executor exec(6, faults);
  std::vector<TaskFn> fns(3);
  for (int i = 0; i < 3; ++i) {
    fns[static_cast<std::size_t>(i)] = [](ExecContext& ctx) {
      ctx.comm->barrier(ctx.group_rank);
    };
  }
  for (int round = 0; round < 5; ++round) {
    exec.run(s, fns);
  }

  // 5 rounds x 6 workers x (prologue + 2 per-task sites) with a ~1/3 firing
  // probability: deterministic given the seed, and far from zero.
  const std::uint64_t injections =
      obs::metrics().counter("rt.fault.injections").value() - injections_before;
  const std::uint64_t delay_us =
      obs::metrics().counter("rt.fault.delay_us").value() - delay_before;
  EXPECT_GT(injections, 0u);
  EXPECT_GT(delay_us, 0u);
}

TEST(FaultOptionsEnv, ParsesToggleList) {
  FaultOptions options = FaultOptions::from_env();  // env unset: disabled
  EXPECT_FALSE(options.any());
}

TEST(Executor, NoOrthogonalCommWithSingleGroup) {
  core::TaskGraph g;
  g.add_task(core::MTask("t", 1.0));
  const cost::CostModel cm(machine());
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 4).layered;
  std::vector<TaskFn> fns(1);
  fns[0] = [](ExecContext& ctx) { EXPECT_EQ(ctx.orth, nullptr); };
  Executor exec(4);
  exec.run(s, fns);
}

TEST(Executor, SizeMismatchThrows) {
  core::TaskGraph g;
  g.add_task(core::MTask("t", 1.0));
  const cost::CostModel cm(machine());
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 4).layered;
  Executor exec(8);
  EXPECT_THROW(exec.run(s, std::vector<TaskFn>(1)), std::invalid_argument);
}

TEST(Executor, EmptyFunctionsAreSkipped) {
  core::TaskGraph g;
  g.add_task(core::MTask("t", 1.0));
  const cost::CostModel cm(machine());
  const sched::LayeredSchedule s =
      sched::Pipeline::algorithm1(cm).run(g, 2).layered;
  Executor exec(2);
  EXPECT_NO_THROW(exec.run(s, std::vector<TaskFn>(1)));  // default (empty) fn
}

}  // namespace
}  // namespace ptask::rt
