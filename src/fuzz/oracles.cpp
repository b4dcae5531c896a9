#include "ptask/fuzz/oracles.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "ptask/analysis/analyzer.hpp"
#include "ptask/analysis/certifier.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/map/mapping.hpp"
#include "ptask/rt/executor.hpp"
#include "ptask/sched/data_parallel.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/portfolio.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/sched/timeline.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask::fuzz {

namespace {

/// Copies `g` with all tasks and all edges except `skip_from -> skip_to`.
core::TaskGraph copy_without_edge(const core::TaskGraph& g,
                                  core::TaskId skip_from,
                                  core::TaskId skip_to) {
  core::TaskGraph out;
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) out.add_task(g.task(id));
  for (core::TaskId u = 0; u < g.num_tasks(); ++u) {
    for (const core::TaskId v : g.successors(u)) {
      if (u == skip_from && v == skip_to) continue;
      out.add_edge(u, v);
    }
  }
  return out;
}

/// First edge between two non-marker tasks, or {kInvalidTask, kInvalidTask}.
std::pair<core::TaskId, core::TaskId> first_basic_edge(
    const core::TaskGraph& g) {
  for (core::TaskId u = 0; u < g.num_tasks(); ++u) {
    if (g.task(u).is_marker()) continue;
    for (const core::TaskId v : g.successors(u)) {
      if (!g.task(v).is_marker()) return {u, v};
    }
  }
  return {core::kInvalidTask, core::kInvalidTask};
}

/// First pair of independent non-marker tasks, or invalid ids.
std::pair<core::TaskId, core::TaskId> independent_basic_pair(
    const core::TaskGraph& g) {
  for (core::TaskId a = 0; a < g.num_tasks(); ++a) {
    if (g.task(a).is_marker()) continue;
    for (core::TaskId b = a + 1; b < g.num_tasks(); ++b) {
      if (g.task(b).is_marker()) continue;
      if (g.independent(a, b)) return {a, b};
    }
  }
  return {core::kInvalidTask, core::kInvalidTask};
}

class Checker {
 public:
  Checker(const Instance& instance, const OracleOptions& options,
          OracleReport& report)
      : instance_(instance),
        options_(options),
        report_(report),
        machine_(instance.machine),
        cost_(machine_) {}

  void run() {
    // Differential sweep over every registered strategy: each candidate goes
    // through the same oracle set (validation, makespan agreement,
    // allocation consistency, redistribution, simulation for layered
    // strategies), so registering a scheduler is all it takes to fuzz it.
    const sched::SchedulerRegistry& registry =
        sched::SchedulerRegistry::instance();
    std::vector<std::pair<std::string, sched::Schedule>> candidates;
    for (const std::string& name : registry.names()) {
      if (name == "portfolio") continue;  // checked separately below
      sched::Schedule schedule = registry.make(name, cost_)->run(
          instance_.graph, instance_.total_cores);
      check_schedule(name, schedule, /*simulate=*/schedule.has_layers());
      candidates.emplace_back(name, std::move(schedule));
    }

    // Structurally distinct layer-scheduler variants (fixed options are not
    // registry entries; they exercise the non-default pass configurations).
    {
      sched::LayerSchedulerOptions opts;
      opts.fixed_groups = 2;
      check_schedule("layer[g=2]",
                     sched::Pipeline::algorithm1(cost_, opts).run(
                         instance_.graph, instance_.total_cores),
                     /*simulate=*/false);
    }
    {
      sched::LayerSchedulerOptions opts;
      opts.contract_chains = false;
      check_schedule("layer[no-contract]",
                     sched::Pipeline::algorithm1(cost_, opts).run(
                         instance_.graph, instance_.total_cores),
                     /*simulate=*/false);
    }
    sched::LayerSchedulerOptions unadjusted_opts;
    unadjusted_opts.adjust_group_sizes = false;
    const sched::Schedule unadjusted =
        sched::Pipeline::algorithm1(cost_, unadjusted_opts)
            .run(instance_.graph, instance_.total_cores);
    check_schedule("layer[unadjusted]", unadjusted, /*simulate=*/false);

    const sched::LayeredSchedule& layered = find(candidates, "layer").layered;
    const sched::LayeredSchedule& dp = find(candidates, "dp").layered;

    // Symbolic dominance: pure data parallelism is the g = 1 column of the
    // layer search, so the unadjusted layer schedule can never predict a
    // longer makespan.  (The harness originally asserted this for the
    // *adjusted* schedule too and promptly found counterexamples: the
    // proportional group-size adjustment is a heuristic that can lengthen
    // the prediction by a fraction of a percent, so it only gets a
    // bounded-degradation check.)
    if (unadjusted.layered.predicted_makespan >
        dp.predicted_makespan * (1.0 + options_.rel_tol) + 1e-12) {
      fail("dominance",
           "unadjusted layer-based makespan " +
               std::to_string(unadjusted.layered.predicted_makespan) +
               " exceeds data-parallel makespan " +
               std::to_string(dp.predicted_makespan));
    }
    if (layered.predicted_makespan >
        unadjusted.layered.predicted_makespan * options_.adjust_slack +
            1e-12) {
      fail("adjustment",
           "group-size adjustment degraded the makespan from " +
               std::to_string(unadjusted.layered.predicted_makespan) +
               " to " + std::to_string(layered.predicted_makespan));
    }

    check_portfolio(candidates);

    if (options_.check_executor) check_executor();
    if (options_.check_lint) check_lint(layered, candidates);
    if (options_.check_certifier) check_certifier_mutations(candidates);
  }

 private:
  void fail(const std::string& oracle, const std::string& message) {
    std::ostringstream os;
    os << "[seed=" << instance_.seed << " " << instance_.name << "] " << oracle
       << ": " << message;
    report_.errors.push_back(os.str());
  }

  /// The candidate schedule produced by strategy `name`.
  static const sched::Schedule& find(
      const std::vector<std::pair<std::string, sched::Schedule>>& candidates,
      const std::string& name) {
    for (const auto& [n, s] : candidates) {
      if (n == name) return s;
    }
    throw std::logic_error("strategy '" + name + "' missing from sweep");
  }

  /// Oracles 1-4, uniform over any canonical schedule.
  void check_schedule(const std::string& label,
                      const sched::Schedule& schedule, bool simulate) {
    ++report_.schedules_checked;
    if (schedule.has_layers()) {
      const sched::ValidationReport vr =
          sched::validate(schedule.layered, instance_.graph);
      if (!vr.ok()) {
        fail(label, "layered validation: " + vr.errors.front());
        return;
      }
    }
    const core::TaskGraph& graph = schedule.scheduled_graph();
    const sched::ValidationReport gr =
        sched::validate(schedule.gantt, graph);
    if (!gr.ok()) {
      fail(label, "gantt validation: " + gr.errors.front());
      return;
    }

    // Declared makespan vs the last slot finish (independent summations);
    // for layered strategies additionally vs the accumulated per-layer
    // prediction (canonical() lowers with to_gantt, a third code path).
    double max_finish = 0.0;
    for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
      if (graph.task(id).is_marker()) continue;
      max_finish = std::max(
          max_finish,
          schedule.gantt.slots[static_cast<std::size_t>(id)].finish);
    }
    if (relative_gap(schedule.makespan(), max_finish) > options_.rel_tol) {
      fail(label, "declared makespan " + std::to_string(schedule.makespan()) +
                      " disagrees with the last slot finish " +
                      std::to_string(max_finish));
    }
    if (schedule.has_layers() &&
        relative_gap(schedule.makespan(),
                     schedule.layered.predicted_makespan) >
            options_.rel_tol) {
      fail(label,
           "gantt lowering makespan " + std::to_string(schedule.makespan()) +
               " disagrees with predicted makespan " +
               std::to_string(schedule.layered.predicted_makespan));
    }

    // The per-task allocation must restate the slot widths.
    for (core::TaskId id = 0; id < graph.num_tasks(); ++id) {
      const auto& slot = schedule.gantt.slots[static_cast<std::size_t>(id)];
      if (schedule.task_width(id) != slot.num_cores()) {
        fail(label, "allocation of task " + graph.task(id).name() + " is " +
                        std::to_string(schedule.task_width(id)) +
                        " but its slot spans " +
                        std::to_string(slot.num_cores()) + " cores");
        break;
      }
    }

    const double redist = sched::gantt_redistribution_time(
        graph, schedule.gantt, cost_);
    if (!std::isfinite(redist) || redist < 0.0) {
      fail(label, "redistribution penalty is " + std::to_string(redist));
    }

    if (simulate && schedule.has_layers()) {
      check_simulation(label, schedule.layered);
    }

    // Oracle 7 (clean half): the independent certifier must agree that the
    // schedule is feasible.  Running it here covers every candidate of the
    // sweep, the layer variants, and the portfolio winner alike.
    if (options_.check_certifier) {
      ++report_.certificates_checked;
      const analysis::Certificate cert =
          analysis::certify(instance_.graph, schedule, certifier_options());
      if (!cert.ok()) {
        fail(label,
             "certifier rejected the schedule:\n" +
                 analysis::render_text(cert.report));
      }
    }
  }

  analysis::CertifierOptions certifier_options() const {
    analysis::CertifierOptions copts;
    copts.rel_tol = options_.rel_tol;
    copts.record_intervals = false;  // evidence unused; keep the sweep lean
    return copts;
  }

  /// Oracle 7 (mutation half): each schedule-corruption class must be caught
  /// by its matching PTC code.  Corruptions are surgical -- they perturb one
  /// invariant while keeping the tables otherwise consistent -- so the
  /// *distinct* diagnostic is what proves the certifier attributes failures
  /// correctly (collateral co-firing of other codes is legitimate, e.g. a
  /// moved slot can also shift the makespan).
  void check_certifier_mutations(
      const std::vector<std::pair<std::string, sched::Schedule>>& candidates) {
    const sched::Schedule& base = find(candidates, "layer");
    const core::TaskGraph& g = base.scheduled_graph();
    const auto slot_of = [](sched::Schedule& s,
                            core::TaskId id) -> sched::TaskSlot& {
      return s.gantt.slots[static_cast<std::size_t>(id)];
    };
    const auto duration = [&](const sched::Schedule& s, core::TaskId id) {
      const auto& slot = s.gantt.slots[static_cast<std::size_t>(id)];
      return slot.finish - slot.start;
    };

    // PTC001: shift a successor to start alongside its still-running
    // predecessor.
    {
      sched::Schedule m = base;
      bool applied = false;
      for (core::TaskId u = 0; u < g.num_tasks() && !applied; ++u) {
        if (g.task(u).is_marker() || duration(m, u) <= 0.0) continue;
        for (const core::TaskId v : g.successors(u)) {
          if (g.task(v).is_marker()) continue;
          sched::TaskSlot& sv = slot_of(m, v);
          const double d = sv.finish - sv.start;
          sv.start = slot_of(m, u).start;
          sv.finish = sv.start + d;
          applied = true;
          break;
        }
      }
      if (applied) expect_code("precedence", m, analysis::kCertPrecedence);
    }

    // PTC002: point one of a task's cores at a concurrently running task's
    // core (widths untouched, so the allocation tables stay consistent).
    {
      sched::Schedule m = base;
      bool applied = false;
      for (core::TaskId a = 0; a < g.num_tasks() && !applied; ++a) {
        if (g.task(a).is_marker() || duration(m, a) <= 0.0) continue;
        for (core::TaskId b = a + 1; b < g.num_tasks() && !applied; ++b) {
          if (g.task(b).is_marker() || duration(m, b) <= 0.0) continue;
          const sched::TaskSlot& sa = slot_of(m, a);
          const sched::TaskSlot& sb = slot_of(m, b);
          if (std::max(sa.start, sb.start) + 1e-12 >=
              std::min(sa.finish, sb.finish)) {
            continue;  // no temporal overlap
          }
          bool disjoint = true;
          for (const int c : sa.cores) {
            for (const int d : sb.cores) {
              if (c == d) disjoint = false;
            }
          }
          if (!disjoint || sa.cores.empty() || sb.cores.empty()) continue;
          slot_of(m, a).cores[0] = sb.cores[0];
          applied = true;
        }
      }
      if (applied) expect_code("overlap", m, analysis::kCertOverlap);
    }

    // PTC003: oversubscribe a layer group past the machine size.
    if (base.has_layers() && !base.layered.layers.empty() &&
        !base.layered.layers.front().group_sizes.empty()) {
      sched::Schedule m = base;
      m.layered.layers.front().group_sizes.front() += 1;
      expect_code("oversubscribed-group", m, analysis::kCertAllocation);
    }

    // PTC004: edit the declared makespan away from the last slot finish.
    {
      sched::Schedule m = base;
      m.gantt.makespan = m.gantt.makespan > 0.0 ? m.gantt.makespan * 1.5 : 1.0;
      expect_code("makespan-edit", m, analysis::kCertMakespan);
    }

    // PTC005: collapse every start to 0 and declare the longest single slot
    // as the makespan -- internally consistent arithmetic, but below the
    // critical-path lower bound whenever some dependent pair's combined work
    // exceeds every individual slot.  (If the longest *independent* task
    // dominates every chain, the collapsed makespan still meets the bound
    // and the corruption is undetectable by construction -- skip it then.)
    {
      double longest = 0.0;
      for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
        if (!g.task(id).is_marker())
          longest = std::max(longest, duration(base, id));
      }
      double best_chain = 0.0;
      for (core::TaskId u = 0; u < g.num_tasks(); ++u) {
        if (g.task(u).is_marker() || duration(base, u) <= 0.0) continue;
        for (const core::TaskId v : g.successors(u)) {
          if (!g.task(v).is_marker() && duration(base, v) > 0.0) {
            best_chain =
                std::max(best_chain, duration(base, u) + duration(base, v));
          }
        }
      }
      // Clear the certifier's slack (rel_tol ~1e-9) by a wide margin so the
      // violation is unambiguous.
      if (best_chain > longest * (1.0 + 1e-6) + 1e-9) {
        sched::Schedule m = base;
        double mutated_longest = 0.0;
        for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
          if (g.task(id).is_marker()) continue;
          sched::TaskSlot& s = slot_of(m, id);
          const double d = s.finish - s.start;
          s.start = 0.0;
          s.finish = d;
          mutated_longest = std::max(mutated_longest, d);
        }
        m.gantt.makespan = mutated_longest;
        expect_code("bound-violation", m, analysis::kCertLowerBound);
      }
    }
  }

  void expect_code(const std::string& name, const sched::Schedule& mutated,
                   std::string_view code) {
    ++report_.certifier_mutations;
    const analysis::Certificate cert =
        analysis::certify(instance_.graph, mutated, certifier_options());
    if (!cert.report.has(code)) {
      fail("certifier-mutation[" + name + "]",
           "schedule corruption was not flagged as " + std::string(code) +
               "; certifier said:\n" + analysis::render_text(cert.report));
    }
  }

  /// Portfolio oracle: the auto-scheduler's winner must pass the uniform
  /// checks and must never score worse (symbolic makespan metric) than the
  /// best individual strategy of the sweep.
  void check_portfolio(
      const std::vector<std::pair<std::string, sched::Schedule>>& candidates) {
    sched::PortfolioReport preport;
    sched::Schedule winner;
    try {
      winner = sched::PortfolioScheduler(cost_).run(
          instance_.graph, instance_.total_cores, preport);
    } catch (const std::exception& e) {
      fail("portfolio", std::string("portfolio run failed: ") + e.what());
      return;
    }
    check_schedule("portfolio[" + preport.winner + "]", winner,
                   /*simulate=*/false);
    double best = std::numeric_limits<double>::infinity();
    std::string best_name;
    for (const auto& [name, schedule] : candidates) {
      if (schedule.makespan() < best) {
        best = schedule.makespan();
        best_name = name;
      }
    }
    if (winner.makespan() > best * (1.0 + options_.rel_tol) + 1e-12) {
      fail("portfolio-dominance",
           "portfolio winner '" + preport.winner + "' makespan " +
               std::to_string(winner.makespan()) +
               " exceeds best individual strategy '" + best_name + "' at " +
               std::to_string(best));
    }
  }

  /// Oracle 4: analytic evaluation vs discrete-event replay.
  void check_simulation(const std::string& label,
                        const sched::LayeredSchedule& schedule) {
    const std::vector<cost::LayerLayout> layouts =
        map::map_schedule(schedule, machine_, map::Strategy::Consecutive);
    const sched::TimelineEvaluator eval(cost_);
    const double analytic = eval.evaluate(schedule, layouts).makespan;
    const double simulated = eval.simulate(schedule, layouts).makespan;
    if (!std::isfinite(analytic) || !std::isfinite(simulated)) {
      fail(label, "non-finite makespan (analytic=" + std::to_string(analytic) +
                      ", simulated=" + std::to_string(simulated) + ")");
      return;
    }
    // No simulation can beat perfect speedup of the total work.
    const double lower =
        instance_.graph.total_work_flop() /
        (machine_.spec().sustained_flops() * schedule.total_cores);
    if (simulated * (1.0 + 1e-9) < lower) {
      fail(label, "simulated makespan " + std::to_string(simulated) +
                      " beats the perfect-speedup bound " +
                      std::to_string(lower));
    }
    if (simulated > analytic * options_.sim_slack + 1e-6) {
      fail(label, "simulated makespan " + std::to_string(simulated) +
                      " exceeds " + std::to_string(options_.sim_slack) +
                      "x the analytic makespan " + std::to_string(analytic));
    }
    if (options_.check_sim_determinism) {
      const double replay = eval.simulate(schedule, layouts).makespan;
      if (replay != simulated) {
        fail(label, "event-engine replay is not deterministic: " +
                        std::to_string(simulated) + " vs " +
                        std::to_string(replay));
      }
    }
  }

  /// Oracles 1-2 for a Gantt schedule (CPA/MCPA/CPR output).
  void check_gantt(const std::string& label,
                   const sched::GanttSchedule& schedule) {
    ++report_.schedules_checked;
    const sched::ValidationReport vr =
        sched::validate(schedule, instance_.graph);
    if (!vr.ok()) {
      fail(label, "gantt validation: " + vr.errors.front());
      return;
    }
    double max_finish = 0.0;
    for (core::TaskId id = 0; id < instance_.graph.num_tasks(); ++id) {
      if (instance_.graph.task(id).is_marker()) continue;
      max_finish = std::max(
          max_finish, schedule.slots[static_cast<std::size_t>(id)].finish);
    }
    if (relative_gap(schedule.makespan, max_finish) > options_.rel_tol) {
      fail(label, "declared makespan " + std::to_string(schedule.makespan) +
                      " disagrees with the last slot finish " +
                      std::to_string(max_finish));
    }
    const double redist = sched::gantt_redistribution_time(instance_.graph,
                                                           schedule, cost_);
    if (!std::isfinite(redist) || redist < 0.0) {
      fail(label,
           "redistribution penalty is " + std::to_string(redist));
    }
  }

  // ---- oracle 5: executor schedule independence ----

  /// Deterministic per-task seed value for the executed computation.
  static double task_base(core::TaskId id) {
    return 1.0 + static_cast<double>(id % 97) +
           1.0e-3 * static_cast<double>(id);
  }

  /// Sequential reference: values in topological order, markers skipped.
  std::vector<double> reference_values() const {
    const core::TaskGraph& g = instance_.graph;
    std::vector<double> out(static_cast<std::size_t>(g.num_tasks()), 0.0);
    for (core::TaskId id : g.topological_order()) {
      if (g.task(id).is_marker()) continue;
      double v = task_base(id);
      for (core::TaskId p : g.predecessors(id)) {
        if (g.task(p).is_marker()) continue;
        v += 0.5 * out[static_cast<std::size_t>(p)];
      }
      out[static_cast<std::size_t>(id)] = v;
    }
    return out;
  }

  /// Runs `schedule` through `exec` and compares against the reference.
  void run_executor(const std::string& label, rt::Executor& exec,
                    const sched::LayeredSchedule& schedule,
                    const std::vector<double>& reference) {
    const core::TaskGraph& g = instance_.graph;
    const std::size_t n = static_cast<std::size_t>(g.num_tasks());
    std::vector<double> out(n, 0.0);
    std::vector<std::atomic<int>> rank0_runs(n);
    std::atomic<int> collective_failures{0};

    std::vector<rt::TaskFn> fns(n);
    for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
      if (g.task(id).is_marker()) continue;
      fns[static_cast<std::size_t>(id)] = [&, id](rt::ExecContext& ctx) {
        if (ctx.group_rank == 0) {
          double v = task_base(id);
          for (core::TaskId p : g.predecessors(id)) {
            if (g.task(p).is_marker()) continue;
            v += 0.5 * out[static_cast<std::size_t>(p)];
          }
          out[static_cast<std::size_t>(id)] = v;
          rank0_runs[static_cast<std::size_t>(id)]++;
        }
        // Rank 0's write must be visible to the whole group afterwards.
        ctx.comm->barrier(ctx.group_rank);
        const double value = out[static_cast<std::size_t>(id)];
        if (ctx.comm->allreduce_max(ctx.group_rank, value) != value) {
          collective_failures++;
        }
        if (ctx.comm->allreduce_sum(ctx.group_rank, 1.0) !=
            static_cast<double>(ctx.group_size)) {
          collective_failures++;
        }
      };
    }

    exec.run(schedule, fns);
    ++report_.executor_runs;

    for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
      if (g.task(id).is_marker()) continue;
      const int runs = rank0_runs[static_cast<std::size_t>(id)].load();
      if (runs != 1) {
        fail(label, "task " + g.task(id).name() + " executed " +
                        std::to_string(runs) + " times");
        return;
      }
    }
    if (collective_failures.load() != 0) {
      fail(label, std::to_string(collective_failures.load()) +
                      " group-collective cross-checks failed");
    }
    // Bit-identical: the computation is performed by one rank in one fixed
    // order regardless of the schedule, so even floating point must agree.
    if (std::memcmp(out.data(), reference.data(), n * sizeof(double)) != 0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (out[i] != reference[i]) {
          fail(label, "task " + g.task(static_cast<core::TaskId>(i)).name() +
                          " computed " + std::to_string(out[i]) +
                          ", reference " + std::to_string(reference[i]));
          return;
        }
      }
    }
  }

  void check_executor() {
    const int cores =
        std::min(options_.executor_max_cores, instance_.total_cores);
    if (cores < 1) return;

    // Structurally distinct schedules of the same program.
    std::vector<std::pair<std::string, sched::LayeredSchedule>> schedules;
    schedules.emplace_back(
        "exec[layer]",
        sched::Pipeline::algorithm1(cost_).run(instance_.graph, cores).layered);
    {
      sched::LayerSchedulerOptions opts;
      opts.fixed_groups = 2;
      schedules.emplace_back(
          "exec[layer,g=2]",
          sched::Pipeline::algorithm1(cost_, opts).run(instance_.graph, cores)
              .layered);
    }
    {
      sched::LayerSchedulerOptions opts;
      opts.contract_chains = false;
      opts.adjust_group_sizes = false;
      schedules.emplace_back(
          "exec[layer,no-contract]",
          sched::Pipeline::algorithm1(cost_, opts).run(instance_.graph, cores)
              .layered);
    }
    schedules.emplace_back("exec[data-parallel]",
                           sched::DataParallelScheduler(cost_).schedule(
                               instance_.graph, cores));

    for (const auto& [label, schedule] : schedules) {
      const sched::ValidationReport vr =
          sched::validate(schedule, instance_.graph);
      if (!vr.ok()) {
        fail(label, "pre-execution validation: " + vr.errors.front());
        return;
      }
    }

    const std::vector<double> reference = reference_values();
    rt::Executor exec(cores, rt::FaultOptions{});
    for (const auto& [label, schedule] : schedules) {
      run_executor(label, exec, schedule, reference);
    }
    if (options_.executor_faults.any()) {
      rt::Executor faulty(cores, options_.executor_faults);
      run_executor("exec[layer,faults]", faulty, schedules.front().second,
                   reference);
    }
  }

  // ---- oracle 6: static-analysis differential ----

  /// Clean-graph half: the generators build consistent graphs by
  /// construction, so the analyzer must report zero errors (warnings are
  /// legitimate, e.g. IRK's deliberately unconsumed stage outputs).  The
  /// schedule lints run for crash coverage; they are warning tier.
  void check_lint(
      const sched::LayeredSchedule& layered,
      const std::vector<std::pair<std::string, sched::Schedule>>& candidates) {
    const analysis::Analyzer analyzer;
    ++report_.lints_checked;
    const analysis::Report rep = analyzer.analyze(
        instance_.graph, machine_, instance_.total_cores);
    if (!rep.clean()) {
      fail("lint-clean", "generated graph has lint errors:\n" +
                             analysis::render_text(rep));
    }
    (void)analyzer.lint(layered, cost_);
    // Crash coverage of the canonical-schedule lint path for every strategy
    // of the sweep (warning tier -- only errors would be a finding).
    for (const auto& [name, schedule] : candidates) {
      if (!analyzer.lint(schedule, cost_).clean()) {
        fail("lint[" + name + "]",
             "schedule lint produced error-tier diagnostics");
      }
    }
    mutate_size(analyzer);
    mutate_dependency(analyzer);
  }

  /// Mutation half A: corrupting a matched parameter's byte size must raise
  /// PTA010.  Prefers corrupting a real matched pair; graphs without
  /// parameters (synthetic families, PAB/PABM, NPB zones) get a mismatched
  /// pair injected across an existing edge, or across a new edge between two
  /// independent tasks when no basic edge exists at all (NPB's zones only
  /// meet at the sync marker).
  void mutate_size(const analysis::Analyzer& analyzer) {
    core::TaskGraph mutated = instance_.graph;
    bool corrupted = false;
    for (core::TaskId u = 0; u < mutated.num_tasks() && !corrupted; ++u) {
      for (const core::TaskId v : mutated.successors(u)) {
        for (core::Param& in : mutated.task(v).mutable_params()) {
          if (!in.is_input || in.bytes == 0) continue;
          bool matched = false;
          for (const core::Param& p : mutated.task(u).params()) {
            if (p.is_output && p.name == in.name && p.bytes == in.bytes) {
              matched = true;
            }
          }
          if (!matched) continue;
          // Stay a multiple of the element size so that exactly PTA010
          // (and not PTA011) is the expected finding.
          in.bytes += sizeof(double);
          corrupted = true;
          break;
        }
        if (corrupted) break;
      }
    }
    if (!corrupted) {
      auto [u, v] = first_basic_edge(mutated);
      if (u == core::kInvalidTask) {
        std::tie(u, v) = independent_basic_pair(mutated);
        if (u == core::kInvalidTask) return;  // degenerate single-task graph
        mutated.add_edge(u, v);
      }
      core::Param out_p;
      out_p.name = "fz_payload";
      out_p.bytes = 64;
      out_p.is_output = true;
      core::Param in_p = out_p;
      in_p.is_output = false;
      in_p.is_input = true;
      in_p.bytes = 128;
      mutated.task(u).add_param(out_p);
      mutated.task(v).add_param(in_p);
    }
    ++report_.lint_mutations;
    if (!analyzer.analyze(mutated).has(analysis::kSizeMismatch)) {
      fail("lint-mutation[size]",
           "byte-size corruption was not flagged as PTA010");
    }
  }

  /// Mutation half B: a missing ordering edge between conflicting tasks must
  /// raise PTA001/PTA002.  Prefers removing a real edge (and injecting the
  /// conflicting variable pair across the now-unordered endpoints); when no
  /// edge removal disconnects its endpoints, the conflict is injected onto
  /// an already-independent pair, modelling the omitted dependency directly.
  void mutate_dependency(const analysis::Analyzer& analyzer) {
    const core::TaskGraph& g = instance_.graph;
    core::TaskGraph mutated;
    core::TaskId u = core::kInvalidTask;
    core::TaskId v = core::kInvalidTask;
    for (core::TaskId a = 0; a < g.num_tasks() && u == core::kInvalidTask;
         ++a) {
      if (g.task(a).is_marker()) continue;
      for (const core::TaskId b : g.successors(a)) {
        if (g.task(b).is_marker()) continue;
        core::TaskGraph candidate = copy_without_edge(g, a, b);
        if (candidate.independent(a, b)) {
          mutated = std::move(candidate);
          u = a;
          v = b;
          break;
        }
      }
    }
    if (u == core::kInvalidTask) {
      std::tie(u, v) = independent_basic_pair(g);
      if (u == core::kInvalidTask) return;
      mutated = g;
    }
    core::Param out_p;
    out_p.name = "fz_race";
    out_p.bytes = 64;
    out_p.is_output = true;
    core::Param in_p = out_p;
    in_p.is_output = false;
    in_p.is_input = true;
    mutated.task(u).add_param(out_p);
    mutated.task(v).add_param(in_p);
    ++report_.lint_mutations;
    const analysis::Report rep = analyzer.analyze(mutated);
    if (!rep.has(analysis::kRaceRaw) && !rep.has(analysis::kRaceWaw)) {
      fail("lint-mutation[race]",
           "removed/missing dependency was not flagged as PTA001/PTA002");
    }
  }

  static double relative_gap(double a, double b) {
    const double scale = std::max({std::fabs(a), std::fabs(b), 1e-30});
    return std::fabs(a - b) / scale;
  }

  const Instance& instance_;
  const OracleOptions& options_;
  OracleReport& report_;
  arch::Machine machine_;
  cost::CostModel cost_;
};

}  // namespace

std::string OracleReport::summary() const {
  std::ostringstream os;
  for (const std::string& e : errors) os << e << "\n";
  return os.str();
}

OracleReport check_instance(const Instance& instance,
                            const OracleOptions& options) {
  OracleReport report;
  Checker(instance, options, report).run();
  return report;
}

}  // namespace ptask::fuzz
