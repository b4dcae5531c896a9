#include "ptask/sched/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ptask/map/mapping.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/obs/trace.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/sched/timeline.hpp"

namespace ptask::sched {

const char* to_string(PortfolioMetric metric) {
  switch (metric) {
    case PortfolioMetric::SymbolicMakespan: return "symbolic";
    case PortfolioMetric::CommAware: return "comm-aware";
    case PortfolioMetric::Simulated: return "simulated";
  }
  return "?";
}

namespace {

struct Candidate {
  StrategyScore score;
  Schedule schedule;
};

/// Runs one strategy and scores its schedule; failures are captured into
/// the scoreboard row (score +inf) instead of propagating.
Candidate run_strategy(const std::string& name, const core::TaskGraph& graph,
                       int total_cores, const cost::CostModel& cost,
                       PortfolioMetric metric) {
  Candidate candidate;
  candidate.score.strategy = name;
  const auto start = std::chrono::steady_clock::now();
  try {
    const std::unique_ptr<Scheduler> scheduler =
        SchedulerRegistry::instance().make(name, cost);
    candidate.schedule = scheduler->run(graph, total_cores);
    candidate.score.makespan = candidate.schedule.makespan();
    candidate.score.redistribution = gantt_redistribution_time(
        candidate.schedule.scheduled_graph(), candidate.schedule.gantt, cost);
    switch (metric) {
      case PortfolioMetric::SymbolicMakespan:
        candidate.score.score = candidate.score.makespan;
        break;
      case PortfolioMetric::CommAware:
        candidate.score.score =
            candidate.score.makespan + candidate.score.redistribution;
        break;
      case PortfolioMetric::Simulated:
        if (candidate.schedule.has_layers()) {
          const std::vector<cost::LayerLayout> layouts = map::map_schedule(
              candidate.schedule.layered, cost.machine(),
              map::Strategy::Consecutive);
          candidate.score.score = TimelineEvaluator(cost)
                                      .simulate(candidate.schedule.layered,
                                                layouts)
                                      .makespan;
        } else {
          // Allocation-only candidates have no group structure to map;
          // fall back to the analytic comm-aware score.
          candidate.score.score =
              candidate.score.makespan + candidate.score.redistribution;
        }
        break;
    }
  } catch (const std::exception& e) {
    candidate.score.failed = true;
    candidate.score.error = e.what();
    candidate.score.score = std::numeric_limits<double>::infinity();
  }
  candidate.score.millis =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return candidate;
}

}  // namespace

Schedule PortfolioScheduler::run(const core::TaskGraph& graph,
                                 int total_cores) const {
  PortfolioReport report;
  return run(graph, total_cores, report);
}

Schedule PortfolioScheduler::run(const core::TaskGraph& graph,
                                 int total_cores,
                                 PortfolioReport& report) const {
  if (total_cores <= 0) {
    throw std::invalid_argument("core count must be positive");
  }
  static obs::Counter& invocations =
      obs::metrics().counter("sched.portfolio.invocations");
  invocations.add();
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.portfolio");

  std::vector<std::string> strategies = options_.strategies;
  if (strategies.empty()) {
    for (std::string& name : SchedulerRegistry::instance().names()) {
      // "incremental" is the layer pipeline under another name -- sweeping
      // it would double-count the layer candidate (and tie-break scoreboard
      // winners by name), so the default sweep covers distinct algorithms.
      if (name != "portfolio" && name != "incremental") {
        strategies.push_back(std::move(name));
      }
    }
  }
  if (strategies.empty()) {
    throw std::runtime_error("portfolio has no strategies to run");
  }

  std::vector<Candidate> candidates(strategies.size());
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    candidates[i] = run_strategy(strategies[i], graph, total_cores, *cost_,
                                 options_.metric);
  }

  // Pick the best score; ties break towards the earlier strategy.
  std::size_t best = candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].score.failed) continue;
    if (best == candidates.size() ||
        candidates[i].score.score < candidates[best].score.score) {
      best = i;
    }
  }
  if (best == candidates.size()) {
    std::ostringstream message;
    message << "all portfolio strategies failed:";
    for (const Candidate& c : candidates) {
      message << ' ' << c.score.strategy << " (" << c.score.error << ")";
    }
    throw std::runtime_error(message.str());
  }

  report.scores.clear();
  report.scores.reserve(candidates.size());
  for (Candidate& c : candidates) report.scores.push_back(c.score);
  report.winner = candidates[best].score.strategy;

  obs::metrics().counter("sched.portfolio.win." + report.winner).add();

  Schedule winner = std::move(candidates[best].schedule);
  {
    std::ostringstream note;
    note << "portfolio[" << to_string(options_.metric)
         << "] winner=" << report.winner;
    winner.notes.push_back(note.str());
  }
  for (const StrategyScore& s : report.scores) {
    std::ostringstream note;
    note << "portfolio: " << s.strategy;
    if (s.failed) {
      note << " FAILED (" << s.error << ")";
    } else {
      note << " score=" << s.score << " makespan=" << s.makespan
           << " redist=" << s.redistribution;
    }
    note << " [" << s.millis << " ms]";
    if (s.strategy == report.winner) note << " *";
    winner.notes.push_back(note.str());
  }
  return winner;
}

}  // namespace ptask::sched
