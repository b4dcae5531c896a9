#pragma once
/// \file portfolio.hpp
/// Portfolio auto-scheduler: runs every registered strategy on the input,
/// scores the candidate schedules, and returns the winner.
///
/// The paper's experiments show no single strategy dominates: the layer
/// scheduler wins when layers hold several similar tasks, pure data
/// parallelism wins for long chains, and CPA/CPR occupy niches in between.
/// A portfolio sidesteps the choice: scheduling is cheap relative to
/// execution, so running all strategies and keeping the best predicted
/// schedule is the practical auto-tuning answer.
///
/// With the default SymbolicMakespan metric the portfolio's winner is, by
/// construction, never worse (under the scoring metric) than any individual
/// strategy -- the dominance property the fuzz oracle checks.

#include <string>
#include <vector>

#include "ptask/cost/cost_model.hpp"
#include "ptask/sched/pipeline.hpp"

namespace ptask::sched {

/// How candidate schedules are compared.
enum class PortfolioMetric {
  /// Gantt makespan under each strategy's own symbolic costs (default).
  SymbolicMakespan,
  /// SymbolicMakespan plus the re-distribution penalty the strategies do
  /// not price into their objective (gantt_redistribution_time) -- punishes
  /// CPR-style wide allocations on chain graphs.
  CommAware,
  /// Discrete-event simulated makespan of the mapped schedule (layered
  /// candidates; allocation-only candidates fall back to CommAware).
  Simulated,
};

const char* to_string(PortfolioMetric metric);

struct PortfolioOptions {
  /// Strategy names to run; empty = every registered strategy except the
  /// portfolio itself.
  std::vector<std::string> strategies;
  PortfolioMetric metric = PortfolioMetric::SymbolicMakespan;
};

/// One row of the portfolio scoreboard.
struct StrategyScore {
  std::string strategy;
  double makespan = 0.0;        ///< candidate's symbolic Gantt makespan
  double redistribution = 0.0;  ///< unpriced re-distribution penalty
  double score = 0.0;           ///< metric value the decision used
  double millis = 0.0;          ///< wall time to schedule + score
  bool failed = false;          ///< strategy threw; score is +inf
  std::string error;
};

struct PortfolioReport {
  std::vector<StrategyScore> scores;  ///< in strategy order
  std::string winner;
};

class PortfolioScheduler final : public Scheduler {
 public:
  explicit PortfolioScheduler(const cost::CostModel& cost,
                              PortfolioOptions options = {})
      : cost_(&cost), options_(std::move(options)) {}

  std::string_view name() const override { return "portfolio"; }

  /// Runs all strategies and returns the winner's schedule.  The winner
  /// keeps its own strategy name in Schedule::strategy; the scoreboard is
  /// appended to Schedule::notes (one line per strategy).  Ties break
  /// towards the earlier strategy in the option order.  Throws
  /// std::runtime_error if every strategy fails.
  Schedule run(const core::TaskGraph& graph, int total_cores) const override;

  /// As above, additionally filling `report` with the scoreboard.
  Schedule run(const core::TaskGraph& graph, int total_cores,
               PortfolioReport& report) const;

  const PortfolioOptions& options() const { return options_; }

 private:
  const cost::CostModel* cost_;
  PortfolioOptions options_;
};

}  // namespace ptask::sched
