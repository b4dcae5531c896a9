// Tests for the portfolio auto-scheduler: winner selection and dominance,
// the scoreboard (report + notes), restricted strategy lists, metric
// variants, parallel execution, and failure capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/sched/portfolio.hpp"
#include "ptask/sched/registry.hpp"

namespace ptask::sched {
namespace {

arch::Machine machine(int nodes = 8) {
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = nodes;
  return arch::Machine(spec);
}

core::TaskGraph solver_graph(ode::Method method = ode::Method::PABM) {
  ode::SolverGraphSpec spec;
  spec.method = method;
  spec.n = 1 << 12;
  spec.stages = 4;
  spec.iterations = 2;
  return spec.step_graph();
}

/// The registry names the default portfolio runs (everything but itself and
/// the incremental alias of the layer pipeline).
std::vector<std::string> individual_strategies() {
  std::vector<std::string> names;
  for (const std::string& name : SchedulerRegistry::instance().names()) {
    if (name != "portfolio" && name != "incremental") names.push_back(name);
  }
  return names;
}

class PortfolioTest : public ::testing::Test {
 protected:
  PortfolioTest() : machine_(machine()), cost_(machine_) {}
  arch::Machine machine_;
  cost::CostModel cost_;
};

TEST_F(PortfolioTest, WinnerDominatesEveryIndividualStrategy) {
  const core::TaskGraph graph = solver_graph();
  double best = std::numeric_limits<double>::infinity();
  std::string best_name;
  for (const std::string& name : individual_strategies()) {
    const Schedule s =
        SchedulerRegistry::instance().make(name, cost_)->run(graph, 32);
    if (s.makespan() < best) {
      best = s.makespan();
      best_name = name;
    }
  }

  const PortfolioScheduler portfolio(cost_);
  PortfolioReport report;
  const Schedule winner = portfolio.run(graph, 32, report);
  EXPECT_EQ(winner.makespan(), best);
  EXPECT_EQ(report.winner, best_name);
  EXPECT_EQ(winner.strategy, best_name)
      << "the winner keeps its own strategy name";
  EXPECT_EQ(report.scores.size(), individual_strategies().size());
}

TEST_F(PortfolioTest, ScoreboardIsAppendedToTheWinnersNotes) {
  const core::TaskGraph graph = solver_graph();
  const PortfolioScheduler portfolio(cost_);
  PortfolioReport report;
  const Schedule winner = portfolio.run(graph, 32, report);
  // One header line plus one line per strategy, winner marked with '*'.
  std::size_t rows = 0;
  bool header = false;
  bool starred = false;
  for (const std::string& note : winner.notes) {
    if (note.rfind("portfolio[symbolic] winner=", 0) == 0) header = true;
    if (note.rfind("portfolio: ", 0) == 0) {
      ++rows;
      if (note.size() >= 2 && note.compare(note.size() - 2, 2, " *") == 0) {
        starred = true;
        EXPECT_NE(note.find(report.winner), std::string::npos);
      }
    }
  }
  EXPECT_TRUE(header);
  EXPECT_EQ(rows, report.scores.size());
  EXPECT_TRUE(starred);
  for (const StrategyScore& score : report.scores) {
    EXPECT_FALSE(score.failed) << score.strategy << ": " << score.error;
    EXPECT_GT(score.makespan, 0.0) << score.strategy;
    EXPECT_GE(score.millis, 0.0) << score.strategy;
  }
}

TEST_F(PortfolioTest, RestrictedStrategyListRunsOnlyThoseStrategies) {
  const core::TaskGraph graph = solver_graph();
  PortfolioOptions options;
  options.strategies = {"dp"};
  const PortfolioScheduler portfolio(cost_, options);
  PortfolioReport report;
  const Schedule winner = portfolio.run(graph, 32, report);
  EXPECT_EQ(winner.strategy, "dp");
  EXPECT_EQ(report.winner, "dp");
  ASSERT_EQ(report.scores.size(), 1u);
  EXPECT_EQ(report.scores[0].strategy, "dp");
}

TEST_F(PortfolioTest, EveryMetricProducesAWinner) {
  const core::TaskGraph graph = solver_graph(ode::Method::IRK);
  for (const PortfolioMetric metric :
       {PortfolioMetric::SymbolicMakespan, PortfolioMetric::CommAware,
        PortfolioMetric::Simulated}) {
    PortfolioOptions options;
    options.metric = metric;
    PortfolioReport report;
    const Schedule winner =
        PortfolioScheduler(cost_, options).run(graph, 32, report);
    EXPECT_GT(winner.makespan(), 0.0) << to_string(metric);
    EXPECT_FALSE(report.winner.empty()) << to_string(metric);
    for (const StrategyScore& score : report.scores) {
      EXPECT_FALSE(score.failed)
          << to_string(metric) << "/" << score.strategy << ": " << score.error;
      if (metric == PortfolioMetric::CommAware) {
        // Comm-aware score = makespan + unpriced re-distribution penalty.
        EXPECT_GE(score.score, score.makespan) << score.strategy;
      }
    }
  }
}

TEST_F(PortfolioTest, FailingStrategyIsCapturedNotPropagated) {
  const core::TaskGraph graph = solver_graph();
  PortfolioOptions options;
  // An unregistered name fails at construction inside the strategy runner;
  // the failure must land in the scoreboard, not escape the portfolio.
  options.strategies = {"does-not-exist", "layer"};
  PortfolioReport report;
  const Schedule winner =
      PortfolioScheduler(cost_, options).run(graph, 32, report);
  EXPECT_EQ(winner.strategy, "layer");
  ASSERT_EQ(report.scores.size(), 2u);
  EXPECT_TRUE(report.scores[0].failed);
  EXPECT_FALSE(report.scores[0].error.empty());
  EXPECT_EQ(report.scores[0].score,
            std::numeric_limits<double>::infinity());
  EXPECT_FALSE(report.scores[1].failed);
  bool failure_noted = false;
  for (const std::string& note : winner.notes) {
    failure_noted |= note.find("FAILED") != std::string::npos;
  }
  EXPECT_TRUE(failure_noted);
}

TEST_F(PortfolioTest, ThrowsWhenEveryStrategyFails) {
  const core::TaskGraph graph = solver_graph();
  PortfolioOptions options;
  options.strategies = {"does-not-exist"};
  EXPECT_THROW(PortfolioScheduler(cost_, options).run(graph, 32),
               std::runtime_error);
}

TEST_F(PortfolioTest, RejectsNonPositiveCoreCounts) {
  const core::TaskGraph graph = solver_graph();
  EXPECT_THROW(PortfolioScheduler(cost_).run(graph, 0),
               std::invalid_argument);
}

TEST_F(PortfolioTest, TiesBreakTowardsTheEarlierStrategy) {
  // Running the same strategy twice under different positions produces
  // identical scores; the earlier entry must win.
  const core::TaskGraph graph = solver_graph();
  PortfolioOptions options;
  options.strategies = {"layer", "layer"};
  PortfolioReport report;
  const Schedule winner =
      PortfolioScheduler(cost_, options).run(graph, 32, report);
  ASSERT_EQ(report.scores.size(), 2u);
  EXPECT_EQ(report.scores[0].score, report.scores[1].score);
  EXPECT_EQ(winner.strategy, "layer");
  EXPECT_EQ(report.winner, "layer");
}

}  // namespace
}  // namespace ptask::sched
