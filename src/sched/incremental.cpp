#include "ptask/sched/incremental.hpp"

#include <sstream>
#include <utility>

#include "ptask/obs/metrics.hpp"
#include "ptask/obs/trace.hpp"

namespace ptask::sched {

namespace {

Pipeline incremental_pipeline(const cost::CostModel& cost,
                              LayerSchedulerOptions options) {
  // The exact Algorithm-1 pass chain under the "incremental" strategy name:
  // the memo-aware replay lives inside AssignLPT/AdjustGroups, so the
  // offline and online paths share every line of scheduling logic.
  Pipeline pipeline(cost, "incremental", options);
  pipeline.append(std::make_unique<ContractChains>())
      .append(std::make_unique<Layerize>())
      .append(std::make_unique<GroupSearch>())
      .append(std::make_unique<AssignLPT>())
      .append(std::make_unique<AdjustGroups>());
  return pipeline;
}

RepairStats stats_from(const PassContext& ctx, const GraphDelta* delta) {
  RepairStats stats;
  stats.total_layers = ctx.layers_reused + ctx.layers_scheduled;
  stats.layers_reused = ctx.layers_reused;
  stats.layers_scheduled = ctx.layers_scheduled;
  stats.settled_prefix = ctx.settled_prefix;
  if (delta != nullptr) {
    stats.delta_tasks = delta->tasks.size();
    stats.delta_edges = delta->edges.size();
  }
  return stats;
}

}  // namespace

IncrementalScheduler::IncrementalScheduler(const cost::CostModel& cost,
                                           LayerSchedulerOptions options)
    : pipeline_(incremental_pipeline(cost, options)) {}

Schedule IncrementalScheduler::run(const core::TaskGraph& graph,
                                   int total_cores) const {
  // Stateless: an extend from an empty memo is a plain full run.
  PassContext ctx = pipeline_.make_context(graph, total_cores);
  return pipeline_.run_with_context(ctx);
}

const Schedule& IncrementalScheduler::reset(core::TaskGraph graph,
                                            int total_cores,
                                            double release_time) {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.incremental.reset");
  PassContext ctx = pipeline_.make_context(graph, total_cores);
  Schedule result = pipeline_.run_with_context(ctx);
  // Commit only after the run succeeded, so a throwing cost model cannot
  // leave a half-reset session behind.
  graph_ = std::move(graph);
  total_cores_ = total_cores;
  current_ = std::move(result);
  memo_ = std::move(ctx.memo);
  stats_ = stats_from(ctx, nullptr);
  last_release_ = release_time;
  has_schedule_ = true;
  return current_;
}

const Schedule& IncrementalScheduler::extend(const GraphDelta& delta) {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.incremental.extend");
  if (!has_schedule_) {
    throw DeltaError("extend without a settled schedule; call reset first");
  }
  if (delta.release_time < last_release_) {
    std::ostringstream message;
    message << "non-monotonic batch release time " << delta.release_time
            << " (last batch arrived at " << last_release_ << ")";
    throw DeltaError(message.str());
  }
  for (const ArrivingTask& arriving : delta.tasks) {
    if (arriving.release_time < delta.release_time) {
      std::ostringstream message;
      message << "task release time " << arriving.release_time
              << " precedes its batch release " << delta.release_time;
      throw DeltaError(message.str());
    }
  }

  // Grow a copy and swap it in only after the whole repair succeeded, so an
  // invalid delta (or a throwing cost model) leaves the session untouched.
  core::TaskGraph next = graph_;
  for (const ArrivingTask& arriving : delta.tasks) {
    next.add_task(arriving.task);
  }
  try {
    next.add_edges(delta.edges);
  } catch (const std::exception& error) {
    throw DeltaError(error.what());
  }

  // The memo moves through a fresh context (in before the run, back out
  // after), making the pipeline re-entrant.
  PassContext ctx = pipeline_.make_context(next, total_cores_);
  ctx.memo = std::move(memo_);
  Schedule result;
  try {
    result = pipeline_.run_with_context(ctx);
  } catch (...) {
    memo_ = std::move(ctx.memo);
    throw;
  }

  graph_ = std::move(next);
  current_ = std::move(result);
  memo_ = std::move(ctx.memo);
  stats_ = stats_from(ctx, &delta);
  last_release_ = delta.release_time;

  static obs::Counter& reused =
      obs::metrics().counter("sched.incremental.layers_reused");
  static obs::Counter& scheduled =
      obs::metrics().counter("sched.incremental.layers_scheduled");
  reused.add(static_cast<std::uint64_t>(stats_.layers_reused));
  scheduled.add(static_cast<std::uint64_t>(stats_.layers_scheduled));
  return current_;
}

const Schedule& IncrementalScheduler::current() const {
  if (!has_schedule_) {
    throw std::logic_error("no settled schedule; call reset first");
  }
  return current_;
}

}  // namespace ptask::sched
