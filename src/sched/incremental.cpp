#include "ptask/sched/incremental.hpp"

#include <cstdint>
#include <sstream>
#include <utility>

#include "ptask/obs/metrics.hpp"
#include "ptask/obs/trace.hpp"

namespace ptask::sched {

namespace {

/// Rebuilds `ctx.memo` from the run that produced `layered`.  A layer
/// replayed from memo entry m has members, candidates, times, and layer
/// content identical to that entry (that is what the signature match
/// certified), so the entry is moved wholesale -- only the contracted-id
/// labels need refreshing.  Deep construction is reserved for dirty layers
/// and duplicate hits on an already-moved entry.  One-shot runs never pay
/// for this: only a session reads the memo back.
void settle_memo(PassContext& ctx, const LayeredSchedule& layered) {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.memo_settle");
  std::vector<LayerMemoEntry> settled(layered.layers.size());
  std::vector<char> consumed(ctx.memo.size(), 0);
  for (std::size_t li = 0; li < layered.layers.size(); ++li) {
    LayerMemoEntry& entry = settled[li];
    const ScheduledLayer& layer = layered.layers[li];
    const std::int32_t memo_idx =
        li < ctx.layer_memo.size() ? ctx.layer_memo[li] : -1;
    if (memo_idx >= 0 && !consumed[static_cast<std::size_t>(memo_idx)]) {
      entry = std::move(ctx.memo[static_cast<std::size_t>(memo_idx)]);
      consumed[static_cast<std::size_t>(memo_idx)] = 1;
      entry.layer.tasks = layer.tasks;
      continue;
    }
    // A dirty layer's times are priced again with the arguments the
    // lowering used, which yields the same doubles.
    entry.members.reserve(layer.tasks.size());
    entry.task_times.reserve(layer.tasks.size());
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      const core::TaskId id = layer.tasks[i];
      const std::size_t g = static_cast<std::size_t>(layer.task_group[i]);
      entry.members.push_back(
          layered.contraction.members[static_cast<std::size_t>(id)]);
      entry.task_times.push_back(ctx.cost->symbolic_task_time(
          layered.contraction.contracted.task(id), layer.group_sizes[g],
          layer.num_groups(), layered.total_cores));
    }
    entry.candidates = ctx.group_candidates[li];
    entry.layer = layer;
  }
  ctx.memo = std::move(settled);
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
    : pipeline_(Pipeline::algorithm1(cost, options, "incremental")) {}

Schedule IncrementalScheduler::run(const core::TaskGraph& graph,
                                   int total_cores) const {
  return pipeline_.run(graph, total_cores);
}

const Schedule& IncrementalScheduler::reset(core::TaskGraph graph,
                                            int total_cores,
                                            double release_time) {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.incremental.reset");
  PassContext ctx = pipeline_.make_context(graph, total_cores);
  Schedule result = pipeline_.run(ctx);
  settle_memo(ctx, result.layered);
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
    result = pipeline_.run(ctx);
    settle_memo(ctx, result.layered);
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
