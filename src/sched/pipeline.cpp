#include "ptask/sched/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "ptask/obs/metrics.hpp"
#include "ptask/obs/trace.hpp"

namespace ptask::sched {

namespace {

/// Per-layer working buffers, reused across the candidate group counts of
/// the layer (and across layers of one worker) so the candidate loop does
/// no per-candidate allocation.
struct LayerScratch {
  /// Shared time row of one group size: per-task symbolic times (entries of
  /// tasks with orthogonal collectives stay 0 and are patched per
  /// candidate), and whether every filled entry is finite and non-negative.
  struct Row {
    std::vector<double> time;
    bool monotone = true;
  };
  /// Full-time lower bound of a candidate: max over tasks of
  /// min(t(q_top), t(q_lo)), and whether all those times are monotone.
  struct TimeBound {
    double bound = 0.0;
    bool monotone = true;
  };

  std::vector<std::size_t> order;     ///< LPT order: the sort history's state
  std::vector<std::size_t> fresh;     ///< a candidate's order built anew
  std::vector<std::size_t> plain;     ///< tasks without orthogonal collectives
  std::vector<std::size_t> ortho;     ///< tasks with orthogonal collectives
  std::vector<std::size_t> plain_order;  ///< `plain` sorted at plain_order_q
  int plain_order_q = 0;
  std::vector<std::size_t> ortho_order;  ///< `ortho` sorted for a candidate
  std::vector<double> ortho_top;      ///< orthogonal-task times at q_top
  std::vector<double> ortho_lo;       ///< orthogonal-task times at q_lo
  std::vector<double> replay_ortho;   ///< ... at a replayed sort's q_top
  std::vector<double> time;           ///< patched times at the large size
  std::vector<double> time_lo;        ///< patched times at the small size
  std::vector<double> replay_time;    ///< patched times of a replayed sort
  std::vector<int> task_group;        ///< candidate assignment
  std::vector<std::pair<double, int>> heap;  ///< (load, group) min-heap
  /// Group size q -> shared row.  Valid for tasks without orthogonal
  /// collectives (their time is independent of the candidate's group
  /// count), which is what lets the ~min(P, n) candidate counts of a layer
  /// share only O(sqrt(P)) distinct rows.
  std::unordered_map<int, Row> rows;
  /// Compute-only pruning bounds per group size: (max, sum) over tasks of
  /// work / (min(q, max_cores) * flops).
  std::unordered_map<int, std::pair<double, double>> compute_bounds;
  /// The rows' part of the full-time bound per (q_lo, q_top) pair, keyed
  /// by 2 * q_lo + (q_top > q_lo).
  std::unordered_map<int, TimeBound> time_bounds;
};

struct PruneStats {
  std::uint64_t pruned = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t aborted = 0;
};

/// Adding such a time to a group load can neither lower the load nor make
/// it NaN -- what the full-time bound and the LPT abort rely on.
bool monotone_time(double t) {
  return t >= 0.0 && t <= std::numeric_limits<double>::max();
}

/// One layer of Algorithm 1: evaluate every candidate group count with an
/// equal core split and the modified Sahni greedy assignment, keep the best.
///
/// Bit-identity contract: this computes the byte-identical ScheduledLayer
/// of the historical monolith, which priced, sorted and assigned every
/// candidate in full (tests/reference_layer_scheduler.hpp pins it against a
/// verbatim copy).  The monolith std::sorts one carried LPT order by each
/// candidate's times in turn, and std::sort is unstable, so that history
/// decides where equal-time tasks land.  The invariants that make the
/// result identical:
///  * a candidate's order is built only when it runs LPT.  When its keys
///    are pairwise strictly ordered the descending order is unique, whatever
///    the history, and is built directly: one sorted order of the tasks
///    without orthogonal collectives per group size, merged with the
///    orthogonal tasks sorted for the candidate.  When keys tie or are NaN,
///    the exact std::sort chain is replayed in candidate order from the
///    last order built, pruned candidates included;
///  * the heap pops the lowest-index minimum load, exactly the group
///    std::min_element scans to;
///  * a row holds the same doubles the cost model computes per call;
///  * pruning uses true lower bounds, so a pruned candidate can never have
///    beaten the incumbent: the compute share at the largest group size
///    (the averaged bound is deflated by the worst-case summation error),
///    and max over tasks of min(t(q_top), t(q_lo)), since every task lands
///    in a group of one of the two sizes and a group load is a sum of
///    non-negative times;
///  * a candidate's LPT stops once a group load reaches the incumbent: a
///    winner needs a strictly lower layer time, and a loser's assignment is
///    thrown away.
/// The full-time bound and the abort apply only when every time of the
/// candidate is finite and non-negative, which keeps group loads monotone.
ScheduledLayer schedule_layer(const core::TaskGraph& graph,
                              const std::vector<core::TaskId>& tasks,
                              const std::vector<int>& candidates, int P,
                              const cost::CostModel& cost, LayerScratch& s,
                              PruneStats& stats) {
  const std::size_t n = tasks.size();
  ScheduledLayer best;
  if (candidates.empty()) return best;

  s.order.resize(n);
  std::iota(s.order.begin(), s.order.end(), 0);
  s.rows.clear();
  s.compute_bounds.clear();
  s.time_bounds.clear();
  s.plain.clear();
  s.ortho.clear();
  s.plain_order_q = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cost::CostModel::depends_on_num_groups(graph.task(tasks[i]))) {
      s.ortho.push_back(i);
    } else {
      s.plain.push_back(i);
    }
  }

  // Fills (once) the shared time row for group size q: the rows are the
  // layer's memo of symbolic task times.
  const auto shared_row = [&](int q, int g) -> const LayerScratch::Row& {
    auto [it, inserted] = s.rows.try_emplace(q);
    LayerScratch::Row& row = it->second;
    if (inserted) {
      row.time.assign(n, 0.0);
      for (const std::size_t i : s.plain) {
        row.time[i] = cost.symbolic_task_time(graph.task(tasks[i]), q, g, P);
        row.monotone = row.monotone && monotone_time(row.time[i]);
      }
    }
    return row;
  };
  const auto price_ortho = [&](int q, int g, std::vector<double>& into) {
    into.resize(s.ortho.size());
    for (std::size_t k = 0; k < s.ortho.size(); ++k) {
      into[k] =
          cost.symbolic_task_time(graph.task(tasks[s.ortho[k]]), q, g, P);
    }
  };
  // The layer's times at group size q: the shared row, or its copy in
  // `into` patched with the orthogonal tasks' times.
  const auto times_at = [&](int q, int g,
                            const std::vector<double>& ortho_time,
                            std::vector<double>& into) -> const double* {
    const std::vector<double>& row = shared_row(q, g).time;
    if (s.ortho.empty()) return row.data();
    into = row;
    for (std::size_t k = 0; k < s.ortho.size(); ++k) {
      into[s.ortho[k]] = ortho_time[k];
    }
    return into.data();
  };
  // The LPT comparator: longer time first.
  const auto descending = [](const double* time) {
    return [time](std::size_t a, std::size_t b) { return time[a] > time[b]; };
  };
  const auto sort_by = [&](const double* time) {
    std::sort(s.order.begin(), s.order.end(), descending(time));
  };
  // Builds the descending order of a candidate's times at q_top into
  // `fresh`; false when two keys tie or one is NaN, i.e. when that order
  // is not unique.
  const auto unique_order = [&](int q_top, const double* time) {
    if (s.plain_order_q != q_top) {
      s.plain_order = s.plain;
      std::sort(s.plain_order.begin(), s.plain_order.end(), descending(time));
      s.plain_order_q = q_top;
    }
    s.ortho_order = s.ortho;
    std::sort(s.ortho_order.begin(), s.ortho_order.end(), descending(time));
    s.fresh.resize(n);
    std::merge(s.plain_order.begin(), s.plain_order.end(),
               s.ortho_order.begin(), s.ortho_order.end(), s.fresh.begin(),
               descending(time));
    for (std::size_t k = 1; k < n; ++k) {
      if (!(time[s.fresh[k - 1]] > time[s.fresh[k]])) return false;
    }
    return true;
  };
  const auto compute_bound = [&](int q_top, int g) {
    auto [it, inserted] = s.compute_bounds.try_emplace(q_top);
    if (inserted) {
      double max_c = 0.0;
      double sum_c = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double c =
            cost.symbolic_compute_time(graph.task(tasks[i]), q_top);
        max_c = std::max(max_c, c);
        sum_c += c;
      }
      it->second = {max_c, sum_c};
    }
    // max_c lower-bounds the makespan exactly: every task's time is at
    // least its compute share at the largest group size.  The averaged
    // bound (total compute spread over g groups) is deflated by the
    // worst-case summation error so rounding can never prune a candidate
    // that would have won.
    const double safety = 1.0 - 8.0 * static_cast<double>(n + 2) *
                                    std::numeric_limits<double>::epsilon();
    return std::max(it->second.first,
                    it->second.second / static_cast<double>(g) * safety);
  };
  const auto time_bound = [&](int q_lo, int q_top, int g) {
    auto [it, inserted] =
        s.time_bounds.try_emplace(2 * q_lo + (q_top > q_lo ? 1 : 0));
    if (inserted) {
      const LayerScratch::Row& top = shared_row(q_top, g);
      const LayerScratch::Row& lo = shared_row(q_lo, g);
      double bound = 0.0;
      for (const std::size_t i : s.plain) {
        bound = std::max(bound, std::min(top.time[i], lo.time[i]));
      }
      it->second = {bound, top.monotone && lo.monotone};
    }
    LayerScratch::TimeBound result = it->second;
    for (std::size_t k = 0; k < s.ortho.size(); ++k) {
      result.monotone = result.monotone && monotone_time(s.ortho_top[k]) &&
                        monotone_time(s.ortho_lo[k]);
      result.bound =
          std::max(result.bound, std::min(s.ortho_top[k], s.ortho_lo[k]));
    }
    return result;
  };

  double best_time = std::numeric_limits<double>::infinity();
  int best_g = 0;
  std::size_t sorted = 0;  // leading candidates whose sorts `order` reflects

  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const int g = candidates[c];
    const int q_lo = P / g;
    const int rem = P % g;
    const int q_top = rem > 0 ? q_lo + 1 : q_lo;  // == equal_group_sizes[0]
    const bool bounded = best_time < std::numeric_limits<double>::infinity();
    if (bounded && compute_bound(q_top, g) >= best_time) {
      ++stats.pruned;
      continue;
    }
    price_ortho(q_top, g, s.ortho_top);
    if (rem > 0) {
      price_ortho(q_lo, g, s.ortho_lo);
    } else {
      s.ortho_lo = s.ortho_top;
    }
    bool abortable = false;
    if (bounded) {
      const LayerScratch::TimeBound bound = time_bound(q_lo, q_top, g);
      if (bound.monotone && bound.bound >= best_time) {
        ++stats.pruned;
        continue;
      }
      abortable = bound.monotone;
    }
    // Times at the first (largest) group size drive the LPT order.
    const double* time_top = times_at(q_top, g, s.ortho_top, s.time);
    const double* time_lo =
        rem > 0 ? times_at(q_lo, g, s.ortho_lo, s.time_lo) : time_top;
    if (unique_order(q_top, time_top)) {
      s.order.swap(s.fresh);
    } else {
      for (; sorted < c; ++sorted) {
        const int g_k = candidates[sorted];
        const int q_k = (P + g_k - 1) / g_k;  // that candidate's q_top
        price_ortho(q_k, g_k, s.replay_ortho);
        sort_by(times_at(q_k, g_k, s.replay_ortho, s.replay_time));
      }
      sort_by(time_top);
    }
    sorted = c + 1;
    ++stats.evaluated;

    // Greedy assignment via a (load, group) min-heap: the heap minimum
    // under lexicographic pair order is the lowest-index minimum load --
    // exactly what the monolith's std::min_element scan picks -- and each
    // group accumulates the same time sequence, so the assignment is
    // bit-identical at O(n log g) instead of O(n g).
    s.task_group.assign(n, 0);
    s.heap.clear();
    for (int gi = 0; gi < g; ++gi) s.heap.emplace_back(0.0, gi);
    // All-zero loads with ascending indices already form a min-heap.
    bool aborted = false;
    for (const std::size_t i : s.order) {
      std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
      auto& [load, gi] = s.heap.back();
      load += gi < rem ? time_top[i] : time_lo[i];
      s.task_group[i] = gi;
      if (abortable && load >= best_time) {
        aborted = true;
        break;
      }
      std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    }
    if (aborted) {
      ++stats.aborted;
      continue;
    }
    double layer_time = 0.0;
    for (const auto& [load, gi] : s.heap) {
      layer_time = std::max(layer_time, load);
    }

    if (layer_time < best_time) {
      best_time = layer_time;
      best_g = g;
      best.task_group.swap(s.task_group);
      best.predicted_time = layer_time;
    }
  }

  if (best_g > 0) {
    // Materialized once for the winner instead of per improving candidate.
    best.tasks = tasks;
    best.group_sizes = equal_group_sizes(P, best_g);
  }
  return best;
}

/// Content signature of one layer: the ordered original-task member lists
/// of its contracted nodes plus the candidate group counts.  Layers with
/// equal signatures have byte-identical merged task contents (original
/// tasks are immutable under the online-arrival model and chain contraction
/// merges members deterministically), so their schedule_layer results are
/// interchangeable modulo the contracted-id labels.
std::string layer_signature(const core::ChainContraction& contraction,
                            const std::vector<core::TaskId>& tasks,
                            const std::vector<int>& candidates) {
  std::string key;
  key.reserve(tasks.size() * 8);
  for (const core::TaskId id : tasks) {
    for (const core::TaskId member :
         contraction.members[static_cast<std::size_t>(id)]) {
      key += std::to_string(member);
      key += ',';
    }
    key += ';';
  }
  key += '|';
  for (const int g : candidates) {
    key += std::to_string(g);
    key += ',';
  }
  return key;
}

/// The signature of a memo entry (members were captured at settle time).
std::string memo_signature(const LayerMemoEntry& entry) {
  std::string key;
  for (const std::vector<core::TaskId>& members : entry.members) {
    for (const core::TaskId member : members) {
      key += std::to_string(member);
      key += ',';
    }
    key += ';';
  }
  key += '|';
  for (const int g : entry.candidates) {
    key += std::to_string(g);
    key += ',';
  }
  return key;
}

}  // namespace

std::vector<int> equal_group_sizes(int total, int g) {
  if (g <= 0 || total < g) throw std::invalid_argument("bad group count");
  std::vector<int> sizes(static_cast<std::size_t>(g), total / g);
  for (int i = 0; i < total % g; ++i) sizes[static_cast<std::size_t>(i)] += 1;
  return sizes;
}

std::vector<int> proportional_group_sizes(int total,
                                          const std::vector<double>& weights) {
  const int g = static_cast<int>(weights.size());
  if (g <= 0 || total < g) throw std::invalid_argument("bad group count");
  double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (sum <= 0.0) return equal_group_sizes(total, g);

  // Give every group its floor share (but at least 1 core), then distribute
  // the remaining cores by largest fractional remainder.
  std::vector<int> sizes(static_cast<std::size_t>(g), 0);
  std::vector<double> remainder(static_cast<std::size_t>(g), 0.0);
  int assigned = 0;
  for (int i = 0; i < g; ++i) {
    const double share =
        static_cast<double>(total) * weights[static_cast<std::size_t>(i)] / sum;
    int floor_share = static_cast<int>(share);
    floor_share = std::max(floor_share, 1);
    sizes[static_cast<std::size_t>(i)] = floor_share;
    remainder[static_cast<std::size_t>(i)] = share - floor_share;
    assigned += floor_share;
  }
  std::vector<int> order(static_cast<std::size_t>(g));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return remainder[static_cast<std::size_t>(a)] >
           remainder[static_cast<std::size_t>(b)];
  });
  // Add missing cores to the largest remainders; remove surplus cores from
  // the smallest remainders (never below 1).
  int idx = 0;
  while (assigned < total) {
    sizes[static_cast<std::size_t>(order[static_cast<std::size_t>(idx % g)])]++;
    ++assigned;
    ++idx;
  }
  idx = g - 1;
  while (assigned > total) {
    int& s = sizes[static_cast<std::size_t>(
        order[static_cast<std::size_t>(((idx % g) + g) % g)])];
    if (s > 1) {
      --s;
      --assigned;
    }
    --idx;
  }
  return sizes;
}

void ContractChains::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.chain_contraction");
  if (ctx.options.contract_chains) {
    ctx.contraction = core::contract_linear_chains(*ctx.graph);
  } else {
    ctx.contraction = core::identity_contraction(*ctx.graph);
  }
}

void Layerize::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.layer_partition");
  ctx.layer_tasks = core::greedy_layers(ctx.contraction.contracted);
}

void GroupSearch::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.group_search");
  const int P = ctx.total_cores;
  ctx.group_candidates.clear();
  ctx.group_candidates.reserve(ctx.layer_tasks.size());
  for (const std::vector<core::TaskId>& tasks : ctx.layer_tasks) {
    const int n_tasks = static_cast<int>(tasks.size());
    int g_limit = std::min(P, n_tasks);
    int g_first = 1;
    if (ctx.options.fixed_groups > 0) {
      g_first = g_limit = std::min(ctx.options.fixed_groups,
                                   std::min(P, n_tasks));
    }
    std::vector<int> candidates;
    candidates.reserve(static_cast<std::size_t>(g_limit - g_first + 1));
    for (int g = g_first; g <= g_limit; ++g) candidates.push_back(g);
    ctx.group_candidates.push_back(std::move(candidates));
  }
}

void AssignLPT::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.assign_lpt");
  if (ctx.group_candidates.size() != ctx.layer_tasks.size()) {
    throw std::logic_error("AssignLPT requires GroupSearch candidates");
  }
  static obs::Counter& pruned_counter =
      obs::metrics().counter("sched.prune.pruned");
  static obs::Counter& evaluated_counter =
      obs::metrics().counter("sched.prune.evaluated");
  static obs::Counter& aborted_counter =
      obs::metrics().counter("sched.prune.aborted");

  const core::TaskGraph& contracted = ctx.contraction.contracted;
  const int P = ctx.total_cores;
  const cost::CostModel& cost = *ctx.cost;
  const std::size_t n_layers = ctx.layer_tasks.size();
  ctx.layers.clear();
  ctx.layers.resize(n_layers);
  ctx.layer_dirty.assign(n_layers, 1);
  ctx.layer_memo.assign(n_layers, -1);

  // Incremental repair: layers whose content signature matches a memo entry
  // are replayed under the new contracted ids instead of re-scheduled.  The
  // replay is bit-identical because schedule_layer is a pure function of
  // the signature (plus P / cost / options, constant across a session) and
  // the memo stores the settled post-adjust layer.
  //
  // Matching is two-tier.  Arrival deltas usually leave a long prefix of
  // layers untouched, so layer li is first compared structurally against
  // memo entry li -- an allocation-free vector walk.  Only when some layer
  // misses positionally (content shifted between layers) is the signature
  // string map built to find entries that moved.
  std::vector<std::int32_t> memo_hit(n_layers, -1);
  if (!ctx.memo.empty()) {
    const auto matches_entry = [&](const LayerMemoEntry& entry,
                                   std::size_t li) {
      const std::vector<core::TaskId>& tasks = ctx.layer_tasks[li];
      if (entry.candidates != ctx.group_candidates[li] ||
          entry.members.size() != tasks.size()) {
        return false;
      }
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (entry.members[i] !=
            ctx.contraction.members[static_cast<std::size_t>(tasks[i])]) {
          return false;
        }
      }
      return true;
    };
    bool all_positional = true;
    for (std::size_t li = 0; li < n_layers; ++li) {
      if (li < ctx.memo.size() && matches_entry(ctx.memo[li], li)) {
        memo_hit[li] = static_cast<std::int32_t>(li);
      } else {
        all_positional = false;
      }
    }
    if (!all_positional) {
      std::unordered_map<std::string, std::int32_t> settled;
      settled.reserve(ctx.memo.size());
      for (std::size_t m = 0; m < ctx.memo.size(); ++m) {
        settled.emplace(memo_signature(ctx.memo[m]),
                        static_cast<std::int32_t>(m));
      }
      for (std::size_t li = 0; li < n_layers; ++li) {
        if (memo_hit[li] >= 0) continue;
        const auto hit = settled.find(layer_signature(
            ctx.contraction, ctx.layer_tasks[li], ctx.group_candidates[li]));
        if (hit != settled.end()) memo_hit[li] = hit->second;
      }
    }
  }

  // Layers are independent and `order` is per-layer, so the worker split
  // cannot change any tie-break: parallel == serial, byte for byte.
  std::atomic<std::size_t> next{0};
  const auto run_layers = [&](PruneStats& stats) {
    LayerScratch scratch;
    for (std::size_t li = next.fetch_add(1); li < n_layers;
         li = next.fetch_add(1)) {
      if (memo_hit[li] >= 0) {
        const LayerMemoEntry& entry =
            ctx.memo[static_cast<std::size_t>(memo_hit[li])];
        // Positional remap: equal signatures mean position i of the new
        // layer is the same merged task as position i of the settled one.
        ScheduledLayer replay = entry.layer;
        replay.tasks = ctx.layer_tasks[li];
        ctx.layers[li] = std::move(replay);
        ctx.layer_dirty[li] = 0;
        ctx.layer_memo[li] = memo_hit[li];
        continue;
      }
      ctx.layers[li] =
          schedule_layer(contracted, ctx.layer_tasks[li],
                         ctx.group_candidates[li], P, cost, scratch, stats);
    }
  };

  PruneStats total;
  const int workers =
      std::min(ctx.options.parallel_layers, static_cast<int>(n_layers));
  if (workers <= 1) {
    run_layers(total);
  } else {
    std::vector<PruneStats> stats(static_cast<std::size_t>(workers));
    std::mutex error_mutex;
    std::exception_ptr error;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          run_layers(stats[static_cast<std::size_t>(w)]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
    if (error) std::rethrow_exception(error);
    for (const PruneStats& s : stats) {
      total.pruned += s.pruned;
      total.evaluated += s.evaluated;
      total.aborted += s.aborted;
    }
  }
  pruned_counter.add(total.pruned);
  evaluated_counter.add(total.evaluated);
  aborted_counter.add(total.aborted);

  ctx.layers_reused = 0;
  ctx.layers_scheduled = 0;
  ctx.settled_prefix = 0;
  bool prefix_clean = true;
  for (std::size_t li = 0; li < n_layers; ++li) {
    if (ctx.layer_dirty[li] != 0) {
      ++ctx.layers_scheduled;
      prefix_clean = false;
    } else {
      ++ctx.layers_reused;
      if (prefix_clean) ++ctx.settled_prefix;
    }
  }
}

void AdjustGroups::run(PassContext& ctx) const {
  if (!ctx.options.adjust_group_sizes) return;
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.adjust");
  const core::TaskGraph& contracted = ctx.contraction.contracted;
  const cost::CostModel& cost = *ctx.cost;
  const int P = ctx.total_cores;
  for (std::size_t li = 0; li < ctx.layers.size(); ++li) {
    ScheduledLayer& layer = ctx.layers[li];
    // Layers replayed from the memo are already post-adjust (the memo is
    // captured after the full pass chain); re-adjusting them would be an
    // idempotent waste of the repair's savings.
    if (li < ctx.layer_dirty.size() && ctx.layer_dirty[li] == 0) continue;
    if (layer.num_groups() <= 1) continue;
    // Accumulated *sequential* work per group (paper: Tseq(G_l)).
    std::vector<double> work(static_cast<std::size_t>(layer.num_groups()),
                             0.0);
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      work[static_cast<std::size_t>(layer.task_group[i])] +=
          contracted.task(layer.tasks[i]).work_flop();
    }
    layer.group_sizes = proportional_group_sizes(P, work);
    // Re-evaluate the layer time with the adjusted sizes.
    std::vector<double> accumulated(
        static_cast<std::size_t>(layer.num_groups()), 0.0);
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      const std::size_t gidx = static_cast<std::size_t>(layer.task_group[i]);
      accumulated[gidx] += cost.symbolic_task_time(
          contracted.task(layer.tasks[i]), layer.group_sizes[gidx],
          layer.num_groups(), P);
    }
    layer.predicted_time =
        *std::max_element(accumulated.begin(), accumulated.end());
  }
}

Pipeline Pipeline::algorithm1(const cost::CostModel& cost,
                              LayerSchedulerOptions options, std::string name) {
  Pipeline pipeline(cost, std::move(name), options);
  pipeline.passes_.push_back(std::make_unique<ContractChains>());
  pipeline.passes_.push_back(std::make_unique<Layerize>());
  pipeline.passes_.push_back(std::make_unique<GroupSearch>());
  pipeline.passes_.push_back(std::make_unique<AssignLPT>());
  pipeline.passes_.push_back(std::make_unique<AdjustGroups>());
  return pipeline;
}

PassContext Pipeline::make_context(const core::TaskGraph& graph,
                                   int total_cores) const {
  if (total_cores <= 0) {
    throw std::invalid_argument("core count must be positive");
  }
  static obs::Counter& invocations =
      obs::metrics().counter("sched.invocations");
  invocations.add();
  PassContext ctx;
  ctx.graph = &graph;
  ctx.cost = cost_;
  ctx.total_cores = total_cores;
  ctx.options = options_;
  ctx.pricing = cost_;
  return ctx;
}

Schedule Pipeline::run(const core::TaskGraph& graph, int total_cores) const {
  PassContext ctx = make_context(graph, total_cores);
  return run(ctx);
}

Schedule Pipeline::run(PassContext& ctx) const {
  obs::ScopedSpan span(obs::SpanKind::Scheduler, "sched.schedule");
  for (const std::unique_ptr<Pass>& pass : passes_) pass->run(ctx);

  // Replayed layers lower through their memoized task times: re-deriving
  // durations from slot differences is not FP-exact, and replaying the
  // settled doubles keeps a spliced Gantt byte-identical to a full
  // re-schedule.  Dirty layers are priced as they are lowered, so a run
  // without a memo allocates nothing for this.
  obs::ScopedSpan lowering_span(obs::SpanKind::Scheduler, "sched.lowering");
  std::vector<const double*> replayed;
  if (!ctx.memo.empty()) {
    replayed.assign(
        static_cast<std::size_t>(ctx.contraction.contracted.num_tasks()),
        nullptr);
    for (std::size_t li = 0; li < ctx.layers.size(); ++li) {
      const std::int32_t memo_idx =
          li < ctx.layer_memo.size() ? ctx.layer_memo[li] : -1;
      if (memo_idx < 0) continue;
      const std::vector<double>& times =
          ctx.memo[static_cast<std::size_t>(memo_idx)].task_times;
      const std::vector<core::TaskId>& tasks = ctx.layers[li].tasks;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        replayed[static_cast<std::size_t>(tasks[i])] = &times[i];
      }
    }
  }

  Schedule result;
  result.strategy = name_;
  result.settled_prefix_layers = ctx.settled_prefix;
  LayeredSchedule& layered = result.layered;
  layered.total_cores = ctx.total_cores;
  layered.contraction = std::move(ctx.contraction);
  layered.layers = std::move(ctx.layers);
  for (const ScheduledLayer& layer : layered.layers) {
    layered.predicted_makespan += layer.predicted_time;
  }
  const core::TaskGraph& contracted = layered.contraction.contracted;
  const cost::CostModel& cost = *ctx.cost;
  result.gantt =
      to_gantt(layered, [&](core::TaskId id, int q, int num_groups) {
        const std::size_t task = static_cast<std::size_t>(id);
        if (task < replayed.size() && replayed[task] != nullptr) {
          return *replayed[task];
        }
        return cost.symbolic_task_time(contracted.task(id), q, num_groups,
                                       layered.total_cores);
      });
  result.allocation.resize(result.gantt.slots.size());
  for (std::size_t id = 0; id < result.gantt.slots.size(); ++id) {
    result.allocation[id] = result.gantt.slots[id].num_cores();
  }
  return result;
}

Schedule canonical(LayeredSchedule layered, const cost::CostModel& cost,
                   std::string strategy) {
  Schedule result;
  result.strategy = std::move(strategy);
  result.layered = std::move(layered);
  const core::TaskGraph& contracted =
      result.layered.contraction.contracted;
  const int P = result.layered.total_cores;
  result.gantt = to_gantt(
      result.layered, [&](core::TaskId id, int q, int num_groups) {
        return cost.symbolic_task_time(contracted.task(id), q, num_groups, P);
      });
  result.allocation.resize(result.gantt.slots.size());
  for (std::size_t id = 0; id < result.gantt.slots.size(); ++id) {
    result.allocation[id] = result.gantt.slots[id].num_cores();
  }
  return result;
}

Schedule canonical(const core::TaskGraph& graph, MoldableResult moldable,
                   std::string strategy) {
  Schedule result;
  result.strategy = std::move(strategy);
  result.layered.total_cores = moldable.schedule.total_cores;
  result.layered.contraction = core::identity_contraction(graph);
  result.layered.predicted_makespan = moldable.schedule.makespan;
  result.gantt = std::move(moldable.schedule);
  result.allocation = std::move(moldable.allocation);
  return result;
}

}  // namespace ptask::sched
