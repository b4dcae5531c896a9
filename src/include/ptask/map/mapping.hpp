#pragma once
/// \file mapping.hpp
/// The mapping function F_W (paper Section 3.4): assigns the symbolic cores
/// of a scheduled layer to physical cores.
///
/// The symbolic cores are ordered group by group (sc_{1,1}, ..., sc_{1,|G1|},
/// sc_{2,1}, ..., sc_{g,|Gg|}); F_W maps the i-th symbolic core of that
/// sequence to the i-th physical core of the strategy's core sequence, so
/// group G_i receives the contiguous slice of the physical sequence starting
/// at offset |G_1| + ... + |G_{i-1}|.  Distinct groups always receive
/// disjoint physical cores.

#include <span>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/map/core_sequence.hpp"
#include "ptask/sched/schedule.hpp"

namespace ptask::map {

/// Applies F_W to one layer: slices `sequence` by `group_sizes`.
/// The sum of the group sizes must not exceed the sequence length.
cost::LayerLayout map_layer(std::span<const int> group_sizes,
                            std::span<const int> sequence);

/// Maps every layer of a layered schedule with one strategy, yielding the
/// per-layer physical layouts in layer order.
std::vector<cost::LayerLayout> map_schedule(
    const sched::LayeredSchedule& schedule, const arch::Machine& machine,
    Strategy strategy, int d = 1);

/// Canonical-schedule convenience: maps `schedule.layered`.  Throws
/// std::invalid_argument for allocation-only schedules (no group structure
/// to map).
std::vector<cost::LayerLayout> map_schedule(const sched::Schedule& schedule,
                                            const arch::Machine& machine,
                                            Strategy strategy, int d = 1);

}  // namespace ptask::map
