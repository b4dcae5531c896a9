#include "ptask/map/mapping.hpp"

#include <numeric>
#include <stdexcept>

namespace ptask::map {

cost::LayerLayout map_layer(std::span<const int> group_sizes,
                            std::span<const int> sequence) {
  const int total = std::accumulate(group_sizes.begin(), group_sizes.end(), 0);
  if (total > static_cast<int>(sequence.size())) {
    throw std::invalid_argument("not enough physical cores for the layer");
  }
  cost::LayerLayout layout;
  layout.groups.reserve(group_sizes.size());
  std::size_t offset = 0;
  for (int size : group_sizes) {
    if (size <= 0) throw std::invalid_argument("non-positive group size");
    cost::GroupLayout group;
    group.cores.assign(sequence.begin() + static_cast<std::ptrdiff_t>(offset),
                       sequence.begin() +
                           static_cast<std::ptrdiff_t>(offset + size));
    layout.groups.push_back(std::move(group));
    offset += static_cast<std::size_t>(size);
  }
  return layout;
}

std::vector<cost::LayerLayout> map_schedule(
    const sched::LayeredSchedule& schedule, const arch::Machine& machine,
    Strategy strategy, int d) {
  if (schedule.total_cores > machine.total_cores()) {
    throw std::invalid_argument("schedule uses more cores than the machine");
  }
  const std::vector<int> sequence = physical_sequence(machine, strategy, d);
  std::vector<cost::LayerLayout> layouts;
  layouts.reserve(schedule.layers.size());
  for (const sched::ScheduledLayer& layer : schedule.layers) {
    layouts.push_back(map_layer(layer.group_sizes, sequence));
  }
  return layouts;
}

std::vector<cost::LayerLayout> map_schedule(const sched::Schedule& schedule,
                                            const arch::Machine& machine,
                                            Strategy strategy, int d) {
  if (!schedule.has_layers()) {
    throw std::invalid_argument(
        "schedule '" + schedule.strategy +
        "' has no layer structure to map (allocation-only strategy)");
  }
  return map_schedule(schedule.layered, machine, strategy, d);
}

}  // namespace ptask::map
