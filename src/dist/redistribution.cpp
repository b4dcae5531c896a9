#include "ptask/dist/redistribution.hpp"

#include <algorithm>
#include <stdexcept>

namespace ptask::dist {

RedistributionPlan RedistributionPlan::compute(
    std::size_t n, std::size_t elem_size, const Distribution& src,
    std::size_t q1, const Distribution& dst, std::size_t q2,
    bool same_groups) {
  if (q1 == 0 || q2 == 0) {
    throw std::invalid_argument("group sizes must be positive");
  }
  if (same_groups && q1 != q2) {
    throw std::invalid_argument("same_groups requires equal group sizes");
  }

  RedistributionPlan plan;
  if (n == 0) return plan;

  // Identical distribution over the same physical group: nothing to move.
  if (same_groups && src == dst) return plan;

  // Pairwise element counts, added per run of elements on which both owners
  // stay the same: a run ends at the nearer block edge of the two sides.
  std::vector<std::size_t> counts(q1 * q2, 0);
  std::size_t from = 0, from_end = 0, to = 0, to_end = 0;
  for (std::size_t i = 0; i < n;) {
    if (i == from_end) {
      from = src.owner(i, n, q1);
      from_end = src.run_end(i, n, q1);
    }
    if (i == to_end) {
      to = dst.owner(i, n, q2);
      to_end = dst.run_end(i, n, q2);
    }
    const std::size_t run = std::min(from_end, to_end) - i;
    i += run;
    if (dst.is_replicated()) {
      // Every destination rank needs the elements.
      for (std::size_t d = 0; d < q2; ++d) {
        if (same_groups && d == from) continue;  // already resident
        counts[from * q2 + d] += run;
      }
    } else {
      if (same_groups && to == from) continue;
      if (src.is_replicated() && same_groups) continue;  // resident everywhere
      counts[from * q2 + to] += run;
    }
  }

  for (std::size_t s = 0; s < q1; ++s) {
    for (std::size_t d = 0; d < q2; ++d) {
      const std::size_t c = counts[s * q2 + d];
      if (c == 0) continue;
      const std::size_t bytes = c * elem_size;
      plan.transfers_.push_back({s, d, bytes});
      plan.total_bytes_ += bytes;
      plan.max_pair_bytes_ = std::max(plan.max_pair_bytes_, bytes);
    }
  }
  return plan;
}

}  // namespace ptask::dist
