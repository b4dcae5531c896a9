// Tests for data distributions and re-distribution plans.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "ptask/dist/distribution.hpp"
#include "ptask/dist/redistribution.hpp"

namespace ptask::dist {
namespace {

TEST(Distribution, BlockOwnership) {
  const Distribution d = Distribution::block();
  // 10 elements over 3 ranks: sizes 4, 3, 3.
  EXPECT_EQ(d.owner(0, 10, 3), 0u);
  EXPECT_EQ(d.owner(3, 10, 3), 0u);
  EXPECT_EQ(d.owner(4, 10, 3), 1u);
  EXPECT_EQ(d.owner(6, 10, 3), 1u);
  EXPECT_EQ(d.owner(7, 10, 3), 2u);
  EXPECT_EQ(d.owner(9, 10, 3), 2u);
  EXPECT_EQ(d.local_count(0, 10, 3), 4u);
  EXPECT_EQ(d.local_count(1, 10, 3), 3u);
  EXPECT_EQ(d.local_count(2, 10, 3), 3u);
}

TEST(Distribution, CyclicOwnership) {
  const Distribution d = Distribution::cyclic();
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(d.owner(i, 12, 4), i % 4);
  }
  EXPECT_EQ(d.local_count(0, 10, 4), 3u);
  EXPECT_EQ(d.local_count(1, 10, 4), 3u);
  EXPECT_EQ(d.local_count(2, 10, 4), 2u);
  EXPECT_EQ(d.local_count(3, 10, 4), 2u);
}

TEST(Distribution, BlockCyclicOwnership) {
  const Distribution d = Distribution::block_cyclic(2);
  // blocks: [0,1]->0, [2,3]->1, [4,5]->2, [6,7]->0, ...
  EXPECT_EQ(d.owner(0, 16, 3), 0u);
  EXPECT_EQ(d.owner(1, 16, 3), 0u);
  EXPECT_EQ(d.owner(2, 16, 3), 1u);
  EXPECT_EQ(d.owner(5, 16, 3), 2u);
  EXPECT_EQ(d.owner(6, 16, 3), 0u);
}

TEST(Distribution, ReplicatedHoldsEverythingEverywhere) {
  const Distribution d = Distribution::replicated();
  EXPECT_EQ(d.local_count(0, 100, 8), 100u);
  EXPECT_EQ(d.local_count(7, 100, 8), 100u);
  EXPECT_EQ(d.owner(42, 100, 8), 0u);  // canonical owner
}

TEST(Distribution, Equality) {
  EXPECT_EQ(Distribution::block(), Distribution::block());
  EXPECT_NE(Distribution::block(), Distribution::cyclic());
  EXPECT_EQ(Distribution::block_cyclic(4), Distribution::block_cyclic(4));
  EXPECT_NE(Distribution::block_cyclic(4), Distribution::block_cyclic(8));
}

TEST(Distribution, Validation) {
  EXPECT_THROW(Distribution::block_cyclic(0), std::invalid_argument);
  EXPECT_THROW(Distribution::block().owner(5, 5, 2), std::out_of_range);
  EXPECT_THROW(Distribution::block().owner(0, 5, 0), std::invalid_argument);
  EXPECT_THROW(Distribution::block().local_count(2, 5, 2), std::out_of_range);
}

TEST(Distribution, ToString) {
  EXPECT_EQ(Distribution::block().to_string(), "block");
  EXPECT_EQ(Distribution::block_cyclic(16).to_string(), "block-cyclic(16)");
}

// Ownership counts must always sum to n (a partition) for non-replicated
// distributions.
class OwnershipPartitionTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OwnershipPartitionTest, LocalCountsPartitionTheVector) {
  const auto [n_int, q_int] = GetParam();
  const std::size_t n = static_cast<std::size_t>(n_int);
  const std::size_t q = static_cast<std::size_t>(q_int);
  for (const Distribution& d :
       {Distribution::block(), Distribution::cyclic(),
        Distribution::block_cyclic(3)}) {
    std::size_t total = 0;
    std::vector<std::size_t> counted(q, 0);
    for (std::size_t r = 0; r < q; ++r) total += d.local_count(r, n, q);
    EXPECT_EQ(total, n) << d.to_string();
    // owner() agrees with local_count().
    for (std::size_t i = 0; i < n; ++i) counted[d.owner(i, n, q)]++;
    for (std::size_t r = 0; r < q; ++r) {
      EXPECT_EQ(counted[r], d.local_count(r, n, q))
          << d.to_string() << " rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OwnershipPartitionTest,
    ::testing::Combine(::testing::Values(1, 7, 64, 100, 1023),
                       ::testing::Values(1, 2, 3, 8, 16)));

TEST(RedistributionPlan, IdenticalLayoutIsFree) {
  const RedistributionPlan plan = RedistributionPlan::compute(
      1000, 8, Distribution::block(), 4, Distribution::block(), 4,
      /*same_groups=*/true);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.total_bytes(), 0u);
}

TEST(RedistributionPlan, BlockToCyclicSameGroupMovesMostElements) {
  const std::size_t n = 16;
  const RedistributionPlan plan = RedistributionPlan::compute(
      n, 8, Distribution::block(), 4, Distribution::cyclic(), 4,
      /*same_groups=*/true);
  // Element i stays put iff block owner == cyclic owner; with n=16, q=4,
  // block owner = i/4, cyclic owner = i%4 -> fixed points i in {0,5,10,15}.
  EXPECT_EQ(plan.total_bytes(), (n - 4) * 8);
}

TEST(RedistributionPlan, VolumeConservation) {
  // Total bytes moved equals (elements not already in place) * elem size;
  // with disjoint groups everything moves.
  const std::size_t n = 1024;
  const RedistributionPlan plan = RedistributionPlan::compute(
      n, 8, Distribution::block(), 4, Distribution::block(), 8,
      /*same_groups=*/false);
  EXPECT_EQ(plan.total_bytes(), n * 8);
  // Per-destination totals must equal the destination's local counts.
  std::vector<std::size_t> per_dst(8, 0);
  for (const Transfer& t : plan.transfers()) per_dst[t.dst_rank] += t.bytes;
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(per_dst[r], Distribution::block().local_count(r, n, 8) * 8);
  }
}

TEST(RedistributionPlan, ReplicatedDestinationBroadcastsEverything) {
  const std::size_t n = 100;
  const RedistributionPlan plan = RedistributionPlan::compute(
      n, 8, Distribution::block(), 2, Distribution::replicated(), 3,
      /*same_groups=*/false);
  // Every destination rank needs all n elements.
  std::vector<std::size_t> per_dst(3, 0);
  for (const Transfer& t : plan.transfers()) per_dst[t.dst_rank] += t.bytes;
  for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(per_dst[r], n * 8);
}

TEST(RedistributionPlan, ReplicatedToReplicatedSameGroupIsFree) {
  const RedistributionPlan plan = RedistributionPlan::compute(
      100, 8, Distribution::replicated(), 4, Distribution::replicated(), 4,
      /*same_groups=*/true);
  EXPECT_TRUE(plan.empty());
}

TEST(RedistributionPlan, MaxPairBoundsTotal) {
  const RedistributionPlan plan = RedistributionPlan::compute(
      777, 8, Distribution::cyclic(), 3, Distribution::block(), 5, false);
  EXPECT_GE(plan.max_pair_bytes(), plan.total_bytes() / (3 * 5));
  EXPECT_LE(plan.max_pair_bytes(), plan.total_bytes());
}

TEST(RedistributionPlan, Validation) {
  EXPECT_THROW(RedistributionPlan::compute(10, 8, Distribution::block(), 0,
                                           Distribution::block(), 2, false),
               std::invalid_argument);
  EXPECT_THROW(RedistributionPlan::compute(10, 8, Distribution::block(), 2,
                                           Distribution::block(), 3, true),
               std::invalid_argument);
  EXPECT_TRUE(RedistributionPlan::compute(0, 8, Distribution::block(), 2,
                                          Distribution::block(), 3, false)
                  .empty());
}

// ---------------------------------------------------------------------------
// The element-scan RedistributionPlan::compute that the run walk replaced,
// transplanted verbatim (only its result type is local to the test).
// ---------------------------------------------------------------------------

struct ReferencePlan {
  std::vector<Transfer> transfers;
  std::size_t total_bytes = 0;
  std::size_t max_pair_bytes = 0;
};

ReferencePlan reference_compute(std::size_t n, std::size_t elem_size,
                                const Distribution& src, std::size_t q1,
                                const Distribution& dst, std::size_t q2,
                                bool same_groups) {
  ReferencePlan plan;
  if (n == 0) return plan;

  // Identical distribution over the same physical group: nothing to move.
  if (same_groups && src == dst) return plan;

  std::vector<std::size_t> counts(q1 * q2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = src.owner(i, n, q1);
    if (dst.is_replicated()) {
      // Every destination rank needs the element.
      for (std::size_t d = 0; d < q2; ++d) {
        if (same_groups && d == s) continue;  // already resident
        counts[s * q2 + d] += 1;
      }
    } else {
      const std::size_t d = dst.owner(i, n, q2);
      if (same_groups && d == s) continue;
      if (src.is_replicated() && same_groups) continue;  // resident everywhere
      counts[s * q2 + d] += 1;
    }
  }

  for (std::size_t s = 0; s < q1; ++s) {
    for (std::size_t d = 0; d < q2; ++d) {
      const std::size_t c = counts[s * q2 + d];
      if (c == 0) continue;
      const std::size_t bytes = c * elem_size;
      plan.transfers.push_back({s, d, bytes});
      plan.total_bytes += bytes;
      plan.max_pair_bytes = std::max(plan.max_pair_bytes, bytes);
    }
  }
  return plan;
}

TEST(RedistributionPlanReference, RunWalkMatchesElementScan) {
  const std::vector<std::size_t> group_sizes{1, 3, 64};
  int cases = 0;
  int short_block_cases = 0;  // Block over more ranks than elements
  for (const std::size_t q1 : group_sizes) {
    for (const std::size_t q2 : group_sizes) {
      std::vector<std::size_t> sizes{1, 4099};
      for (const std::size_t q : {q1, q2}) {
        sizes.insert(sizes.end(), {q - 1, q, q + 1});
      }
      std::sort(sizes.begin(), sizes.end());
      sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
      for (const std::size_t n : sizes) {
        const std::vector<Distribution> kinds{
            Distribution::replicated(),     Distribution::block(),
            Distribution::cyclic(),         Distribution::block_cyclic(1),
            Distribution::block_cyclic(3),  Distribution::block_cyclic(n + 1)};
        for (const Distribution& src : kinds) {
          for (const Distribution& dst : kinds) {
            for (const bool same : {false, true}) {
              if (same && q1 != q2) continue;
              const std::string label =
                  src.to_string() + "/" + std::to_string(q1) + " -> " +
                  dst.to_string() + "/" + std::to_string(q2) +
                  " n=" + std::to_string(n) + (same ? " same" : "");
              const ReferencePlan want =
                  reference_compute(n, 8, src, q1, dst, q2, same);
              const RedistributionPlan got =
                  RedistributionPlan::compute(n, 8, src, q1, dst, q2, same);
              ASSERT_EQ(want.transfers.size(), got.transfers().size()) << label;
              for (std::size_t t = 0; t < want.transfers.size(); ++t) {
                ASSERT_EQ(want.transfers[t].src_rank,
                          got.transfers()[t].src_rank) << label;
                ASSERT_EQ(want.transfers[t].dst_rank,
                          got.transfers()[t].dst_rank) << label;
                ASSERT_EQ(want.transfers[t].bytes, got.transfers()[t].bytes)
                    << label;
              }
              ASSERT_EQ(want.total_bytes, got.total_bytes()) << label;
              ASSERT_EQ(want.max_pair_bytes, got.max_pair_bytes()) << label;
              ++cases;
              if ((src.kind() == Kind::Block && n < q1) ||
                  (dst.kind() == Kind::Block && n < q2)) {
                ++short_block_cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2520);
  EXPECT_GT(short_block_cases, 0);
}

TEST(Distribution, RunEndStaysWithinOneOwner) {
  for (const Distribution& d :
       {Distribution::replicated(), Distribution::block(),
        Distribution::cyclic(), Distribution::block_cyclic(3)}) {
    for (const std::size_t q : {1u, 3u, 8u}) {
      for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 100u}) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t end = d.run_end(i, n, q);
          ASSERT_GT(end, i);
          ASSERT_LE(end, n);
          for (std::size_t j = i; j < end; ++j) {
            ASSERT_EQ(d.owner(j, n, q), d.owner(i, n, q))
                << d.to_string() << " n=" << n << " q=" << q << " i=" << i;
          }
        }
      }
    }
  }
  EXPECT_EQ(Distribution::replicated().run_end(0, 10, 4), 10u);
  EXPECT_EQ(Distribution::block().run_end(0, 10, 3), 4u);
  EXPECT_EQ(Distribution::block().run_end(4, 10, 3), 7u);
  EXPECT_EQ(Distribution::block().run_end(8, 10, 3), 10u);
  EXPECT_EQ(Distribution::cyclic().run_end(5, 10, 3), 6u);
  EXPECT_EQ(Distribution::block_cyclic(4).run_end(9, 10, 3), 10u);
  EXPECT_THROW(Distribution::block().run_end(5, 5, 2), std::out_of_range);
  EXPECT_THROW(Distribution::block().run_end(0, 5, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ptask::dist
