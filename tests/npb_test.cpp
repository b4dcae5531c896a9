// Tests for the multi-zone benchmark module: zone geometry, step graphs,
// scheduling behaviour, and the real stencil kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ptask/npb/multizone.hpp"
#include "ptask/npb/stencil.hpp"
#include "ptask/npb/zones.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/validation.hpp"

namespace ptask::npb {
namespace {

TEST(Zones, ClassTableMatchesNpbMz) {
  const MultiZoneProblem c = make_problem(MzSolver::SP, 'C');
  EXPECT_EQ(c.num_zones(), 256);
  EXPECT_EQ(c.global.nx, 480);
  EXPECT_EQ(c.global.ny, 320);
  EXPECT_EQ(c.global.nz, 28);

  const MultiZoneProblem d = make_problem(MzSolver::BT, 'D');
  EXPECT_EQ(d.num_zones(), 1024);
  EXPECT_EQ(d.global.nx, 1632);
  EXPECT_THROW(make_problem(MzSolver::SP, 'Z'), std::invalid_argument);
}

TEST(Zones, SpZonesAreEqualSized) {
  const MultiZoneProblem p = make_problem(MzSolver::SP, 'C');
  EXPECT_NEAR(p.imbalance_ratio(), 1.0, 0.15);  // remainder spread only
}

TEST(Zones, BtZonesAreSkewedRoughly20x) {
  const MultiZoneProblem p = make_problem(MzSolver::BT, 'C');
  EXPECT_GT(p.imbalance_ratio(), 8.0);
  EXPECT_LT(p.imbalance_ratio(), 50.0);
}

TEST(Zones, PartitionCoversGlobalGrid) {
  for (MzSolver solver : {MzSolver::SP, MzSolver::BT}) {
    for (char cls : {'S', 'W', 'A', 'B', 'C'}) {
      const MultiZoneProblem p = make_problem(solver, cls);
      // Sum of zone x-widths along one row == global nx, similarly for y.
      int x_total = 0;
      for (int ix = 0; ix < p.x_zones; ++ix) {
        x_total += p.zones[static_cast<std::size_t>(ix)].nx;
      }
      EXPECT_EQ(x_total, p.global.nx) << p.name();
      int y_total = 0;
      for (int iy = 0; iy < p.y_zones; ++iy) {
        y_total += p.zones[static_cast<std::size_t>(iy * p.x_zones)].ny;
      }
      EXPECT_EQ(y_total, p.global.ny) << p.name();
      EXPECT_EQ(p.total_points(),
                static_cast<std::size_t>(p.global.nx) *
                    static_cast<std::size_t>(p.global.ny) *
                    static_cast<std::size_t>(p.global.nz))
          << p.name();
    }
  }
}

TEST(Zones, Names) {
  EXPECT_EQ(make_problem(MzSolver::SP, 'C').name(), "SP-MZ.C");
  EXPECT_EQ(make_problem(MzSolver::BT, 'D').name(), "BT-MZ.D");
}

TEST(Multizone, FlopPerPointOrdering) {
  EXPECT_GT(flop_per_point(MzSolver::BT), flop_per_point(MzSolver::SP));
}

TEST(Multizone, BorderBytesScaleWithFaces) {
  const ZoneGrid z{10, 20, 5};
  // 2*(20*5 + 10*5) faces * 5 vars * 8 bytes.
  EXPECT_EQ(border_bytes(z), 2u * (100 + 50) * 5 * 8);
}

TEST(Multizone, StepGraphHasOneTaskPerZone) {
  const MultiZoneProblem p = make_problem(MzSolver::SP, 'W');
  const core::TaskGraph g = step_graph(p);
  EXPECT_EQ(g.num_tasks(), p.num_zones() + 1);  // zones + sync marker
  int zone_tasks = 0;
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    if (!g.task(id).is_marker()) {
      ++zone_tasks;
      EXPECT_EQ(g.task(id).comms().size(), 3u);
    }
  }
  EXPECT_EQ(zone_tasks, p.num_zones());
}

TEST(Multizone, ZoneWorkTracksZoneSize) {
  const MultiZoneProblem p = make_problem(MzSolver::BT, 'W');
  const core::TaskGraph g = step_graph(p);
  double total = 0.0;
  for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
    total += g.task(id).work_flop();
  }
  EXPECT_NEAR(total,
              flop_per_point(MzSolver::BT) *
                  static_cast<double>(p.total_points()),
              1.0);
}

TEST(Multizone, ScheduleWithFixedGroupsIsValid) {
  const MultiZoneProblem p = make_problem(MzSolver::BT, 'W');  // 16 zones
  const core::TaskGraph g = step_graph(p);
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 16;
  const cost::CostModel cm((arch::Machine(spec)));
  for (int groups : {1, 2, 4, 8, 16}) {
    sched::LayerSchedulerOptions opts;
    opts.fixed_groups = groups;
    const sched::LayeredSchedule s =
        sched::Pipeline::algorithm1(cm, opts).run(g, 64).layered;
    EXPECT_EQ(s.layers[0].num_groups(), groups);
    EXPECT_TRUE(sched::validate(s, g).ok()) << groups;
  }
}

TEST(Multizone, BtLoadImbalanceGrowsWithGroupCount) {
  // With one zone per group, the skewed BT-MZ zones leave small-zone groups
  // idle; the per-group accumulated work spread must shrink when zones are
  // clustered (after group-size adjustment both are balanced, so compare
  // the un-adjusted accumulated work).
  const MultiZoneProblem p = make_problem(MzSolver::BT, 'A');  // 16 zones
  const core::TaskGraph g = step_graph(p);
  arch::MachineSpec spec = arch::chic();
  spec.num_nodes = 16;
  const cost::CostModel cm((arch::Machine(spec)));

  auto work_spread = [&](int groups) {
    sched::LayerSchedulerOptions opts;
    opts.fixed_groups = groups;
    opts.adjust_group_sizes = false;
    const sched::LayeredSchedule s =
        sched::Pipeline::algorithm1(cm, opts).run(g, 64).layered;
    std::vector<double> acc(static_cast<std::size_t>(groups), 0.0);
    const sched::ScheduledLayer& layer = s.layers[0];
    for (std::size_t i = 0; i < layer.tasks.size(); ++i) {
      acc[static_cast<std::size_t>(layer.task_group[i])] +=
          s.contraction.contracted.task(layer.tasks[i]).work_flop();
    }
    const double max = *std::max_element(acc.begin(), acc.end());
    const double min = *std::min_element(acc.begin(), acc.end());
    return max / std::max(min, 1.0);
  };
  EXPECT_GT(work_spread(16), work_spread(4));
}

// --- real stencil kernel ---

TEST(ZoneField, InitAndAccess) {
  ZoneField f(ZoneGrid{4, 3, 2});
  f.initialize(0, 0, 4, 3);
  EXPECT_NE(f.at(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(f.interior_max(),
                   [&] {
                     double best = 0.0;
                     for (int y = 0; y < 3; ++y)
                       for (int x = 0; x < 4; ++x)
                         for (int z = 0; z < 2; ++z)
                           best = std::max(best, std::abs(f.at(x, y, z)));
                     return best;
                   }());
}

TEST(ZoneField, JacobiConvergesTowardsGhostValues) {
  // With zero ghosts everywhere, repeated sweeps drive the interior to 0.
  ZoneField f(ZoneGrid{6, 6, 4});
  f.initialize(0, 0, 6, 6);
  double residual = 1.0;
  for (int it = 0; it < 200; ++it) {
    residual = f.jacobi_sweep(0, 6);
    f.commit();
  }
  EXPECT_LT(residual, 1e-3);
  EXPECT_LT(f.interior_max(), 0.5);
}

TEST(ZoneField, SweepBySubrangesMatchesFullSweep) {
  ZoneField a(ZoneGrid{5, 8, 3});
  ZoneField b(ZoneGrid{5, 8, 3});
  a.initialize(2, 3, 16, 16);
  b.initialize(2, 3, 16, 16);
  const double ra = a.jacobi_sweep(0, 8);
  const double rb =
      std::max(b.jacobi_sweep(0, 3), std::max(b.jacobi_sweep(3, 6),
                                              b.jacobi_sweep(6, 8)));
  a.commit();
  b.commit();
  EXPECT_DOUBLE_EQ(ra, rb);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 5; ++x) {
      for (int z = 0; z < 3; ++z) {
        EXPECT_DOUBLE_EQ(a.at(x, y, z), b.at(x, y, z));
      }
    }
  }
}

TEST(ZoneField, FaceExchangeRoundTrips) {
  ZoneField left(ZoneGrid{4, 6, 2});
  ZoneField right(ZoneGrid{3, 6, 2});
  left.initialize(0, 0, 7, 6);
  right.initialize(4, 0, 7, 6);
  // Exchange the +x face of `left` with the -x ghost of `right` and vice
  // versa.
  std::vector<double> buf(left.face_size(1));
  left.extract_face(1, buf);
  right.set_ghost_face(0, buf);
  std::vector<double> buf2(right.face_size(0));
  right.extract_face(0, buf2);
  left.set_ghost_face(1, buf2);
  // Ghost cells now mirror the neighbour's interior.
  for (int y = 0; y < 6; ++y) {
    for (int z = 0; z < 2; ++z) {
      EXPECT_DOUBLE_EQ(right.at(-1, y, z), left.at(3, y, z));
      EXPECT_DOUBLE_EQ(left.at(4, y, z), right.at(0, y, z));
    }
  }
}

TEST(ZoneField, FaceSizeAndValidation) {
  ZoneField f(ZoneGrid{4, 6, 2});
  EXPECT_EQ(f.face_size(0), 12u);
  EXPECT_EQ(f.face_size(2), 8u);
  EXPECT_THROW(f.face_size(4), std::invalid_argument);
  std::vector<double> tiny(1);
  EXPECT_THROW(f.extract_face(0, tiny), std::invalid_argument);
  EXPECT_THROW(ZoneField(ZoneGrid{0, 1, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace ptask::npb
