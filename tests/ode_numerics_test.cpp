// Numerical tests for the ODE systems and the five solution methods:
// correctness against closed-form/dense references and empirical
// convergence orders.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>

#include "ptask/ode/bruss2d.hpp"
#include "ptask/ode/diirk.hpp"
#include "ptask/ode/epol.hpp"
#include "ptask/ode/irk.hpp"
#include "ptask/ode/pab.hpp"
#include "ptask/ode/schroed.hpp"
#include "ptask/ode/solver_base.hpp"

namespace ptask::ode {
namespace {

// Scalar linear test problem y' = -y with known solution (wrapped as an
// OdeSystem of size 4 to exercise block handling).
class Decay final : public OdeSystem {
 public:
  std::size_t size() const override { return 4; }
  void eval(double, std::span<const double> y, std::span<double> f,
            std::size_t begin, std::size_t end) const override {
    for (std::size_t i = begin; i < end; ++i) f[i] = -y[i];
  }
  std::vector<double> initial_state() const override {
    return {1.0, 2.0, -1.0, 0.5};
  }
  double eval_flop_per_component() const override { return 1.0; }
  bool is_dense() const override { return false; }
  std::string name() const override { return "decay"; }
};

TEST(OdeSystem, MaxNormDiff) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.5, 2.0};
  EXPECT_DOUBLE_EQ(max_norm_diff(a, b), 1.0);
  const std::vector<double> c{1.0};
  EXPECT_THROW(max_norm_diff(a, c), std::invalid_argument);
}

TEST(Bruss2D, SizesAndInitialState) {
  const Bruss2D sys(8);
  EXPECT_EQ(sys.size(), 128u);
  EXPECT_FALSE(sys.is_dense());
  const std::vector<double> y0 = sys.initial_state();
  ASSERT_EQ(y0.size(), 128u);
  // u in [2, 2.25], v in [1, 1.8].
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_GE(y0[i], 2.0);
    EXPECT_LE(y0[i], 2.25);
  }
  for (std::size_t i = 64; i < 128; ++i) {
    EXPECT_GE(y0[i], 1.0);
    EXPECT_LE(y0[i], 1.8);
  }
}

TEST(Bruss2D, UniformStateHasUniformDerivative) {
  // For a spatially constant state the Laplacian vanishes: f is the pure
  // reaction term, identical in every grid point.
  const Bruss2D sys(6, 3.4, 1.0, 2e-3);
  const std::size_t half = 36;
  std::vector<double> y(72, 0.0);
  for (std::size_t i = 0; i < half; ++i) y[i] = 2.0;
  for (std::size_t i = half; i < 72; ++i) y[i] = 1.5;
  std::vector<double> f(72);
  sys.eval_all(0.0, y, f);
  const double fu = 1.0 + 4.0 * 1.5 - 4.4 * 2.0;  // B + u^2 v - (A+1) u
  const double fv = 3.4 * 2.0 - 4.0 * 1.5;        // A u - u^2 v
  for (std::size_t i = 0; i < half; ++i) EXPECT_NEAR(f[i], fu, 1e-12);
  for (std::size_t i = half; i < 72; ++i) EXPECT_NEAR(f[i], fv, 1e-12);
}

TEST(Bruss2D, PartialEvalMatchesFullEval) {
  const Bruss2D sys(5);
  const std::vector<double> y = sys.initial_state();
  std::vector<double> full(sys.size()), parts(sys.size());
  sys.eval_all(0.0, y, full);
  sys.eval(0.0, y, parts, 0, 10);
  sys.eval(0.0, y, parts, 10, sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_DOUBLE_EQ(parts[i], full[i]);
  }
}

TEST(Schroed, DenseEvalIsBoundedAndPartialConsistent) {
  const Schroed sys(64);
  EXPECT_TRUE(sys.is_dense());
  EXPECT_GT(sys.eval_flop_per_component(), 64.0);
  const std::vector<double> y = sys.initial_state();
  std::vector<double> full(sys.size()), parts(sys.size());
  sys.eval_all(0.0, y, full);
  sys.eval(0.0, y, parts, 0, 32);
  sys.eval(0.0, y, parts, 32, 64);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_DOUBLE_EQ(parts[i], full[i]);
    EXPECT_LT(std::fabs(full[i]), 10.0);
  }
}

TEST(SolveDense, SolvesSmallSystems) {
  // [[2, 1], [1, 3]] x = [5, 10] -> x = [1, 3].
  const std::vector<double> x =
      solve_dense({2.0, 1.0, 1.0, 3.0}, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_THROW(solve_dense({0.0, 0.0, 0.0, 0.0}, {1.0, 1.0}),
               std::runtime_error);
}

TEST(GaussTableau, NodesWeightsAndOrderConditions) {
  for (int s : {1, 2, 3, 4}) {
    const CollocationTableau tab = gauss_tableau(s);
    ASSERT_EQ(tab.stages(), s);
    double weight_sum = 0.0;
    for (int j = 0; j < s; ++j) {
      EXPECT_GT(tab.c[static_cast<std::size_t>(j)], 0.0);
      EXPECT_LT(tab.c[static_cast<std::size_t>(j)], 1.0);
      weight_sum += tab.b[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-12);  // B(1)
    // C(q): sum_j a_ij c_j^{q-1} = c_i^q / q.
    for (int i = 0; i < s; ++i) {
      for (int q = 1; q <= s; ++q) {
        double lhs = 0.0;
        for (int j = 0; j < s; ++j) {
          lhs += tab.a[static_cast<std::size_t>(i * s + j)] *
                 std::pow(tab.c[static_cast<std::size_t>(j)], q - 1);
        }
        EXPECT_NEAR(lhs, std::pow(tab.c[static_cast<std::size_t>(i)], q) / q,
                    1e-10);
      }
    }
  }
  EXPECT_THROW(gauss_tableau(0), std::invalid_argument);
}

TEST(GaussTableau, TwoStageMatchesKnownValues) {
  const CollocationTableau tab = gauss_tableau(2);
  const double r = std::sqrt(3.0) / 6.0;
  EXPECT_NEAR(tab.c[0], 0.5 - r, 1e-12);
  EXPECT_NEAR(tab.c[1], 0.5 + r, 1e-12);
  EXPECT_NEAR(tab.b[0], 0.5, 1e-12);
  EXPECT_NEAR(tab.b[1], 0.5, 1e-12);
}

TEST(Integrate, StopsExactlyAtTe) {
  Decay sys;
  Epol solver(2);
  const IntegrationResult result =
      solver.integrate(sys, 0.0, 1.05, 0.1, sys.initial_state());
  EXPECT_NEAR(result.t_end, 1.05, 1e-12);
  EXPECT_EQ(result.steps, 11u);
}

TEST(Integrate, Validation) {
  Decay sys;
  Epol solver(2);
  EXPECT_THROW(solver.integrate(sys, 0.0, 1.0, -0.1, sys.initial_state()),
               std::invalid_argument);
  EXPECT_THROW(solver.integrate(sys, 1.0, 0.0, 0.1, sys.initial_state()),
               std::invalid_argument);
  EXPECT_THROW(solver.integrate(sys, 0.0, 1.0, 0.1, {1.0}),
               std::invalid_argument);
}

// Accuracy on the linear decay problem: every solver must hit exp(-t)
// closely at modest step sizes.
TEST(Solvers, DecayAccuracy) {
  Decay sys;
  const double te = 1.0;
  const std::vector<double> y0 = sys.initial_state();

  std::vector<std::unique_ptr<OneStepSolver>> solvers;
  solvers.push_back(std::make_unique<Epol>(4));
  solvers.push_back(std::make_unique<Irk>(2, 5));
  solvers.push_back(std::make_unique<Diirk>(2, 5, 3));
  solvers.push_back(std::make_unique<Pab>(4));
  solvers.push_back(std::make_unique<Pabm>(4, 2));

  for (auto& solver : solvers) {
    const IntegrationResult result =
        solver->integrate(sys, 0.0, te, 0.05, y0);
    for (std::size_t i = 0; i < y0.size(); ++i) {
      EXPECT_NEAR(result.state[i], y0[i] * std::exp(-te), 1e-5)
          << solver->name();
    }
  }
}

TEST(Solvers, RK4Helper) {
  Decay sys;
  std::vector<double> y = sys.initial_state();
  for (int i = 0; i < 10; ++i) {
    rk4_step(sys, i * 0.1, 0.1, y);
  }
  EXPECT_NEAR(y[0], std::exp(-1.0), 1e-6);
}

// Empirical convergence orders on the (nonlinear, smooth) Brusselator.
struct OrderCase {
  const char* name;
  int expected_order;
  std::function<std::unique_ptr<OneStepSolver>()> make;
};

// Print a case by its name. The default printer dumps the raw bytes,
// which include the address of `name` and so differ from run to run.
void PrintTo(const OrderCase& c, std::ostream* os) { *os << c.name; }

class ConvergenceTest : public ::testing::TestWithParam<OrderCase> {};

TEST_P(ConvergenceTest, ObservedOrderMatchesTheory) {
  const OrderCase& c = GetParam();
  const Bruss2D sys(6);  // n = 72: small enough for tight step sweeps
  std::unique_ptr<OneStepSolver> solver = c.make();
  ASSERT_EQ(solver->order(), c.expected_order);
  const double order = estimate_order(*solver, sys, 0.0, 0.2, 0.02);
  EXPECT_GT(order, c.expected_order - 0.6) << c.name;
  // An order higher than expected is fine (superconvergence on easy
  // problems); an order clearly below is a bug.
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, ConvergenceTest,
    ::testing::Values(
        OrderCase{"EPOL_R2", 2, [] { return std::make_unique<Epol>(2); }},
        OrderCase{"EPOL_R3", 3, [] { return std::make_unique<Epol>(3); }},
        OrderCase{"EPOL_R4", 4, [] { return std::make_unique<Epol>(4); }},
        OrderCase{"IRK_K2_m3", 4,
                  [] { return std::make_unique<Irk>(2, 3); }},
        OrderCase{"IRK_K2_m1", 2,
                  [] { return std::make_unique<Irk>(2, 1); }},
        OrderCase{"DIIRK_K2_m3", 4,
                  [] { return std::make_unique<Diirk>(2, 3, 4); }},
        OrderCase{"PAB_K2", 2, [] { return std::make_unique<Pab>(2); }},
        OrderCase{"PAB_K3", 3, [] { return std::make_unique<Pab>(3); }},
        OrderCase{"PABM_K2_m2", 3,
                  [] { return std::make_unique<Pabm>(2, 2); }},
        OrderCase{"PABM_K3_m2", 4,
                  [] { return std::make_unique<Pabm>(3, 2); }}),
    [](const ::testing::TestParamInfo<OrderCase>& param_info) {
      return param_info.param.name;
    });

// Cross-method agreement: all methods must converge to the same trajectory.
TEST(Solvers, AgreeOnBrusselator) {
  const Bruss2D sys(6);
  const std::vector<double> y0 = sys.initial_state();
  const double te = 0.1, h = 0.002;
  Irk reference(3, 7);
  const std::vector<double> ref =
      reference.integrate(sys, 0.0, te, h / 4.0, y0).state;

  Epol epol(4);
  Diirk diirk(2, 5, 3);
  Pabm pabm(4, 3);
  EXPECT_LT(max_norm_diff(epol.integrate(sys, 0.0, te, h, y0).state, ref),
            1e-7);
  EXPECT_LT(max_norm_diff(diirk.integrate(sys, 0.0, te, h, y0).state, ref),
            1e-7);
  EXPECT_LT(max_norm_diff(pabm.integrate(sys, 0.0, te, h, y0).state, ref),
            1e-7);
}

TEST(Solvers, EpolCombineReproducesRichardson) {
  // For R=2 the Aitken-Neville combination is 2*T2 - T1.
  std::vector<std::vector<double>> approx{{1.0, 2.0}, {1.5, 2.5}};
  const std::vector<double> combined = Epol::combine(std::move(approx));
  EXPECT_DOUBLE_EQ(combined[0], 2.0 * 1.5 - 1.0);
  EXPECT_DOUBLE_EQ(combined[1], 2.0 * 2.5 - 2.0);
}

TEST(Solvers, BlockAdamsResetClearsHistory) {
  Decay sys;
  Pab solver(3);
  const std::vector<double> y0 = sys.initial_state();
  const IntegrationResult first = solver.integrate(sys, 0.0, 0.5, 0.05, y0);
  const IntegrationResult second = solver.integrate(sys, 0.0, 0.5, 0.05, y0);
  EXPECT_EQ(first.state, second.state);  // integrate() resets history
}

TEST(Solvers, InvalidParameters) {
  EXPECT_THROW(Epol(0), std::invalid_argument);
  EXPECT_THROW(Irk(2, 0), std::invalid_argument);
  EXPECT_THROW(Diirk(2, 1, 0), std::invalid_argument);
  EXPECT_THROW(Pab(0), std::invalid_argument);
  EXPECT_THROW(Pabm(2, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ptask::ode
