// The Kempe–Dobra–Gehrke push-sum baseline through the builder
// (`.protocol(ProtocolVariant::kPushSum)`): conservation, convergence, its
// per-round contraction against push–pull, its behaviour under message loss,
// and the loss edge where every weight underflows.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/stats.hpp"
#include "workload/values.hpp"

namespace epiagg {
namespace {

Simulation push_sum(std::vector<double> values, std::uint64_t seed,
                    double loss = 0.0,
                    TopologySpec topology = TopologySpec::complete(),
                    EngineKind engine = EngineKind::kCycle) {
  return SimulationBuilder()
      .engine(engine)
      .protocol(ProtocolVariant::kPushSum)
      .topology(topology)
      .failures(FailureSpec::message_loss_only(loss))
      .workload(WorkloadSpec::from_values(std::move(values)))
      .seed(seed)
      .build();
}

TEST(PushSum, ConservesSumAndWeightWithoutLoss) {
  Rng rng(1);
  auto values = generate_values(ValueDistribution::kNormal, 500, rng);
  const double total = kahan_total(values);
  const double truth = mean(values);
  Simulation sim = push_sum(values, 2);
  sim.run_cycles(20);
  EXPECT_NEAR(sim.total_mass(), total, 1e-9);
  // Σweight is not observable, but once every estimate sum/weight equals
  // the true average, the conserved Σsum forces Σweight = N.
  sim.run_cycles(60);
  EXPECT_NEAR(sim.total_mass(), total, 1e-9);
  for (const double e : sim.approximations()) EXPECT_NEAR(e, truth, 1e-9);
}

TEST(PushSum, EstimatesConvergeToTrueAverage) {
  Rng rng(3);
  auto values = generate_values(ValueDistribution::kUniform, 1000, rng);
  const double truth = mean(values);
  Simulation sim = push_sum(values, 4);
  sim.run_cycles(40);
  for (const double e : sim.approximations()) EXPECT_NEAR(e, truth, 1e-5);
}

TEST(PushSum, ConvergesExponentially) {
  Rng rng(5);
  auto values = generate_values(ValueDistribution::kNormal, 2000, rng);
  Simulation sim = push_sum(values, 6);
  const double v0 = sim.variance();
  sim.run_cycles(10);
  const double v10 = sim.variance();
  EXPECT_LT(v10, v0 * 1e-2);
}

TEST(PushSum, SlowerPerRoundThanPushPullTheory) {
  // Push-sum moves half the mass per round one-directionally; its per-round
  // contraction is weaker than push–pull SEQ's 1/(2√e). Measure the
  // geometric-mean factor and place it between the push-pull rates and 1.
  Rng rng(7);
  RunningStats factor;
  for (int run = 0; run < 10; ++run) {
    auto values = generate_values(ValueDistribution::kNormal, 2000, rng);
    Simulation sim = push_sum(values, 100 + run);
    const double before = sim.variance();
    sim.run_cycles(8);
    factor.add(std::pow(sim.variance() / before, 1.0 / 8.0));
  }
  EXPECT_GT(factor.mean(), 0.303);  // worse than push-pull SEQ
  EXPECT_LT(factor.mean(), 0.75);   // but still geometric
}

TEST(PushSum, LossShrinksMassButKeepsEstimatesNearlyUnbiased) {
  // The headline robustness contrast: losing (sum, weight) together keeps
  // sum/weight ≈ average even under heavy loss.
  Rng rng(8);
  auto values = generate_values(ValueDistribution::kUniform, 2000, rng);
  const double total = kahan_total(values);
  const double truth = mean(values);
  Simulation sim = push_sum(values, 9, /*loss=*/0.2);
  sim.run_cycles(25);
  EXPECT_LT(sim.total_mass(), total * 0.5);  // massive mass loss...
  EXPECT_NEAR(sim.mean(), truth, 0.01);      // ...yet nearly unbiased
}

TEST(PushSum, WorksOnSparseTopology) {
  Rng rng(10);
  auto values = generate_values(ValueDistribution::kUniform, 500, rng);
  const double truth = mean(values);
  Simulation sim = push_sum(values, 11, 0.0, TopologySpec::random_out_view(20));
  sim.run_cycles(40);
  for (const double e : sim.approximations()) EXPECT_NEAR(e, truth, 1e-5);
}

TEST(PushSum, DeterministicGivenSeed) {
  Rng rng(12);
  auto values = generate_values(ValueDistribution::kNormal, 100, rng);
  Simulation a = push_sum(values, 13);
  Simulation b = push_sum(values, 13);
  a.run_cycles(5);
  b.run_cycles(5);
  EXPECT_EQ(a.approximations(), b.approximations());
}

TEST(PushSum, ValidatesInputs) {
  EXPECT_THROW(push_sum({1.0}, 1), ContractViolation);            // n < 2
  EXPECT_THROW(push_sum({1.0, 2.0}, 1, 1.5), ContractViolation);  // loss > 1
}

TEST(PushSum, RejectsTotalLoss) {
  // At loss 1.0 every shipped half is lost, so each weight halves every
  // round and underflows to 0 after ~1075 rounds; build() refuses the run.
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    try {
      (void)push_sum({1.0, 2.0, 3.0}, 1, 1.0, TopologySpec::complete(), engine);
      ADD_FAILURE() << "push-sum at loss 1.0 must be rejected";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("loss 1.0"), std::string::npos)
          << e.what();
    }
  }
}

TEST(PushSum, WeightUnderflowUnderLossIsReportedOnBothEngines) {
  // Loss 0.5 drains the weights geometrically: within a few thousand rounds
  // one halves to 0 and its estimate sum/weight would read 0/0. Both
  // engines must stop with the weight-underflow ContractViolation before
  // any estimate turns NaN.
  Rng rng(5);
  const auto values = generate_values(ValueDistribution::kUniform, 100, rng);
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    Simulation sim =
        push_sum(values, 5, /*loss=*/0.5, TopologySpec::complete(), engine);
    std::string failure;
    try {
      for (int t = 1; t <= 10000; ++t) {
        if (engine == EngineKind::kCycle) {
          sim.run_cycle();
        } else {
          sim.run_time(static_cast<double>(t));
        }
        ASSERT_FALSE(std::isnan(sim.mean())) << "t = " << t;
        ASSERT_FALSE(std::isnan(sim.variance())) << "t = " << t;
      }
    } catch (const ContractViolation& e) {
      failure = e.what();
    }
    EXPECT_NE(failure.find("push-sum weight underflow"), std::string::npos)
        << to_string(engine) << ": " << failure;
  }
}

TEST(PushSum, RoundCounter) {
  Simulation sim = push_sum({1.0, 2.0, 3.0, 4.0}, 15);
  EXPECT_EQ(sim.cycle(), 0u);
  sim.run_cycles(7);
  EXPECT_EQ(sim.cycle(), 7u);
}

}  // namespace
}  // namespace epiagg
