// Epoch-restarted runs on the cycle engine, driven through the builder:
// §4 size estimation (leader-started counting instances, joiners that wait
// for the next restart, the one-epoch lag under churn) and continuous
// averaging whose attributes change between epochs through set_value.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "workload/values.hpp"

namespace epiagg {
namespace {

Simulation size_estimation(std::size_t n, std::size_t epoch_length,
                           std::uint64_t seed,
                           std::shared_ptr<ChurnSchedule> churn = nullptr) {
  return SimulationBuilder()
      .nodes(n)
      .protocol(ProtocolVariant::kSizeEstimation)
      .epoch_length(epoch_length)
      .expected_leaders(4.0)
      .failures(FailureSpec::with_churn(std::move(churn)))
      .seed(seed)
      .build();
}

TEST(CycleSizeEstimation, StaticNetworkEstimatesAccurately) {
  Simulation sim = size_estimation(1000, 30, 1);
  sim.run_cycles(30);  // one epoch
  ASSERT_EQ(sim.epochs().size(), 1u);
  const EpochSummary& report = sim.epochs().front();
  EXPECT_EQ(report.population_start, 1000u);
  EXPECT_EQ(report.population_end, 1000u);
  if (report.instances > 0) {
    EXPECT_GT(report.reporting, 990u);
    EXPECT_NEAR(report.est_mean, 1000.0, 1.0);
    EXPECT_NEAR(report.est_min, 1000.0, 1.0);
    EXPECT_NEAR(report.est_max, 1000.0, 1.0);
  }
}

TEST(CycleSizeEstimation, MultipleEpochsAllReport) {
  Simulation sim = size_estimation(500, 30, 2);
  sim.run_cycles(30 * 10);
  ASSERT_EQ(sim.epochs().size(), 10u);
  int epochs_with_instances = 0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0) continue;  // possible with small probability
    ++epochs_with_instances;
    EXPECT_NEAR(report.est_mean, 500.0, 5.0);
  }
  // P(no leader) = (1 - 4/500)^500 ≈ e^-4 ≈ 1.8% per epoch.
  EXPECT_GE(epochs_with_instances, 8);
}

TEST(CycleSizeEstimation, MassConservedWithoutChurn) {
  Simulation sim = size_estimation(300, 30, 3);
  sim.run_cycles(10);  // mid-epoch
  const double mass = sim.total_mass();
  // Mass equals the number of instances started this epoch (each leader
  // injected exactly 1).
  EXPECT_NEAR(mass, std::round(mass), 1e-9);
  sim.run_cycles(10);
  EXPECT_NEAR(sim.total_mass(), mass, 1e-9);
}

TEST(CycleSizeEstimation, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Simulation sim = size_estimation(200, 30, seed);
    sim.run_cycles(60);
    return sim.epochs();
  };
  const auto a = run(7);
  const auto b = run(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].instances, b[i].instances);
    EXPECT_DOUBLE_EQ(a[i].est_mean, b[i].est_mean);
  }
}

TEST(CycleSizeEstimation, JoinersWaitForNextEpoch) {
  // A join-only burst mid-epoch: the population grows immediately but the
  // participant set only changes at the next epoch boundary.
  class JoinBurst final : public ChurnSchedule {
  public:
    ChurnAction at_cycle(std::size_t cycle, std::size_t) override {
      return cycle == 5 ? ChurnAction{30, 0} : ChurnAction{};
    }
  };
  Simulation sim = size_estimation(100, 20, 4, std::make_shared<JoinBurst>());
  sim.run_cycles(10);  // mid-epoch, after the burst
  EXPECT_EQ(sim.population_size(), 130u);
  EXPECT_EQ(sim.participant_count(), 100u);  // joiners still waiting
  sim.run_cycles(10);  // epoch boundary at cycle 20
  EXPECT_EQ(sim.participant_count(), 130u);  // absorbed at the restart
}

TEST(CycleSizeEstimation, GrowthShowsUpOneEpochLate) {
  // A pure-join schedule: +10 nodes per cycle. The estimate of epoch k
  // reflects the population at epoch k's start — i.e. it lags by one epoch
  // (the paper's "translated by an epoch" observation).
  class PureJoin final : public ChurnSchedule {
  public:
    ChurnAction at_cycle(std::size_t, std::size_t) override { return {10, 0}; }
  };
  Simulation sim = size_estimation(500, 25, 5, std::make_shared<PureJoin>());
  sim.run_cycles(25 * 4);
  ASSERT_EQ(sim.epochs().size(), 4u);
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0) continue;
    // Estimate ≈ size at epoch start, not at epoch end (which is 250 larger).
    EXPECT_NEAR(report.est_mean, static_cast<double>(report.population_start),
                static_cast<double>(report.population_start) * 0.02);
    EXPECT_EQ(report.population_end, report.population_start + 250u);
  }
}

TEST(CycleSizeEstimation, SurvivesHeavyChurn) {
  // 10% fluctuation per cycle: estimates become noisy but stay in a sane
  // band and the simulation never breaks invariants.
  Simulation sim =
      size_estimation(400, 30, 6, std::make_shared<ConstantFluctuation>(40));
  sim.run_cycles(30 * 5);
  ASSERT_EQ(sim.epochs().size(), 5u);
  for (const EpochSummary& report : sim.epochs()) {
    EXPECT_EQ(sim.population_size(), 400u);
    if (report.instances == 0 || report.reporting == 0) continue;
    EXPECT_GT(report.est_mean, 100.0);
    EXPECT_LT(report.est_mean, 1600.0);
  }
}

TEST(CycleSizeEstimation, OscillationTrackedWithOneEpochLag) {
  // Scaled-down Fig. 4: size oscillates 900..1100, epoch 30, fluctuation 10.
  Simulation sim = size_estimation(
      1100, 30, 7, std::make_shared<OscillatingChurn>(900, 1100, 200, 10));
  sim.run_cycles(30 * 12);
  std::size_t checked = 0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0 || report.reporting == 0) continue;
    // The estimate reflects the epoch-start population within ~10%.
    EXPECT_NEAR(report.est_mean, static_cast<double>(report.population_start),
                static_cast<double>(report.population_start) * 0.10);
    ++checked;
  }
  EXPECT_GE(checked, 9u);
}

TEST(CycleSizeEstimation, ValidatesConfig) {
  EXPECT_THROW(size_estimation(1, 30, 1), ContractViolation);
  EXPECT_THROW(SimulationBuilder()
                   .nodes(100)
                   .protocol(ProtocolVariant::kSizeEstimation)
                   .expected_leaders(0.0)
                   .build(),
               ContractViolation);
}

Simulation averaging(std::size_t epoch_length, std::vector<double> values,
                     std::uint64_t seed) {
  return SimulationBuilder()
      .epoch_length(epoch_length)
      .workload(WorkloadSpec::from_values(std::move(values)))
      .seed(seed)
      .build();
}

TEST(CycleAveragingEpochs, ConvergesWithinEpoch) {
  Rng rng(8);
  auto values = generate_values(ValueDistribution::kUniform, 500, rng);
  Simulation sim = averaging(30, values, 9);
  const EpochSummary report = sim.run_epoch();
  EXPECT_NEAR(report.est_mean, report.truth, 1e-9);
  EXPECT_NEAR(report.est_min, report.truth, 1e-6);
  EXPECT_NEAR(report.est_max, report.truth, 1e-6);
  EXPECT_LT(report.variance, 1e-12);
}

TEST(CycleAveragingEpochs, TracksDriftingValuesAcrossEpochs) {
  Rng rng(10);
  auto values = generate_values(ValueDistribution::kUniform, 200, rng);
  Simulation sim = averaging(25, values, 11);
  const EpochSummary first = sim.run_epoch();
  // Double the load on every node: next epoch must report the doubled mean.
  for (NodeId i = 0; i < 200; ++i) sim.set_value(i, values[i] * 2.0);
  const EpochSummary second = sim.run_epoch();
  EXPECT_NEAR(second.truth, first.truth * 2.0, 1e-12);
  EXPECT_NEAR(second.est_mean, second.truth, 1e-9);
}

TEST(CycleAveragingEpochs, ValidatesInputs) {
  EXPECT_THROW(SimulationBuilder()
                   .nodes(10)
                   .epoch_length(30)
                   .workload(WorkloadSpec::from_values(std::vector<double>(5, 0.0)))
                   .build(),
               ContractViolation);
  Simulation sim = averaging(30, std::vector<double>(10, 1.0), 1);
  EXPECT_THROW(sim.set_value(10, 0.0), ContractViolation);
}

}  // namespace
}  // namespace epiagg
