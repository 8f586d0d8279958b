// Adaptive epochs — the fully asynchronous §4 restart scheme, driven as an
// event-engine builder chain with .adaptive_epochs(clock_drift): nodes
// restart on their own (drifting) clocks, adopt newer epochs epidemically,
// and report one approximation per completed epoch.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"
#include "workload/values.hpp"

namespace epiagg {
namespace {

std::vector<double> uniforms(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return generate_values(ValueDistribution::kUniform, n, rng);
}

Simulation adaptive(const std::vector<double>& values, std::size_t epoch_length,
                    std::uint64_t seed, double clock_drift = 0.0,
                    double loss = 0.0) {
  return SimulationBuilder()
      .engine(EngineKind::kEvent)
      .adaptive_epochs(clock_drift)
      .epoch_length(epoch_length)
      .failures(FailureSpec::message_loss_only(loss))
      .workload(WorkloadSpec::from_values(values))
      .seed(seed)
      .build();
}

/// The approximations nodes reported on completing `epoch` (count 0 when
/// no node has completed it yet).
RunningStats epoch_reports(const Simulation& sim, EpochId epoch) {
  RunningStats stats;
  for (const AdaptiveEpochSample& sample : sim.adaptive_samples())
    if (sample.epoch == epoch) stats.add(sample.approximation);
  return stats;
}

TEST(AdaptiveAsync, EpochsCompleteAndConverge) {
  const auto values = uniforms(500, 1);
  const double truth = mean(values);
  Simulation sim = adaptive(values, 30, 2);
  sim.run_time(95.0);  // ~3 epochs of 30 cycles
  for (EpochId epoch = 0; epoch < 3; ++epoch) {
    const RunningStats summary = epoch_reports(sim, epoch);
    EXPECT_EQ(summary.count(), 500u) << "epoch " << epoch;
    if (summary.count() == 0) continue;
    EXPECT_NEAR(summary.mean(), truth, 1e-4);
    EXPECT_NEAR(summary.min(), truth, 1e-3);
    EXPECT_NEAR(summary.max(), truth, 1e-3);
  }
}

TEST(AdaptiveAsync, AdaptsToAttributeDrift) {
  const auto values = uniforms(300, 3);
  Simulation sim = adaptive(values, 25, 4);
  sim.run_time(26.0);  // epoch 0 completed
  for (NodeId i = 0; i < 300; ++i) sim.set_value(i, 5.0);
  sim.run_time(80.0);  // epochs 1-2 run on the new snapshot
  const RunningStats late = epoch_reports(sim, 2);
  ASSERT_GT(late.count(), 0u);
  EXPECT_NEAR(late.mean(), 5.0, 1e-4);
}

TEST(AdaptiveAsync, ClockDriftIsAbsorbedByEpidemicAdoption) {
  // With 1% clock drift (far beyond real quartz drift), fast nodes enter new
  // epochs early and the epidemic adoption drags everyone along within one
  // cycle; epochs still complete with (nearly) all nodes reporting near the
  // truth.
  const auto values = uniforms(400, 5);
  const double truth = mean(values);
  Simulation sim = adaptive(values, 30, 6, /*clock_drift=*/0.01);
  sim.run_time(100.0);
  const RunningStats summary = epoch_reports(sim, 1);
  // Adoption restarts can interrupt an occasional laggard's epoch, so allow
  // a small shortfall — but the bulk must report, and accurately.
  ASSERT_GT(summary.count(), 0u);
  EXPECT_GT(summary.count(), 350u);
  EXPECT_NEAR(summary.mean(), truth, 0.02);
}

TEST(AdaptiveAsync, FrontierAdvances) {
  Simulation sim = adaptive(uniforms(100, 7), 10, 8);
  EXPECT_EQ(sim.frontier_epoch(), 0u);
  sim.run_time(35.0);
  EXPECT_GE(sim.frontier_epoch(), 3u);
}

TEST(AdaptiveAsync, JoinerWaitsForNextEpoch) {
  const auto values = uniforms(200, 9);
  Simulation sim = adaptive(values, 30, 10);
  sim.run_time(5.0);  // mid-epoch 0
  sim.join(100.0);    // an outlier attribute
  EXPECT_EQ(sim.population_size(), 201u);
  sim.run_time(29.0);  // still inside epoch 0 (which ends ~cycle 30)
  // Epoch 0 summaries must NOT include the rookie's outlier.
  sim.run_time(31.5);
  const RunningStats epoch0 = epoch_reports(sim, 0);
  ASSERT_GT(epoch0.count(), 0u);
  EXPECT_LT(epoch0.max(), 2.0);
  // By epoch 2 the rookie participates and shifts the average up by ~0.5.
  sim.run_time(95.0);
  const RunningStats epoch2 = epoch_reports(sim, 2);
  ASSERT_GT(epoch2.count(), 0u);
  const double expected = (mean(values) * 200.0 + 100.0) / 201.0;
  EXPECT_NEAR(epoch2.mean(), expected, 0.02);
}

TEST(AdaptiveAsync, MessageLossToleratedWithinEpochs) {
  const auto values = uniforms(400, 11);
  Simulation sim = adaptive(values, 30, 12, /*clock_drift=*/0.0, /*loss=*/0.15);
  sim.run_time(95.0);
  const RunningStats summary = epoch_reports(sim, 1);
  ASSERT_GT(summary.count(), 0u);
  // Loss slows convergence and adds drift, but epoch results stay close.
  EXPECT_NEAR(summary.mean(), mean(values), 0.05);
  EXPECT_LT(summary.max() - summary.min(), 0.2);
}

TEST(AdaptiveAsync, ValidatesConfig) {
  EXPECT_THROW(adaptive({1.0}, 30, 1), ContractViolation);  // n < 2
  EXPECT_THROW(SimulationBuilder()
                   .nodes(3)
                   .engine(EngineKind::kEvent)
                   .adaptive_epochs()
                   .workload(WorkloadSpec::from_values({1.0}))
                   .build(),
               ContractViolation);  // length mismatch
  EXPECT_THROW(adaptive({1.0, 2.0}, 30, 1, /*clock_drift=*/1.5),
               ContractViolation);
  Simulation sim = adaptive({1.0, 2.0}, 30, 1);
  EXPECT_THROW(sim.set_value(5, 1.0), ContractViolation);  // no such node
}

TEST(AdaptiveAsync, EpochSummaryEmptyForFutureEpochs) {
  Simulation sim = adaptive(uniforms(50, 13), 10, 14);
  sim.run_time(5.0);
  EXPECT_EQ(epoch_reports(sim, 0).count(), 0u);  // epoch 0 not finished yet
  EXPECT_EQ(epoch_reports(sim, 99).count(), 0u);
}

}  // namespace
}  // namespace epiagg
