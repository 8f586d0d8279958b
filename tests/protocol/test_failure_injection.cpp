// Failure-injection tests: the protocol's documented degradation modes under
// crashes and message loss must be present, bounded, and in the predicted
// direction — not just "still runs".
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/stats.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

namespace epiagg {
namespace {

Simulation size_estimation(std::size_t n, std::size_t epoch_length,
                           double expected_leaders,
                           std::shared_ptr<ChurnSchedule> churn,
                           std::uint64_t seed) {
  return SimulationBuilder()
      .nodes(n)
      .protocol(ProtocolVariant::kSizeEstimation)
      .epoch_length(epoch_length)
      .expected_leaders(expected_leaders)
      .failures(FailureSpec::with_churn(std::move(churn)))
      .seed(seed)
      .build();
}

TEST(FailureInjection, CrashBurstMidEpochBiasesOneEpochOnly) {
  // A 20% crash burst in the middle of epoch 3 removes counting mass at
  // random. Epoch 3's report may be off, but epoch 4 restarts from the
  // surviving population and must be accurate again — the self-stabilizing
  // property of the restart mechanism.
  Simulation sim = size_estimation(
      2000, 30, 6.0, std::make_shared<CrashBurst>(3 * 30 + 15, 400), 1);
  sim.run_cycles(6 * 30);
  const auto& reports = sim.epochs();
  ASSERT_EQ(reports.size(), 6u);
  // Post-burst epochs estimate the shrunken population accurately.
  for (std::size_t e = 4; e < 6; ++e) {
    if (reports[e].instances == 0 || reports[e].reporting == 0) continue;
    EXPECT_NEAR(reports[e].est_mean, 1600.0, 1600.0 * 0.03) << "epoch " << e;
  }
}

TEST(FailureInjection, CrashesNeverStallTheProtocol) {
  // Extreme fluctuation (20% of the network swapped per cycle) must not
  // break any invariant or wedge the simulation.
  Simulation sim = size_estimation(
      500, 20, 4.0, std::make_shared<ConstantFluctuation>(100), 2);
  sim.run_cycles(100);
  EXPECT_EQ(sim.population_size(), 500u);
  EXPECT_EQ(sim.epochs().size(), 5u);
}

TEST(FailureInjection, MassLossBiasesCountingUpward) {
  // Crashes remove instance mass; since surviving mass can only shrink, the
  // per-instance estimate 1/x̄ is biased UP relative to the surviving
  // population far more often than down. Verify the direction statistically.
  class CrashOnly final : public ChurnSchedule {
  public:
    ChurnAction at_cycle(std::size_t, std::size_t size) override {
      return size > 600 ? ChurnAction{0, 5} : ChurnAction{};
    }
  };
  int above = 0, total = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Simulation sim =
        size_estimation(1000, 30, 4.0, std::make_shared<CrashOnly>(), 100 + seed);
    sim.run_cycles(30);
    const EpochSummary& report = sim.epochs().front();
    if (report.instances == 0 || report.reporting == 0) continue;
    ++total;
    // Compare against the END population (what survived).
    if (report.est_mean > static_cast<double>(report.population_end)) ++above;
  }
  ASSERT_GE(total, 8);
  EXPECT_GE(above, total - 1);
}

TEST(FailureInjection, ReplyLossesLeakMassPushLossesDoNot) {
  // Structural check of the loss semantics: with loss applied ONLY to
  // pushes, mass would be conserved; our model loses pushes and replies with
  // equal probability, so drift comes from the reply path. We verify that
  // the drift magnitude is consistent with ~half the losses being harmless.
  Rng rng(3);
  Simulation sim =
      SimulationBuilder()
          .engine(EngineKind::kEvent)
          .workload(WorkloadSpec::from_values(
              generate_values(ValueDistribution::kPeak, 400, rng)))
          .failures(FailureSpec::message_loss_only(0.25))
          .seed(4)
          .build();
  const double before = sim.mean();
  sim.run_time(12.0);
  EXPECT_GT(sim.messages_lost(), 0u);
  // Mean moved (reply losses) but stayed within the convex hull of values.
  EXPECT_NE(sim.mean(), before);
  EXPECT_GE(sim.mean(), -1e-9);
  EXPECT_LE(sim.mean(), static_cast<double>(400));
}

TEST(FailureInjection, VarianceStillContractsUnderHeavyLoss) {
  // Even at 40% loss the variance contracts — slower, but inexorably (the
  // paper's graceful-degradation story).
  Rng rng(5);
  Simulation sim =
      SimulationBuilder()
          .engine(EngineKind::kEvent)
          .workload(WorkloadSpec::from_values(
              generate_values(ValueDistribution::kNormal, 1000, rng)))
          .failures(FailureSpec::message_loss_only(0.4))
          .seed(6)
          .build();
  sim.run_time(20.0);
  const auto& samples = sim.samples();
  EXPECT_LT(samples.back().variance, samples.front().variance * 0.01);
  // And the per-cycle factor is strictly worse than lossless theory.
  RunningStats factors;
  for (std::size_t i = 1; i < samples.size(); ++i)
    factors.add(samples[i].variance / samples[i - 1].variance);
  EXPECT_GT(factors.mean(), 0.303);
}

TEST(FailureInjection, IsolatedEpochWithoutLeadersRecovers) {
  // Force expected_leaders so low that leaderless epochs happen; the network
  // must keep running and produce estimates in the epochs that do have one.
  // P(no leader) ≈ e^-0.7 ≈ 0.5 per epoch.
  Simulation sim = size_estimation(300, 25, 0.7, nullptr, 7);
  sim.run_cycles(25 * 20);
  std::size_t with = 0, without = 0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0) {
      ++without;
      EXPECT_EQ(report.reporting, 0u);
    } else {
      ++with;
      if (report.reporting > 0) {
        EXPECT_NEAR(report.est_mean, 300.0, 3.0);
      }
    }
  }
  EXPECT_GT(with, 0u);
  EXPECT_GT(without, 0u);  // the failure mode actually occurred
}

TEST(FailureInjection, LatencyPlusLossCombined) {
  // The least idealized regime the engine supports: exponential waits,
  // exponential latencies, 10% loss. Convergence must still be exponential
  // in wall-clock time.
  Rng rng(8);
  Simulation sim =
      SimulationBuilder()
          .engine(EngineKind::kEvent)
          .waiting(WaitingTime::kExponential)
          .latency(std::make_shared<ExponentialLatency>(0.1))
          .workload(WorkloadSpec::from_values(
              generate_values(ValueDistribution::kUniform, 800, rng)))
          .failures(FailureSpec::message_loss_only(0.1))
          .seed(9)
          .build();
  sim.run_time(15.0);
  EXPECT_LT(sim.samples().back().variance, sim.samples().front().variance * 1e-3);
}

}  // namespace
}  // namespace epiagg
