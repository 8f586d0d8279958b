// Integration: the Fig. 4 experiment (size estimation under oscillating
// churn) at reduced scale, asserting the paper's qualitative conclusions.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "sim/simulation.hpp"

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

TEST(Fig4Pipeline, EstimateTracksOscillationDelayedByOneEpoch) {
  // Scaled Fig. 4: size oscillates 9000..11000 (period 200), fluctuation 10
  // joins + 10 crashes per cycle, epochs of 30 cycles, 600 cycles total.
  Simulation sim = size_estimation(
      11000, 30, 4.0, std::make_shared<OscillatingChurn>(9000, 11000, 200, 10),
      20040607);
  sim.run_cycles(600);
  ASSERT_EQ(sim.epochs().size(), 20u);

  int tracked = 0;
  double worst_relative_error = 0.0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0 || report.reporting == 0) continue;
    // The estimate describes the state at the epoch START ("translated by an
    // epoch"), not the end.
    const double target = static_cast<double>(report.population_start);
    const double err = std::abs(report.est_mean - target) / target;
    worst_relative_error = std::max(worst_relative_error, err);
    ++tracked;
    // Error bars (min..max over nodes) must bracket the mean.
    EXPECT_LE(report.est_min, report.est_mean);
    EXPECT_GE(report.est_max, report.est_mean);
  }
  EXPECT_GE(tracked, 17);  // leaderless epochs are ~e^-4 rare
  EXPECT_LT(worst_relative_error, 0.15);
}

TEST(Fig4Pipeline, EstimateLagsRatherThanLeads) {
  // During a monotone decline, the (lagging) estimate should on average sit
  // ABOVE the current size; during a monotone rise, BELOW. Use a long
  // triangle wave so epochs fall into clean monotone segments.
  Simulation sim = size_estimation(
      6000, 25, 6.0, std::make_shared<OscillatingChurn>(4000, 6000, 400, 5), 42);
  sim.run_cycles(400);

  int declining_above = 0, declining_total = 0;
  int rising_below = 0, rising_total = 0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0 || report.reporting == 0) continue;
    const bool declining = report.population_end < report.population_start;
    if (declining) {
      ++declining_total;
      if (report.est_mean > static_cast<double>(report.population_end))
        ++declining_above;
    } else if (report.population_end > report.population_start) {
      ++rising_total;
      if (report.est_mean < static_cast<double>(report.population_end))
        ++rising_below;
    }
  }
  ASSERT_GT(declining_total, 3);
  ASSERT_GT(rising_total, 3);
  EXPECT_GE(declining_above, declining_total - 1);
  EXPECT_GE(rising_below, rising_total - 1);
}

TEST(Fig4Pipeline, FluctuationOnlyChurnKeepsEstimatesNearTruth) {
  // Pure background fluctuation (size constant at 2000, 20 swaps/cycle):
  // estimates stay within ~10% of the truth epoch after epoch.
  Simulation sim = size_estimation(
      2000, 30, 4.0, std::make_shared<ConstantFluctuation>(20), 7);
  sim.run_cycles(300);
  int checked = 0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0 || report.reporting == 0) continue;
    EXPECT_NEAR(report.est_mean, 2000.0, 200.0);
    ++checked;
  }
  EXPECT_GE(checked, 8);
}

TEST(Fig4Pipeline, ErrorBarsShrinkWithMoreInstances) {
  // More concurrent instances average away per-instance noise: with E=12
  // leaders the node-level spread (max-min)/mean should typically be tighter
  // than with E=1. Compare medians over epochs to be robust.
  auto run_spread = [](double leaders, std::uint64_t seed) {
    Simulation sim = size_estimation(3000, 30, leaders, nullptr, seed);
    sim.run_cycles(300);
    std::vector<double> spreads;
    for (const EpochSummary& report : sim.epochs()) {
      if (report.instances == 0 || report.reporting == 0) continue;
      spreads.push_back((report.est_max - report.est_min) / report.est_mean);
    }
    return quantile(spreads, 0.5);
  };
  const double narrow = run_spread(12.0, 100);
  const double wide = run_spread(1.0, 101);
  EXPECT_LT(narrow, wide);
}

}  // namespace
}  // namespace epiagg
