// The event engine's message-based failure model: exchanges are split into
// send/reply messages with latency, so loss and churn strike mid-exchange.
// These tests pin the failure semantics the paper's asynchronous system
// model implies — above all mass conservation: a completed push–pull
// exchange conserves the participants' total approximation mass exactly,
// and a mid-exchange crash loses at most one node's worth of it.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace epiagg {
namespace {

double participant_mass(const Simulation& sim) {
  return sim.mean() * static_cast<double>(sim.participant_count());
}

TEST(EventAsync, MessageSplitExchangesConserveMass) {
  // No loss, no churn, no latency: deliveries fire immediately after their
  // sends, so every exchange completes before any state changes underneath
  // it and the message machinery itself must neither create nor destroy
  // mass — conservation up to floating-point dust.
  Simulation sim = SimulationBuilder()
                       .nodes(64)
                       .engine(EngineKind::kEvent)
                       .epoch_length(1000)  // one long epoch, no restarts
                       .seed(7)
                       .build();
  const double before = participant_mass(sim);
  sim.run_time(25.0);
  EXPECT_NEAR(participant_mass(sim), before, 1e-9);
  EXPECT_LT(sim.variance(), 1e-9);
}

TEST(EventAsync, LatencyOverlapDriftIsSecondOrder) {
  // Under latency, exchanges overlap: a reply applies against a state that
  // other exchanges may have moved meanwhile, so mass is only approximately
  // conserved (the zero-communication-time assumption the paper's analysis
  // makes). The drift is a zero-mean random walk whose steps shrink with
  // the variance — far below one node's mass over a full run.
  Simulation sim = SimulationBuilder()
                       .nodes(64)
                       .engine(EngineKind::kEvent)
                       .epoch_length(1000)
                       .latency(std::make_shared<ConstantLatency>(0.4))
                       .seed(7)
                       .build();
  const double before = participant_mass(sim);
  const double mean_before = sim.mean();
  sim.run_time(25.0);
  EXPECT_LT(std::abs(participant_mass(sim) - before), mean_before);
  EXPECT_LT(sim.variance(), 1e-9);
}

TEST(EventAsync, MidExchangeCrashLosesAtMostOneNodesMass) {
  // One node crashes at t = 10 while, under 0.4 cycles of one-way latency,
  // roughly a population's worth of exchanges is in flight. Whatever the
  // victim had half-finished, the total participant mass may drop by at
  // most one node's approximation (its own state, plus nothing else: the
  // generation check at delivery drops its in-flight messages instead of
  // applying them to a recycled slot).
  Simulation sim = SimulationBuilder()
                       .nodes(64)
                       .engine(EngineKind::kEvent)
                       .epoch_length(1000)
                       .latency(std::make_shared<ConstantLatency>(0.4))
                       .failures(FailureSpec::with_churn(
                           std::make_shared<CrashBurst>(10, 1)))
                       .seed(123)
                       .build();
  sim.run_time(9.0);
  const double mass_before = participant_mass(sim);
  const double mean_before = sim.mean();
  ASSERT_EQ(sim.participant_count(), 64u);

  sim.run_time(30.0);
  ASSERT_EQ(sim.participant_count(), 63u);
  const double mass_after = participant_mass(sim);

  // By t = 9 every approximation is within a hair of the mean, so "one
  // node's mass" is the mean itself.
  EXPECT_NEAR(mass_after, mass_before - mean_before, 0.01);
  // And the surviving population still agrees on an average inside the
  // initial value range.
  EXPECT_LT(sim.variance(), 1e-9);
  EXPECT_GT(sim.mean(), 0.0);
  EXPECT_LT(sim.mean(), 1.0);
}

TEST(EventAsync, PushSumKeepsMassInFlightAndLosesItOnlyToLoss) {
  auto chain = [](double loss) {
    return SimulationBuilder()
        .nodes(128)
        .engine(EngineKind::kEvent)
        .protocol(ProtocolVariant::kPushSum)
        .latency(std::make_shared<UniformLatency>(0.05, 0.3))
        .failures(FailureSpec::message_loss_only(loss))
        .seed(99)
        .build();
  };
  Simulation lossless = chain(0.0);
  const double mass = lossless.total_mass();
  lossless.run_time(30.0);
  // Conserved exactly: total_mass() counts the (sum, weight) halves that are
  // in flight at the measuring instant.
  EXPECT_NEAR(lossless.total_mass(), mass, 1e-9 * mass);
  EXPECT_LT(lossless.variance(), 1e-6);

  Simulation lossy = chain(0.2);
  const double lossy_mass = lossy.total_mass();
  lossy.run_time(30.0);
  EXPECT_LT(lossy.total_mass(), lossy_mass * 0.1);  // mass evaporates
  EXPECT_GT(lossy.messages_lost(), 0u);
}

TEST(EventAsync, MultiAggregateUnderChurnReportsAccurateEpochs) {
  Simulation sim = SimulationBuilder()
                       .nodes(250)
                       .engine(EngineKind::kEvent)
                       .aggregates({AggregatorSpec::average("avg"),
                                    AggregatorSpec::maximum("max")})
                       .epoch_length(25)
                       .failures(FailureSpec::with_churn(
                           std::make_shared<ConstantFluctuation>(2)))
                       .seed(9)
                       .build();
  sim.run_time(50.0);
  ASSERT_EQ(sim.epochs().size(), 2u);
  for (const EpochSummary& summary : sim.epochs()) {
    EXPECT_NEAR(summary.est_mean, summary.truth, 0.1);
    EXPECT_EQ(summary.population_start, 250u);
  }
  EXPECT_GT(sim.messages_sent(), 0u);
}

TEST(EventAsync, LiveMembershipCoRunsOnTheEventEngine) {
  // Membership gossip wake-ups interleave with aggregation wake-ups in
  // simulated time; churn propagates into the overlay itself, and the
  // overlay-health pipeline rides the integer-time ticks.
  auto health = std::make_shared<OverlayHealthObserver>();
  Simulation sim = SimulationBuilder()
                       .nodes(300)
                       .engine(EngineKind::kEvent)
                       .membership(MembershipSpec::newscast(20, 15))
                       .failures(FailureSpec::with_churn(
                           std::make_shared<ConstantFluctuation>(3)))
                       .epoch_length(20)
                       .observe(health)
                       .seed(21)
                       .build();
  sim.run_time(40.0);
  EXPECT_EQ(sim.population_size(), 300u);
  ASSERT_EQ(sim.epochs().size(), 2u);
  EXPECT_NEAR(sim.epochs().back().est_mean, sim.epochs().back().truth, 0.2);
  ASSERT_FALSE(health->history().empty());
  EXPECT_TRUE(health->history().back().connected);
  EXPECT_GT(health->history().back().mean_out, 10.0);
}

TEST(EventAsync, LiveMembershipSurvivesPopulationGrowth) {
  // Growth churn makes the overlay mint FRESH slot ids past the historical
  // peak (not recycled ones); the joiner's generation slot and membership
  // clock must exist before anything reads them (regression: out-of-bounds
  // generations_ read in allocate()).
  Simulation sim = SimulationBuilder()
                       .nodes(50)
                       .engine(EngineKind::kEvent)
                       .membership(MembershipSpec::cyclon(10, 4, 10))
                       .failures(FailureSpec::with_churn(
                           std::make_shared<OscillatingChurn>(50, 200, 40, 2)))
                       .epoch_length(10)
                       .seed(77)
                       .build();
  sim.run_time(40.0);
  EXPECT_GT(sim.population_size(), 100u);  // the wave grew the network
  ASSERT_GE(sim.epochs().size(), 3u);
  EXPECT_NEAR(sim.epochs().back().est_mean, sim.epochs().back().truth, 0.25);
}

TEST(EventAsync, AdaptiveEpochsReportThroughTheSimulationApi) {
  Simulation sim = SimulationBuilder()
                       .nodes(200)
                       .engine(EngineKind::kEvent)
                       .adaptive_epochs(0.005)
                       .epoch_length(15)
                       .seed(31)
                       .build();
  sim.run_time(50.0);
  EXPECT_GE(sim.frontier_epoch(), 3u);
  // Nearly every node reports nearly every completed epoch (adoption can
  // interrupt an occasional laggard).
  EXPECT_GT(sim.adaptive_samples().size(), 3u * 190u);
  // Mid-run joiners wait for the epoch boundary their contact promised.
  const NodeId rookie = sim.join(100.0);
  EXPECT_EQ(sim.population_size(), 201u);
  EXPECT_EQ(rookie, 200u);
  sim.run_time(100.0);
  double latest_epoch_mean = 0.0;
  std::size_t latest_count = 0;
  const EpochId last = sim.frontier_epoch() - 1;
  for (const AdaptiveEpochSample& sample : sim.adaptive_samples()) {
    if (sample.epoch == last) {
      latest_epoch_mean += sample.approximation;
      ++latest_count;
    }
  }
  ASSERT_GT(latest_count, 0u);
  latest_epoch_mean /= static_cast<double>(latest_count);
  // The rookie's outlier attribute lifts the converged average visibly.
  EXPECT_GT(latest_epoch_mean, 0.7);
}

}  // namespace
}  // namespace epiagg
