// Live membership co-run: aggregation over an EVOLVING peer-sampled overlay
// (the paper's §4 deployment story — averaging on top of Newscast while
// nodes join and crash), assembled through SimulationBuilder. Covers the
// acceptance criteria of the live path: churn composes with membership on
// the cycle engine, the live Cyclon trajectory tracks the complete-overlay
// ideal, and the overlay stays connected through a fig-style mass crash.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

namespace epiagg {
namespace {

TEST(LiveMembership, CyclonWithChurnBuildsAndConverges) {
  // The headline lifted conflict: .membership(cyclon).failures(churn) on the
  // cycle engine. Joiners bootstrap through the overlay, crashers take their
  // view along, epochs restart the estimate.
  Simulation sim =
      SimulationBuilder()
          .nodes(500)
          .membership(MembershipSpec::cyclon(20, 8, 20))
          .failures(FailureSpec::with_churn(
              std::make_shared<ConstantFluctuation>(5)))
          .epoch_length(30)
          .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
          .seed(41)
          .build();
  sim.run_cycles(60);
  ASSERT_EQ(sim.epochs().size(), 2u);
  for (const EpochSummary& summary : sim.epochs()) {
    EXPECT_NEAR(summary.est_mean, summary.truth, 0.25);
    EXPECT_LT(summary.variance, 1e-3);
  }
  EXPECT_EQ(sim.population_size(), 500u);  // size-preserving fluctuation
}

TEST(LiveMembership, NewscastWithChurnBuildsAndConverges) {
  Simulation sim =
      SimulationBuilder()
          .nodes(500)
          .membership(MembershipSpec::newscast(20, 20))
          .failures(FailureSpec::with_churn(
              std::make_shared<ConstantFluctuation>(5)))
          .epoch_length(30)
          .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
          .seed(43)
          .build();
  sim.run_cycles(60);
  ASSERT_EQ(sim.epochs().size(), 2u);
  for (const EpochSummary& summary : sim.epochs()) {
    EXPECT_NEAR(summary.est_mean, summary.truth, 0.25);
    EXPECT_LT(summary.variance, 1e-3);
  }
}

TEST(LiveMembership, LiveCyclonTracksTheCompleteOverlayBaseline) {
  // Acceptance criterion: the live Cyclon variance-reduction trajectory
  // stays within 10% per-cycle of the complete-overlay ideal. Live views are
  // re-randomized every cycle, so — unlike the frozen snapshot — no
  // structural artifact accumulates.
  const std::size_t n = 2000;
  const std::size_t cycles = 15;
  auto variances_of = [&](SimulationBuilder builder) {
    Simulation sim = builder.nodes(n)
                         .workload(WorkloadSpec::from_distribution(
                             ValueDistribution::kNormal))
                         .seed(2004)
                         .build();
    std::vector<double> variances{sim.variance()};
    for (std::size_t c = 0; c < cycles; ++c) {
      sim.run_cycle();
      variances.push_back(sim.variance());
    }
    return variances;
  };
  const auto complete = variances_of(SimulationBuilder());
  const auto live = variances_of(
      SimulationBuilder().membership(MembershipSpec::cyclon(20, 8, 20)));
  // Compare the per-cycle reduction rate up to every cycle (the geometric
  // mean smooths the tail noise of raw consecutive-cycle ratios, which is
  // dominated by the few slowest nodes once the variance is tiny).
  for (std::size_t c = 1; c <= cycles; ++c) {
    const double factor_complete =
        std::pow(complete[c] / complete[0], 1.0 / static_cast<double>(c));
    const double factor_live =
        std::pow(live[c] / live[0], 1.0 / static_cast<double>(c));
    EXPECT_NEAR(factor_live / factor_complete, 1.0, 0.10)
        << "per-cycle reduction rate diverged at cycle " << c;
  }
}

TEST(LiveMembership, OverlayStaysConnectedThroughAFigStyleCrash) {
  // The paper's robustness scenario at N = 1000: half the network crashes at
  // once mid-run. The live overlay must self-heal — OverlayHealthObserver
  // records connectivity, degree spread and clustering every cycle.
  auto health = std::make_shared<OverlayHealthObserver>();
  Simulation sim =
      SimulationBuilder()
          .nodes(1000)
          .membership(MembershipSpec::newscast(20, 20))
          .failures(FailureSpec::with_churn(
              std::make_shared<CrashBurst>(/*cycle=*/10, /*count=*/500)))
          .epoch_length(40)
          .workload(
              WorkloadSpec::from_distribution(ValueDistribution::kUniform))
          .observe(health)
          .seed(77)
          .build();
  sim.run_cycles(40);
  ASSERT_EQ(health->history().size(), 40u);
  for (const OverlayHealth& h : health->history()) {
    EXPECT_TRUE(h.connected) << "overlay disconnected at cycle " << h.cycle;
    EXPECT_GE(h.min_out, 1.0);
  }
  EXPECT_EQ(health->history().front().population, 1000u);
  EXPECT_EQ(health->history().back().population, 500u);
  // Survivors still agree on the (post-crash) average.
  ASSERT_EQ(sim.epochs().size(), 1u);
  EXPECT_LT(sim.epochs().front().variance, 1e-3);
}

TEST(LiveMembership, HealthIsOnlyComputedWhenRequested) {
  // A VarianceTrace does not ask for overlay health; the run must not pay
  // for per-cycle connectivity/clustering sweeps, and traces must match a
  // health-observed run bit-for-bit (health consumes no randomness).
  auto trace_only = std::make_shared<VarianceTrace>();
  auto trace_with_health = std::make_shared<VarianceTrace>();
  auto health = std::make_shared<OverlayHealthObserver>();
  auto build = [](std::shared_ptr<Observer> first,
                  std::shared_ptr<Observer> second) {
    SimulationBuilder builder;
    builder.nodes(300)
        .membership(MembershipSpec::cyclon(15, 6, 10))
        .workload(WorkloadSpec::from_distribution(ValueDistribution::kUniform))
        .seed(55);
    builder.observe(std::move(first));
    if (second) builder.observe(std::move(second));
    return builder.build();
  };
  Simulation plain = build(trace_only, nullptr);
  Simulation observed = build(trace_with_health, health);
  plain.run_cycles(10);
  observed.run_cycles(10);
  EXPECT_EQ(health->history().size(), 10u);
  ASSERT_EQ(trace_only->trace().size(), trace_with_health->trace().size());
  for (std::size_t i = 0; i < trace_only->trace().size(); ++i)
    EXPECT_EQ(trace_only->trace()[i], trace_with_health->trace()[i]);
}

TEST(LiveMembership, ContinuousRunSupportsEpochlessAveraging) {
  // Without churn or epochs the live path runs continuously, like the static
  // impls — and converges to the true average of the initial values.
  std::vector<double> values(400);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<double>(i);
  Simulation sim = SimulationBuilder()
                       .workload(WorkloadSpec::from_values(values))
                       .membership(MembershipSpec::newscast(20, 10))
                       .seed(66)
                       .build();
  sim.run_cycles(40);
  EXPECT_NEAR(sim.mean(), 199.5, 1e-6);
  EXPECT_LT(sim.variance(), 1e-9);
  // Without epochs an attribute update could never surface; it must fail
  // fast like the static path instead of being silently ignored.
  EXPECT_THROW(sim.set_value(0, 1e6), ContractViolation);
}

TEST(LiveMembership, MultiAggregateRidesTheLiveOverlay) {
  Simulation sim =
      SimulationBuilder()
          .nodes(300)
          .aggregates({AggregatorSpec::average("avg"),
                       AggregatorSpec::maximum("max")})
          .membership(MembershipSpec::cyclon(20, 8, 10))
          .failures(FailureSpec::with_churn(
              std::make_shared<ConstantFluctuation>(2)))
          .epoch_length(25)
          .workload(
              WorkloadSpec::from_distribution(ValueDistribution::kUniform))
          .seed(88)
          .build();
  const EpochSummary summary = sim.run_epoch();
  EXPECT_NEAR(summary.est_mean, summary.truth, 0.1);
}

TEST(LiveMembership, SizeEstimationRunsOnTheLiveOverlay) {
  // §4's size-estimation instances gossiping over a LIVE newscast overlay
  // under churn: partners come from the evolving views, the leader count
  // still drives the estimate, and joiners/crashers flow through the
  // overlay's slot recycling.
  auto run = [](std::uint64_t seed) {
    Simulation sim =
        SimulationBuilder()
            .nodes(400)
            .protocol(ProtocolVariant::kSizeEstimation)
            .membership(MembershipSpec::newscast(15, 8))
            .failures(FailureSpec::with_churn(
                std::make_shared<ConstantFluctuation>(3)))
            .epoch_length(25)
            .seed(seed)
            .build();
    sim.run_cycles(50);
    std::vector<double> out;
    for (const EpochSummary& e : sim.epochs()) {
      out.push_back(e.est_mean);
      out.push_back(static_cast<double>(e.reporting));
      out.push_back(static_cast<double>(e.instances));
    }
    return out;
  };
  const auto golden = run(31);
  ASSERT_EQ(golden.size(), 6u);  // 2 full epochs x 3 fields
  // Accuracy: a view-routed epoch with leaders must land near N = 400.
  bool estimated = false;
  for (std::size_t e = 0; e < golden.size(); e += 3) {
    if (golden[e + 2] > 0) {  // instances ran this epoch
      EXPECT_NEAR(golden[e], 400.0, 40.0);
      estimated = true;
    }
  }
  EXPECT_TRUE(estimated);
  // Determinism golden: bit-identical re-run, seed-sensitive.
  EXPECT_EQ(golden, run(31));
  EXPECT_NE(golden, run(32));
}

TEST(LiveMembership, EventEngineSizeEstimationRunsOnTheLiveOverlay) {
  // The same live co-run on the EVENT engine: membership gossip rides typed
  // kMembershipWake records on the paper's Δt grid, partners resolve from
  // the evolving views, joiners bootstrap through the overlay's slot
  // recycling and message latency keeps counting state genuinely in flight.
  auto run = [](std::uint64_t seed) {
    Simulation sim =
        SimulationBuilder()
            .nodes(400)
            .engine(EngineKind::kEvent)
            .protocol(ProtocolVariant::kSizeEstimation)
            .membership(MembershipSpec::newscast(15, 8))
            .failures(FailureSpec::with_churn(
                std::make_shared<ConstantFluctuation>(3)))
            .latency(std::make_shared<UniformLatency>(0.0, 0.05))
            .epoch_length(25)
            .seed(seed)
            .build();
    sim.run_time(50.0);
    std::vector<double> out;
    for (const EpochSummary& e : sim.epochs()) {
      out.push_back(e.est_mean);
      out.push_back(static_cast<double>(e.reporting));
      out.push_back(static_cast<double>(e.instances));
    }
    return out;
  };
  const auto golden = run(131);
  ASSERT_EQ(golden.size(), 6u);  // 2 full epochs x 3 fields
  // Accuracy: a view-routed epoch with leaders must land near N = 400.
  bool estimated = false;
  for (std::size_t e = 0; e < golden.size(); e += 3) {
    if (golden[e + 2] > 0) {  // instances ran this epoch
      EXPECT_NEAR(golden[e], 400.0, 40.0);
      estimated = true;
    }
  }
  EXPECT_TRUE(estimated);
  // Determinism golden: bit-identical re-run, seed-sensitive.
  EXPECT_EQ(golden, run(131));
  EXPECT_NE(golden, run(132));
}

TEST(LiveMembership, SnapshotModeStillComposesAFrozenTopology) {
  // MembershipSpec::snapshot keeps the historical path: a warmed-up overlay
  // frozen into a GraphTopology, readable through sim.topology().
  Simulation sim =
      SimulationBuilder()
          .nodes(300)
          .membership(
              MembershipSpec::snapshot(MembershipSpec::newscast(20, 10)))
          .workload(
              WorkloadSpec::from_distribution(ValueDistribution::kUniform))
          .seed(8)
          .build();
  EXPECT_NE(sim.topology(), nullptr);
  sim.run_cycles(20);
  EXPECT_LT(sim.variance(), 1e-6);
  // The live path samples peers from the evolving views; no fixed topology
  // exists to expose.
  Simulation live = SimulationBuilder()
                        .nodes(300)
                        .membership(MembershipSpec::newscast(20, 10))
                        .workload(WorkloadSpec::from_distribution(
                            ValueDistribution::kUniform))
                        .seed(8)
                        .build();
  EXPECT_THROW(live.topology(), ContractViolation);
}

}  // namespace
}  // namespace epiagg
