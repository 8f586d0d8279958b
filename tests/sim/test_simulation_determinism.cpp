// Determinism guarantees of the builder API, golden-file style (the
// companion of tests/common/test_rng_golden.cpp): one master seed must pin
// down every byte of a simulation's output — across runs, across observer
// attachment, and across protocol variants — while genuinely different
// randomization toggles must change it.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace epiagg {
namespace {

/// Variance trace of `cycles` cycles for a seeded averaging chain.
std::vector<double> averaging_trace(std::uint64_t seed, ActivationOrder order,
                                    std::size_t cycles) {
  auto trace = std::make_shared<VarianceTrace>();
  Simulation sim =
      SimulationBuilder()
          .nodes(256)
          .pairs(PairStrategy::kSequential)
          .activation(order)
          .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
          .observe(trace)
          .seed(seed)
          .build();
  sim.run_cycles(cycles);
  return trace->trace();
}

TEST(SimulationDeterminism, SameSeedGivesByteIdenticalVarianceTraces) {
  const auto first = averaging_trace(2004, ActivationOrder::kFixed, 20);
  const auto second = averaging_trace(2004, ActivationOrder::kFixed, 20);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    // EXPECT_EQ on doubles is exact — bit-identical, not just close.
    EXPECT_EQ(first[i], second[i]) << "trace diverged at cycle " << i;
  }
}

TEST(SimulationDeterminism, DifferentSeedsGiveDifferentTraces) {
  EXPECT_NE(averaging_trace(2004, ActivationOrder::kFixed, 20),
            averaging_trace(2005, ActivationOrder::kFixed, 20));
}

TEST(SimulationDeterminism, OrderToggleChangesTheTraceOnlyWhereExpected) {
  // kShuffled consumes extra RNG draws per cycle (the permutation), so the
  // trace must differ from kFixed under the same seed...
  const auto fixed = averaging_trace(7, ActivationOrder::kFixed, 20);
  const auto shuffled = averaging_trace(7, ActivationOrder::kShuffled, 20);
  EXPECT_NE(fixed, shuffled);
  // ...while staying deterministic in itself.
  EXPECT_EQ(shuffled, averaging_trace(7, ActivationOrder::kShuffled, 20));
  // And both reach the same statistical endpoint: strong contraction.
  EXPECT_LT(fixed.back(), fixed.front() * 1e-6);
  EXPECT_LT(shuffled.back(), shuffled.front() * 1e-6);
}

/// The cycle engine's partner sources: a GETPAIR selector over a fixed
/// topology, uniform sampling under churn, and a live Newscast overlay under
/// churn.
enum class PartnerSource { kFixedTopology, kUniformChurn, kOverlayChurn };

class ObserverPurity : public ::testing::TestWithParam<PartnerSource> {};

TEST_P(ObserverPurity, ObserversDoNotPerturbTheRun) {
  // Attaching observers must never consume randomness: a traced run and a
  // blind run from the same seed end in identical states.
  auto build = [](bool observed) {
    SimulationBuilder builder;
    builder.nodes(128)
        .workload(WorkloadSpec::from_distribution(ValueDistribution::kUniform))
        .epoch_length(5)
        .seed(99);
    if (GetParam() != PartnerSource::kFixedTopology)
      builder.failures(
          FailureSpec::with_churn(std::make_shared<ConstantFluctuation>(2)));
    if (GetParam() == PartnerSource::kOverlayChurn)
      builder.membership(MembershipSpec::newscast(12, 5));
    if (observed) {
      builder.observe(std::make_shared<VarianceTrace>());
      builder.observe(std::make_shared<TrackingErrorObserver>());
    }
    return builder.build();
  };
  Simulation blind = build(false);
  Simulation traced = build(true);
  blind.run_cycles(15);
  traced.run_cycles(15);
  EXPECT_EQ(blind.mean(), traced.mean());
  ASSERT_EQ(blind.epochs().size(), 3u);
  ASSERT_EQ(blind.epochs().size(), traced.epochs().size());
  for (std::size_t e = 0; e < blind.epochs().size(); ++e) {
    const EpochSummary& a = blind.epochs()[e];
    const EpochSummary& b = traced.epochs()[e];
    EXPECT_EQ(a.est_mean, b.est_mean) << "epoch " << e;
    EXPECT_EQ(a.est_min, b.est_min) << "epoch " << e;
    EXPECT_EQ(a.est_max, b.est_max) << "epoch " << e;
    EXPECT_EQ(a.variance, b.variance) << "epoch " << e;
    EXPECT_EQ(a.truth, b.truth) << "epoch " << e;
    EXPECT_EQ(a.population_end, b.population_end) << "epoch " << e;
  }
  // Fixed ids are never recycled, so the raw planes must agree too.
  if (GetParam() == PartnerSource::kFixedTopology)
    EXPECT_EQ(blind.approximations(), traced.approximations());
}

INSTANTIATE_TEST_SUITE_P(SimulationDeterminism, ObserverPurity,
                         ::testing::Values(PartnerSource::kFixedTopology,
                                           PartnerSource::kUniformChurn,
                                           PartnerSource::kOverlayChurn));

TEST(SimulationDeterminism, EpochSummariesAreSeedStable) {
  auto epoch_fingerprint = [](std::uint64_t seed) {
    Simulation sim = SimulationBuilder()
                         .nodes(200)
                         .protocol(ProtocolVariant::kSizeEstimation)
                         .epoch_length(20)
                         .seed(seed)
                         .build();
    sim.run_cycles(60);
    std::vector<double> fingerprint;
    for (const EpochSummary& summary : sim.epochs()) {
      fingerprint.push_back(static_cast<double>(summary.instances));
      fingerprint.push_back(summary.est_mean);
      fingerprint.push_back(summary.est_min);
      fingerprint.push_back(summary.est_max);
    }
    return fingerprint;
  };
  EXPECT_EQ(epoch_fingerprint(11), epoch_fingerprint(11));
  EXPECT_NE(epoch_fingerprint(11), epoch_fingerprint(12));
}

TEST(SimulationDeterminism, EventEngineSizeEstimationIsSeedStable) {
  // The event-engine size-estimation path (epochs keyed to simulated time,
  // churn fired at cycle-equivalent times): one seed must pin down every
  // byte of the estimate trace, exactly like the cycle-engine golden above.
  auto estimate_trace = [](std::uint64_t seed) {
    Simulation sim =
        SimulationBuilder()
            .nodes(250)
            .engine(EngineKind::kEvent)
            .protocol(ProtocolVariant::kSizeEstimation)
            .epoch_length(20)
            .expected_leaders(4.0)
            .failures(FailureSpec::with_churn(
                std::make_shared<ConstantFluctuation>(3)))
            .seed(seed)
            .build();
    sim.run_time(80.0);
    std::vector<double> trace;
    for (const EpochSummary& summary : sim.epochs()) {
      trace.push_back(static_cast<double>(summary.instances));
      trace.push_back(static_cast<double>(summary.reporting));
      trace.push_back(static_cast<double>(summary.population_start));
      trace.push_back(static_cast<double>(summary.population_end));
      trace.push_back(summary.est_mean);
      trace.push_back(summary.est_min);
      trace.push_back(summary.est_max);
    }
    return trace;
  };
  const auto first = estimate_trace(2004);
  const auto second = estimate_trace(2004);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_GE(first.size(), 4u * 7u);  // 4 epochs completed
  for (std::size_t i = 0; i < first.size(); ++i) {
    // EXPECT_EQ on doubles is exact — bit-identical, not just close.
    EXPECT_EQ(first[i], second[i]) << "trace diverged at entry " << i;
  }
  EXPECT_NE(first, estimate_trace(2005));
}

TEST(SimulationDeterminism, LiveMembershipCoRunIsSeedStable) {
  // The live-overlay path (membership gossip co-running with aggregation
  // under churn) adds three more entropy consumers — the overlay's internal
  // stream, live view sampling, and churn victims/contacts — all of which
  // must derive from the one master seed. Golden: one seed pins down every
  // byte of the variance trace and the epoch summaries.
  auto live_trace = [](std::uint64_t seed) {
    auto trace = std::make_shared<VarianceTrace>();
    Simulation sim =
        SimulationBuilder()
            .nodes(300)
            .membership(MembershipSpec::cyclon(20, 8, 15))
            .failures(FailureSpec::with_churn(
                std::make_shared<ConstantFluctuation>(3)))
            .epoch_length(20)
            .workload(
                WorkloadSpec::from_distribution(ValueDistribution::kNormal))
            .observe(trace)
            .seed(seed)
            .build();
    sim.run_cycles(40);
    std::vector<double> fingerprint = trace->trace();
    for (const EpochSummary& summary : sim.epochs()) {
      fingerprint.push_back(summary.est_mean);
      fingerprint.push_back(summary.variance);
      fingerprint.push_back(summary.truth);
      fingerprint.push_back(static_cast<double>(summary.population_end));
    }
    return fingerprint;
  };
  const auto first = live_trace(2004);
  const auto second = live_trace(2004);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), 40u + 2u * 4u);  // 40 cycles + 2 epochs
  for (std::size_t i = 0; i < first.size(); ++i) {
    // EXPECT_EQ on doubles is exact — bit-identical, not just close.
    EXPECT_EQ(first[i], second[i]) << "trace diverged at entry " << i;
  }
  EXPECT_NE(first, live_trace(2005));
}

TEST(SimulationDeterminism, EventMultiAggregateIsSeedStable) {
  // Multi-aggregate on the event engine with churn, epochs AND per-message
  // latency: epoch summaries and the integer-time variance trace must be a
  // pure function of the master seed.
  auto fingerprint = [](std::uint64_t seed) {
    Simulation sim = SimulationBuilder()
                         .nodes(200)
                         .engine(EngineKind::kEvent)
                         .aggregates({AggregatorSpec::average("avg"),
                                      AggregatorSpec::minimum("min")})
                         .epoch_length(20)
                         .latency(std::make_shared<UniformLatency>(0.01, 0.2))
                         .failures(FailureSpec::with_churn(
                             std::make_shared<ConstantFluctuation>(2)))
                         .seed(seed)
                         .build();
    sim.run_time(40.0);
    std::vector<double> trace;
    for (const AsyncSample& sample : sim.samples()) {
      trace.push_back(sample.variance);
      trace.push_back(sample.mean);
    }
    for (const EpochSummary& summary : sim.epochs()) {
      trace.push_back(summary.est_mean);
      trace.push_back(summary.est_min);
      trace.push_back(summary.est_max);
      trace.push_back(summary.truth);
      trace.push_back(static_cast<double>(summary.population_end));
    }
    return trace;
  };
  const auto first = fingerprint(2004);
  const auto second = fingerprint(2004);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), 40u * 2u + 2u * 5u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    // EXPECT_EQ on doubles is exact — bit-identical, not just close.
    EXPECT_EQ(first[i], second[i]) << "trace diverged at entry " << i;
  }
  EXPECT_NE(first, fingerprint(2005));
}

TEST(SimulationDeterminism, EventPushSumIsSeedStable) {
  auto fingerprint = [](std::uint64_t seed) {
    Simulation sim = SimulationBuilder()
                         .nodes(150)
                         .engine(EngineKind::kEvent)
                         .protocol(ProtocolVariant::kPushSum)
                         .waiting(WaitingTime::kExponential)
                         .latency(std::make_shared<ExponentialLatency>(0.1))
                         .failures(FailureSpec::message_loss_only(0.05))
                         .seed(seed)
                         .build();
    sim.run_time(20.0);
    std::vector<double> trace;
    for (const AsyncSample& sample : sim.samples()) {
      trace.push_back(sample.variance);
      trace.push_back(sample.mean);
    }
    trace.push_back(sim.total_mass());
    trace.push_back(static_cast<double>(sim.messages_lost()));
    return trace;
  };
  const auto first = fingerprint(77);
  ASSERT_EQ(first.size(), 20u * 2u + 2u);
  EXPECT_EQ(first, fingerprint(77));
  EXPECT_NE(first, fingerprint(78));
}

TEST(SimulationDeterminism, EventLiveMembershipIsSeedStable) {
  // The event-engine live co-run interleaves three event streams —
  // membership wake-ups, aggregation wake-ups, and message deliveries — all
  // of which must derive from the one master seed.
  auto fingerprint = [](std::uint64_t seed) {
    Simulation sim = SimulationBuilder()
                         .nodes(250)
                         .engine(EngineKind::kEvent)
                         .membership(MembershipSpec::cyclon(20, 8, 10))
                         .epoch_length(15)
                         .latency(std::make_shared<ConstantLatency>(0.05))
                         .failures(FailureSpec::with_churn(
                             std::make_shared<ConstantFluctuation>(2)))
                         .seed(seed)
                         .build();
    sim.run_time(30.0);
    std::vector<double> trace;
    for (const AsyncSample& sample : sim.samples()) {
      trace.push_back(sample.variance);
      trace.push_back(sample.mean);
    }
    for (const EpochSummary& summary : sim.epochs()) {
      trace.push_back(summary.est_mean);
      trace.push_back(summary.truth);
      trace.push_back(static_cast<double>(summary.population_end));
    }
    return trace;
  };
  const auto first = fingerprint(2004);
  const auto second = fingerprint(2004);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), 30u * 2u + 2u * 3u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "trace diverged at entry " << i;
  }
  EXPECT_NE(first, fingerprint(2005));
}

TEST(SimulationDeterminism, AdaptiveEpochsAreSeedStable) {
  // The fully asynchronous §4 path: drifting local clocks, epidemic epoch
  // adoption, per-message loss. The per-node epoch-completion stream is the
  // richest fingerprint the simulator emits — every entry must reproduce.
  auto fingerprint = [](std::uint64_t seed) {
    Simulation sim = SimulationBuilder()
                         .nodes(150)
                         .engine(EngineKind::kEvent)
                         .adaptive_epochs(0.01)
                         .epoch_length(10)
                         .failures(FailureSpec::message_loss_only(0.05))
                         .seed(seed)
                         .build();
    sim.run_time(35.0);
    std::vector<double> trace;
    for (const AdaptiveEpochSample& sample : sim.adaptive_samples()) {
      trace.push_back(static_cast<double>(sample.node));
      trace.push_back(static_cast<double>(sample.epoch));
      trace.push_back(sample.completed_at);
      trace.push_back(sample.approximation);
    }
    trace.push_back(static_cast<double>(sim.frontier_epoch()));
    return trace;
  };
  const auto first = fingerprint(11);
  const auto second = fingerprint(11);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_GT(first.size(), 4u * 2u * 140u);  // >= ~3 epochs, ~150 nodes each
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "trace diverged at entry " << i;
  }
  EXPECT_NE(first, fingerprint(12));
}

TEST(SimulationDeterminism, SharedEntropyStreamThreadsSequentially) {
  // The .entropy(...) escape hatch exists so sweeps can thread ONE stream
  // through many cells (bit-compatible with the historical hand-wired
  // benches). Two sweeps sharing a stream must replay each other exactly.
  auto sweep = [] {
    auto rng = std::make_shared<Rng>(0xF16'3A);
    std::vector<double> factors;
    for (const NodeId n : {64u, 128u, 256u}) {
      Simulation sim = SimulationBuilder()
                           .nodes(n)
                           .topology(TopologySpec::random_out_view(8))
                           .workload(WorkloadSpec::from_distribution(
                               ValueDistribution::kNormal))
                           .entropy(rng)
                           .build();
      const double before = sim.variance();
      sim.run_cycle();
      factors.push_back(sim.variance() / before);
    }
    return factors;
  };
  EXPECT_EQ(sweep(), sweep());
}

}  // namespace
}  // namespace epiagg
