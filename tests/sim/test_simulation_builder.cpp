// SimulationBuilder misuse coverage: conflicting specs must fail fast in
// build() with a ContractViolation whose message tells the caller what to
// change — not half-configure a simulation that misbehaves later.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/values.hpp"

namespace epiagg {
namespace {

/// Asserts that build() throws ContractViolation and that the message
/// contains `hint` (the actionable part).
void expect_build_failure(SimulationBuilder builder, const std::string& hint) {
  try {
    (void)builder.build();
    FAIL() << "build() accepted a conflicting spec; expected hint: " << hint;
  } catch (const ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find(hint), std::string::npos)
        << "actual message: " << violation.what();
  }
}

TEST(SimulationBuilder, MinimalChainBuildsAndRuns) {
  Simulation sim = SimulationBuilder().nodes(100).seed(1).build();
  sim.run_cycles(5);
  EXPECT_EQ(sim.cycle(), 5u);
  EXPECT_EQ(sim.population_size(), 100u);
  EXPECT_LT(sim.variance(), 1.0);
}

TEST(SimulationBuilder, PopulationMustBeKnown) {
  expect_build_failure(SimulationBuilder{}, "population size unknown");
  expect_build_failure(SimulationBuilder().nodes(1), "at least two nodes");
}

TEST(SimulationBuilder, NodesMustAgreeWithExplicitWorkload) {
  expect_build_failure(
      SimulationBuilder().nodes(10).workload(
          WorkloadSpec::from_values(std::vector<double>(5, 0.0))),
      "disagrees with the explicit workload");
  // Consistent specs are fine; the vector alone also determines n.
  Simulation sim = SimulationBuilder()
                       .workload(WorkloadSpec::from_values({1.0, 2.0, 3.0}))
                       .build();
  EXPECT_EQ(sim.population_size(), 3u);
}

TEST(SimulationBuilder, EventEngineRejectsFixedActivationOrder) {
  // The event engine has no global cycle, so a per-cycle activation order is
  // contradictory — the conflict named in the issue.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .activation(ActivationOrder::kFixed),
                       "no global cycle");
}

TEST(SimulationBuilder, SizeEstimationRejectsExplicitValues) {
  // Size estimation seeds its own indicator distribution (§4); an explicit
  // value vector is contradictory — the conflict named in the issue.
  expect_build_failure(
      SimulationBuilder()
          .nodes(100)
          .protocol(ProtocolVariant::kSizeEstimation)
          .workload(WorkloadSpec::from_values(std::vector<double>(100, 1.0))),
      "seeds its own indicator values");
}

TEST(SimulationBuilder, EventEngineStillRejectsSynchronousVocabulary) {
  // GETPAIR strategies describe the synchronous cycle model; they stay
  // meaningless when nodes wake on their own GETWAITINGTIME clocks.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .pairs(PairStrategy::kPerfectMatching),
                       "synchronous cycle model");
}

TEST(SimulationBuilder, EventEngineRunsFormerlyCycleOnlyProtocols) {
  // The lifted conflicts: several aggregates, push-sum and live membership
  // overlays now execute as real message-passing on the event engine.
  Simulation multi = SimulationBuilder()
                         .nodes(200)
                         .engine(EngineKind::kEvent)
                         .aggregates({AggregatorSpec::average("avg"),
                                      AggregatorSpec::maximum("max"),
                                      AggregatorSpec::minimum("min")})
                         .epoch_length(25)
                         .seed(5)
                         .build();
  multi.run_time(25.0);
  ASSERT_EQ(multi.epochs().size(), 1u);
  EXPECT_NEAR(multi.epochs().front().est_mean, multi.epochs().front().truth,
              1e-4);
  EXPECT_EQ(multi.slot_approximations(2).size(), 200u);

  Simulation push_sum = SimulationBuilder()
                            .nodes(200)
                            .engine(EngineKind::kEvent)
                            .protocol(ProtocolVariant::kPushSum)
                            .latency(std::make_shared<ConstantLatency>(0.05))
                            .seed(6)
                            .build();
  const double mass_before = push_sum.total_mass();
  const double variance_before = push_sum.variance();
  push_sum.run_time(30.0);
  EXPECT_LT(push_sum.variance(), variance_before * 1e-3);
  // Push-sum mass is genuinely in flight under latency, and conserved: the
  // total of node sums plus in-flight messages never changes without loss.
  EXPECT_NEAR(push_sum.total_mass(), mass_before, 1e-9 * mass_before + 1e-9);

  Simulation membership = SimulationBuilder()
                              .nodes(200)
                              .engine(EngineKind::kEvent)
                              .membership(MembershipSpec::cyclon(20, 8, 10))
                              .seed(7)
                              .build();
  membership.run_time(20.0);
  EXPECT_LT(membership.variance(), 1e-6);
}

TEST(SimulationBuilder, EventEngineDynamicPathAcceptsLatency) {
  // Formerly "does not support message latency": exchanges are now split
  // into send/reply messages, so latency composes with churn, epochs and
  // size estimation.
  Simulation counting =
      SimulationBuilder()
          .nodes(150)
          .engine(EngineKind::kEvent)
          .protocol(ProtocolVariant::kSizeEstimation)
          .epoch_length(20)
          .latency(std::make_shared<ConstantLatency>(0.1))
          .failures(FailureSpec::with_churn(
              std::make_shared<ConstantFluctuation>(1)))
          .seed(41)
          .build();
  counting.run_time(40.0);
  ASSERT_EQ(counting.epochs().size(), 2u);
  EXPECT_EQ(counting.epochs().front().population_start, 150u);

  // Still enforced: a fixed sparse topology cannot follow a churning
  // population on either engine.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .topology(TopologySpec::ring(2))
                           .failures(FailureSpec::with_churn(
                               std::make_shared<ConstantFluctuation>(1))),
                       "cannot follow churn");
}

TEST(SimulationBuilder, AdaptiveEpochsValidation) {
  expect_build_failure(SimulationBuilder().nodes(100).adaptive_epochs(),
                       "EngineKind::kEvent");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .adaptive_epochs()
                           .protocol(ProtocolVariant::kPushSum),
                       "averaging family");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .adaptive_epochs(1.5),
                       "clock drift");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .adaptive_epochs()
                           .waiting(WaitingTime::kExponential),
                       "constant period");
}

TEST(SimulationBuilder, AdaptiveEpochsComposeWithChurnAndLatency) {
  Simulation sim = SimulationBuilder()
                       .nodes(300)
                       .engine(EngineKind::kEvent)
                       .adaptive_epochs(0.01)
                       .epoch_length(20)
                       .latency(std::make_shared<ConstantLatency>(0.02))
                       .failures(FailureSpec::with_churn(
                           std::make_shared<ConstantFluctuation>(1)))
                       .seed(11)
                       .build();
  sim.run_time(45.0);
  EXPECT_EQ(sim.population_size(), 300u);
  EXPECT_GE(sim.frontier_epoch(), 2u);
  EXPECT_FALSE(sim.adaptive_samples().empty());
}

TEST(SimulationBuilder, EventEngineAcceptsChurnEpochsAndSizeEstimation) {
  // The lifted conflicts: churn schedules fire at cycle-equivalent simulated
  // times and epochs restart at multiples of the epoch length, so the full
  // §4 dynamic configuration now builds and runs on the event engine.
  Simulation counting =
      SimulationBuilder()
          .nodes(300)
          .engine(EngineKind::kEvent)
          .protocol(ProtocolVariant::kSizeEstimation)
          .epoch_length(30)
          .expected_leaders(4.0)
          .failures(FailureSpec::with_churn(
              std::make_shared<ConstantFluctuation>(2)))
          .seed(41)
          .build();
  counting.run_time(60.0);
  ASSERT_EQ(counting.epochs().size(), 2u);
  EXPECT_EQ(counting.epochs().front().population_start, 300u);
  if (counting.epochs().front().instances > 0) {
    EXPECT_NEAR(counting.epochs().front().est_mean, 300.0, 30.0);
  }

  Simulation churned_avg =
      SimulationBuilder()
          .nodes(200)
          .engine(EngineKind::kEvent)
          .waiting(WaitingTime::kExponential)
          .failures(FailureSpec::with_churn(
              std::make_shared<ConstantFluctuation>(2)))
          .epoch_length(20)
          .seed(42)
          .build();
  churned_avg.run_time(40.0);
  ASSERT_EQ(churned_avg.epochs().size(), 2u);
  EXPECT_EQ(churned_avg.population_size(), 200u);
  const EpochSummary& summary = churned_avg.epochs().back();
  EXPECT_NEAR(summary.est_mean, summary.truth, 0.2);
  EXPECT_GT(churned_avg.messages_sent(), 0u);
}

TEST(SimulationBuilder, SizeEstimationKnobsRejectedElsewhere) {
  expect_build_failure(SimulationBuilder().nodes(100).expected_leaders(4.0),
                       "kSizeEstimation only");
}

TEST(SimulationBuilder, CycleEngineRejectsAsynchronySpecs) {
  expect_build_failure(
      SimulationBuilder().nodes(100).waiting(WaitingTime::kExponential),
      "EngineKind::kEvent");
  expect_build_failure(SimulationBuilder().nodes(100).latency(
                           std::make_shared<ConstantLatency>(0.1)),
                       "EngineKind::kEvent");
}

TEST(SimulationBuilder, MembershipAndTopologyAreExclusive) {
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .topology(TopologySpec::random_out_view(10))
                           .membership(MembershipSpec::newscast()),
                       "drop either");
}

TEST(SimulationBuilder, SnapshotMembershipCannotFollowChurn) {
  // The lifted conflict is for LIVE membership only: a frozen snapshot
  // overlay still cannot track a changing population.
  expect_build_failure(
      SimulationBuilder()
          .nodes(100)
          .membership(MembershipSpec::snapshot(MembershipSpec::cyclon()))
          .failures(
              FailureSpec::with_churn(std::make_shared<ConstantFluctuation>(1))),
      "MembershipSpec::snapshot freezes the views");
}

TEST(SimulationBuilder, LiveMembershipRejectsNonSequentialPairs) {
  // Live overlays resolve each initiator's partner from its evolving view —
  // a sequential sweep by construction; global pair draws need a frozen
  // overlay.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .membership(MembershipSpec::newscast())
                           .pairs(PairStrategy::kRandomEdge),
                       "MembershipSpec::snapshot");
  // The explicit sequential strategy is redundant but consistent.
  Simulation sim = SimulationBuilder()
                       .nodes(100)
                       .membership(MembershipSpec::newscast(20, 5))
                       .pairs(PairStrategy::kSequential)
                       .seed(21)
                       .build();
  sim.run_cycles(3);
  EXPECT_EQ(sim.cycle(), 3u);
}

TEST(SimulationBuilder, OverlayHealthNeedsALiveOverlay) {
  // Only the live path has evolving views to report on; attaching the
  // observer anywhere else would be a silent no-op, so build() rejects it.
  expect_build_failure(
      SimulationBuilder().nodes(100).observe(
          std::make_shared<OverlayHealthObserver>()),
      "LIVE membership overlay");
  expect_build_failure(
      SimulationBuilder()
          .nodes(100)
          .membership(MembershipSpec::snapshot(MembershipSpec::newscast()))
          .observe(std::make_shared<OverlayHealthObserver>()),
      "LIVE membership overlay");
}

TEST(SimulationBuilder, LiveMembershipRejectsPushSum) {
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kPushSum)
                           .membership(MembershipSpec::cyclon()),
                       "push-sum gossips over a fixed overlay");
  // The snapshot form composes fine.
  Simulation sim =
      SimulationBuilder()
          .nodes(100)
          .protocol(ProtocolVariant::kPushSum)
          .membership(MembershipSpec::snapshot(MembershipSpec::cyclon(10, 4, 5)))
          .seed(22)
          .build();
  const double before = sim.variance();
  sim.run_cycles(20);
  EXPECT_LT(sim.variance(), before * 1e-3);
}

TEST(SimulationBuilder, MatchingSelectorsNeedTheCompleteTopology) {
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .topology(TopologySpec::ring(2))
                           .pairs(PairStrategy::kPerfectMatching),
                       "complete topology");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .membership(MembershipSpec::cyclon())
                           .pairs(PairStrategy::kPmRand),
                       "complete topology");
}

TEST(SimulationBuilder, ActivationOrderOnlyShapesTheSequentialSweep) {
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .pairs(PairStrategy::kRandomEdge)
                           .activation(ActivationOrder::kShuffled),
                       "sequential sweep");
}

TEST(SimulationBuilder, PushSumRejectsPairStrategiesAndEpochs) {
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kPushSum)
                           .pairs(PairStrategy::kSequential),
                       "GETPAIR strategies do not apply");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kPushSum)
                           .epoch_length(30),
                       "no epoch restart");
}

TEST(SimulationBuilder, ChurnAveragingNeedsDistributionWorkload) {
  expect_build_failure(
      SimulationBuilder()
          .nodes(100)
          .failures(FailureSpec::with_churn(std::make_shared<NoChurn>()))
          .workload(WorkloadSpec::from_values(std::vector<double>(100, 1.0))),
      "joiners draw fresh attributes");
  expect_build_failure(
      SimulationBuilder()
          .nodes(100)
          .failures(FailureSpec::with_churn(std::make_shared<NoChurn>()))
          .workload(WorkloadSpec::from_distribution(ValueDistribution::kPeak)),
      "i.i.d.");
}

TEST(SimulationBuilder, LossProbabilityIsValidated) {
  expect_build_failure(
      SimulationBuilder().nodes(100).failures(
          FailureSpec::message_loss_only(1.5)),
      "loss probability");
}

TEST(SimulationBuilder, RuntimeMisuseOfTheWrongDriverThrows) {
  Simulation cycle_sim = SimulationBuilder().nodes(50).seed(3).build();
  EXPECT_THROW(cycle_sim.run_time(5.0), ContractViolation);
  EXPECT_THROW(cycle_sim.samples(), ContractViolation);
  EXPECT_THROW((void)cycle_sim.run_epoch(), ContractViolation);  // no epochs
  EXPECT_THROW(cycle_sim.total_mass(), ContractViolation);

  Simulation event_sim = SimulationBuilder()
                             .nodes(50)
                             .engine(EngineKind::kEvent)
                             .seed(4)
                             .build();
  EXPECT_THROW(event_sim.run_cycle(), ContractViolation);
  // A static event run exposes its planes like the cycle engine does.
  EXPECT_EQ(event_sim.approximations().size(), 50u);
}

TEST(SimulationBuilder, ChurnRunsReadMomentsFromTheParticipants) {
  // Under churn node ids are recycled, so the raw planes mix the current
  // participants with crashed slots and waiting joiners. mean()/variance()
  // answer from the participants — the very pass that closes an epoch — and
  // the plane accessors refuse, on either partner source.
  for (const bool overlay : {false, true}) {
    SCOPED_TRACE(overlay ? "live overlay" : "uniform partners");
    SimulationBuilder builder;
    builder.nodes(200)
        .failures(FailureSpec::with_churn(
            std::make_shared<ConstantFluctuation>(2)))
        .aggregates({AggregatorSpec::average("avg"),
                     AggregatorSpec::maximum("max")})
        .seed(10);
    if (overlay) builder.membership(MembershipSpec::newscast(20, 10));
    Simulation sim = builder.build();
    const EpochSummary summary = sim.run_epoch();
    EXPECT_EQ(sim.mean(), summary.est_mean);
    EXPECT_EQ(sim.variance(), summary.variance);
    EXPECT_EQ(sim.epochs().back().est_mean, summary.est_mean);
    for (const std::size_t slot : {0u, 1u}) {
      try {
        (void)sim.slot_approximations(slot);
        FAIL() << "slot " << slot << " exposed recycled ids";
      } catch (const ContractViolation& violation) {
        EXPECT_NE(std::string(violation.what()).find("node ids are recycled"),
                  std::string::npos)
            << "actual message: " << violation.what();
      }
    }
    EXPECT_THROW((void)sim.approximations(), ContractViolation);
  }
}

TEST(SimulationBuilder, HeavyChurnRunsCompleteWithFiniteSummaries) {
  // Churn can crash every participant of an epoch while the joiners wait for
  // the next restart. A moment that needs more participants than remain
  // (one for the mean, two for the variance) then reads 0 — in the epoch
  // summary, the per-cycle reports and mean()/variance() — instead of
  // throwing mid-run, on both engines and with every per-cycle reporter.
  enum class Extra { kNone, kValueLie, kTracking, kOverlay };
  const std::pair<std::size_t, std::size_t> sizes[] = {{20, 2}, {50, 5}};
  for (const bool event : {false, true}) {
    for (const auto& [n, swaps] : sizes) {
      for (const Extra extra : {Extra::kNone, Extra::kValueLie,
                                Extra::kTracking, Extra::kOverlay}) {
        SCOPED_TRACE(::testing::Message()
                     << (event ? "event" : "cycle") << " N=" << n
                     << " extra=" << static_cast<int>(extra));
        SimulationBuilder builder;
        builder.nodes(n)
            .failures(FailureSpec::with_churn(
                std::make_shared<ConstantFluctuation>(swaps)))
            .seed(3);
        if (event) builder.engine(EngineKind::kEvent);
        switch (extra) {
          case Extra::kNone:
            break;
          case Extra::kValueLie:
            builder.adversary(AdversarySpec::constant_lie(0.1, 5.0))
                .observe(std::make_shared<AttackImpactObserver>());
            break;
          case Extra::kTracking:
            builder
                .aggregates({AggregatorSpec::average("avg"),
                             AggregatorSpec::maximum("max")})
                .observe(std::make_shared<TrackingErrorObserver>());
            break;
          case Extra::kOverlay:
            builder.membership(MembershipSpec::newscast(8, 10));
            break;
        }
        Simulation sim = builder.build();
        if (event) {
          sim.run_time(120.0);
        } else {
          sim.run_cycles(120);
        }
        ASSERT_EQ(sim.epochs().size(), 4u);
        for (const EpochSummary& summary : sim.epochs()) {
          EXPECT_TRUE(std::isfinite(summary.truth));
          EXPECT_TRUE(std::isfinite(summary.est_mean));
          EXPECT_TRUE(std::isfinite(summary.est_min));
          EXPECT_TRUE(std::isfinite(summary.est_max));
          EXPECT_TRUE(std::isfinite(summary.variance));
          EXPECT_GE(summary.variance, 0.0);
        }
        EXPECT_TRUE(std::isfinite(sim.mean()));
        EXPECT_TRUE(std::isfinite(sim.variance()));
      }
    }
  }
}

TEST(SimulationBuilder, ProtocolVariantsProduceWorkingSimulations) {
  // One happy-path spin of every variant, exercising the orthogonal axes.
  Simulation multi = SimulationBuilder()
                         .nodes(200)
                         .aggregates({AggregatorSpec::average("avg"),
                                      AggregatorSpec::maximum("max"),
                                      AggregatorSpec::minimum("min")})
                         .epoch_length(25)
                         .seed(5)
                         .build();
  const EpochSummary summary = multi.run_epoch();
  EXPECT_NEAR(summary.est_mean, summary.truth, 1e-6);
  EXPECT_EQ(multi.slot_approximations(2).size(), 200u);

  Simulation push_sum = SimulationBuilder()
                            .nodes(200)
                            .protocol(ProtocolVariant::kPushSum)
                            .seed(6)
                            .build();
  const double before = push_sum.variance();
  push_sum.run_cycles(20);
  EXPECT_LT(push_sum.variance(), before * 1e-3);

  Simulation counting = SimulationBuilder()
                            .nodes(300)
                            .protocol(ProtocolVariant::kSizeEstimation)
                            .epoch_length(30)
                            .seed(7)
                            .build();
  counting.run_cycles(30);
  ASSERT_EQ(counting.epochs().size(), 1u);
  if (counting.epochs().front().instances > 0) {
    EXPECT_NEAR(counting.epochs().front().est_mean, 300.0, 6.0);
  }

  Simulation membership_overlay = SimulationBuilder()
                                      .nodes(200)
                                      .membership(MembershipSpec::newscast(20, 10))
                                      .seed(8)
                                      .build();
  membership_overlay.run_cycles(20);
  EXPECT_LT(membership_overlay.variance(), 1e-6);

  Simulation churned =
      SimulationBuilder()
          .nodes(200)
          .failures(FailureSpec::with_churn(std::make_shared<ConstantFluctuation>(4)))
          .epoch_length(20)
          .seed(9)
          .build();
  const EpochSummary churn_summary = churned.run_epoch();
  EXPECT_EQ(churned.population_size(), 200u);
  EXPECT_NEAR(churn_summary.est_mean, churn_summary.truth, 0.2);
}

TEST(SimulationBuilder, AggregatesRunOnTheDefaultProtocol) {
  Simulation sim = SimulationBuilder()
                       .nodes(100)
                       .aggregates({AggregatorSpec::average("avg"),
                                    AggregatorSpec::maximum("max")})
                       .seed(12)
                       .build();
  sim.run_cycles(15);
  EXPECT_EQ(sim.slot_approximations(1).size(), 100u);
  EXPECT_LT(sim.variance(), 1e-6);
}

/// Advances `sim` to just before the epoch restart at time `t`: through
/// cycle t on the cycle engine, and to t - 1e-6 on the event engine, whose
/// tick at t re-snapshots the planes.
void run_to_restart(Simulation& sim, bool event, std::size_t t) {
  if (event) {
    sim.run_time(static_cast<SimTime>(t) - 1e-6);
  } else {
    sim.run_cycles(t - sim.cycle());
  }
}

TEST(SimulationBuilder, ExtremesAreExactAndSlotUpdatesWaitForTheRestart) {
  Rng rng(21);
  const std::vector<double> values =
      generate_values(ValueDistribution::kUniform, 200, rng);
  const double hi = *std::max_element(values.begin(), values.end());
  const double lo = *std::min_element(values.begin(), values.end());
  for (const bool event : {false, true}) {
    SCOPED_TRACE(event ? "event engine" : "cycle engine");
    auto builder = [&] {
      SimulationBuilder chain;
      chain.workload(WorkloadSpec::from_values(values)).seed(22);
      if (event) chain.engine(EngineKind::kEvent);
      return chain;
    };
    Simulation sim = builder()
                         .aggregates({AggregatorSpec::average("avg"),
                                      AggregatorSpec::maximum("max"),
                                      AggregatorSpec::minimum("min")})
                         .epoch_length(30)
                         .build();
    // One epoch spreads the exact extremes to every node.
    run_to_restart(sim, event, 30);
    for (const double x : sim.slot_approximations(1)) EXPECT_EQ(x, hi);
    for (const double x : sim.slot_approximations(2)) EXPECT_EQ(x, lo);

    // A mid-epoch update waits for the next restart (at 60), then spreads
    // through the epoch that restart begins.
    run_to_restart(sim, event, 40);
    sim.set_slot_value(7, 1, 100.0);
    run_to_restart(sim, event, 60);
    for (const double x : sim.slot_approximations(1)) EXPECT_EQ(x, hi);
    run_to_restart(sim, event, 90);
    for (const double x : sim.slot_approximations(1)) EXPECT_EQ(x, 100.0);
    for (const double x : sim.slot_approximations(2)) EXPECT_EQ(x, lo);

    EXPECT_THROW(sim.set_slot_value(7, 3, 1.0), ContractViolation);
    EXPECT_THROW(sim.set_slot_value(200, 1, 1.0), ContractViolation);
    Simulation continuous = builder()
                                .aggregates({AggregatorSpec::average("avg"),
                                             AggregatorSpec::maximum("max")})
                                .build();
    EXPECT_THROW(continuous.set_slot_value(7, 1, 1.0), ContractViolation);

    // set_slot_value takes an aggregate index, slot_approximations a plane
    // index: after the width-2 sum_count (planes 0-1), the maximum is
    // aggregate 1 but plane 2.
    Simulation wide = builder()
                          .aggregates({AggregatorSpec::sum_count("sc"),
                                       AggregatorSpec::maximum("max")})
                          .epoch_length(30)
                          .build();
    run_to_restart(wide, event, 30);
    wide.set_slot_value(7, 1, 100.0);
    EXPECT_THROW(wide.set_slot_value(7, 2, 1.0), ContractViolation);
    run_to_restart(wide, event, 60);
    for (const double x : wide.slot_approximations(2)) EXPECT_EQ(x, 100.0);
  }
}

TEST(SimulationBuilder, AggregateSpecsAreValidated) {
  AggregatorSpec unknown{"x", "no-such-kind", 0.0};
  expect_build_failure(
      SimulationBuilder().nodes(100).aggregates({unknown}),
      "unknown aggregator kind");
  // Window lengths must be integral cycles >= 1.
  expect_build_failure(SimulationBuilder().nodes(100).aggregates(
                           {AggregatorSpec::windowed_mean("w", 0)}),
                       "integral window length");
  expect_build_failure(SimulationBuilder().nodes(100).aggregates(
                           {AggregatorSpec::windowed_mean("w", 2.5)}),
                       "integral window length");
  // The decay weight lives in (0, 1].
  expect_build_failure(SimulationBuilder().nodes(100).aggregates(
                           {AggregatorSpec::decaying_mean("d", 0.0)}),
                       "beta must be in (0, 1]");
  expect_build_failure(SimulationBuilder().nodes(100).aggregates(
                           {AggregatorSpec::decaying_mean("d", 1.5)}),
                       "beta must be in (0, 1]");
}

TEST(SimulationBuilder, AggregatesRejectedOffTheAveragingFamily) {
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kPushSum)
                           .aggregates({AggregatorSpec::average("avg")}),
                       "no pluggable aggregates");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kSizeEstimation)
                           .aggregates({AggregatorSpec::average("avg")}),
                       "no aggregate instances");
  // Adversary / mitigation models rewrite the single built-in average
  // exchange; pluggable aggregate lists are out of their scope.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .aggregates({AggregatorSpec::average("avg")})
                           .adversary(AdversarySpec::constant_lie(0.1, 5.0)),
                       "adversary and mitigation models rewrite");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .aggregates({AggregatorSpec::average("avg")})
                           .mitigation(MitigationSpec::median_of_k(5)),
                       "adversary and mitigation models rewrite");
}

TEST(SimulationBuilder, DynamicAggregatesRejectAdaptiveEpochs) {
  // Windowed/decaying refreshes advance on the shared integer-cycle grid;
  // adaptive per-node clocks have none.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .adaptive_epochs()
                           .epoch_length(10)
                           .aggregates({AggregatorSpec::windowed_mean("w", 5)}),
                       "shared integer-cycle grid");
}

TEST(SimulationBuilder, TimeVaryingWorkloadValidation) {
  const WorkloadSpec drift = WorkloadSpec::time_varying(
      WorkloadDynamics::kDrift, ValueDistribution::kUniform, 0.01);
  // Averaging family only: the baselines snapshot their inputs once.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kPushSum)
                           .workload(drift),
                       "snapshot their inputs once");
  // An explicit value vector cannot evolve.
  WorkloadSpec explicit_drift = drift;
  explicit_drift.values.assign(100, 1.0);
  expect_build_failure(SimulationBuilder().nodes(100).workload(explicit_drift),
                       "explicit value vector cannot evolve");
  // kStep re-draws one node at a time: per-node i.i.d. base only.
  expect_build_failure(
      SimulationBuilder().nodes(100).workload(WorkloadSpec::time_varying(
          WorkloadDynamics::kStep, ValueDistribution::kPeak, 0.0, 10.0)),
      "per-node i.i.d.");
  // kStep / kSeasonal need a period of at least one cycle.
  expect_build_failure(
      SimulationBuilder().nodes(100).workload(WorkloadSpec::time_varying(
          WorkloadDynamics::kSeasonal, ValueDistribution::kUniform, 0.1, 0.0)),
      "period of at least");
  // Adaptive clocks have no shared cycle grid to evolve on.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .adaptive_epochs()
                           .epoch_length(10)
                           .workload(drift),
                       "shared integer-cycle grid");
}

TEST(SimulationBuilder, TrackingErrorObserverNeedsAveraging) {
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kSizeEstimation)
                           .epoch_length(20)
                           .observe(std::make_shared<TrackingErrorObserver>()),
                       "TrackingErrorObserver");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .adaptive_epochs()
                           .epoch_length(10)
                           .observe(std::make_shared<TrackingErrorObserver>()),
                       "tracking-error reporting needs the shared cycle grid");
}

TEST(SimulationBuilder, RejectsConflictingAdversarySpecs) {
  // Overlay poisoning floods live views; without a live overlay there is
  // nothing to poison.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .adversary(AdversarySpec::overlay_poison(0.1, 3, 3)),
                       "overlay poisoning");

  // Adversary models rewrite single-aggregate exchanges only.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .aggregates({AggregatorSpec::average("avg"),
                                        AggregatorSpec::maximum("max")})
                           .epoch_length(20)
                           .adversary(AdversarySpec::constant_lie(0.1, 5.0)),
                       "pluggable .aggregates(...)");

  // Adversary models assume the shared epoch grid, not per-node clocks.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .engine(EngineKind::kEvent)
                           .epoch_length(20)
                           .adaptive_epochs()
                           .adversary(AdversarySpec::constant_lie(0.1, 5.0)),
                       "adaptive_epochs");

  // A hand-rolled out-of-range fraction must fail even though the factories
  // cannot produce one.
  AdversarySpec bad = AdversarySpec::constant_lie(0.1, 5.0);
  bad.fraction = 1.5;
  expect_build_failure(SimulationBuilder().nodes(100).adversary(bad),
                       "fraction");
}

TEST(SimulationBuilder, RejectsConflictingMitigationSpecs) {
  // Robust combine replaces the push-pull averaging step; it has no meaning
  // for push-sum or counting instances.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kPushSum)
                           .mitigation(MitigationSpec::median_of_k(5)),
                       "kPushPullAverage");
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kSizeEstimation)
                           .epoch_length(20)
                           .mitigation(MitigationSpec::trimmed_mean(8, 0.25)),
                       "kPushPullAverage");
}

TEST(SimulationBuilder, RejectsImpactObserverWithoutAdversaryAxis) {
  // AttackImpactObserver is meaningless on a benign run — and silently
  // accepting it would tempt callers into reading all-zero damage reports.
  expect_build_failure(
      SimulationBuilder().nodes(100).observe(
          std::make_shared<AttackImpactObserver>()),
      "AttackImpactObserver");
  // Size estimation reports through epochs(), not the impact channel.
  expect_build_failure(SimulationBuilder()
                           .nodes(100)
                           .protocol(ProtocolVariant::kSizeEstimation)
                           .epoch_length(20)
                           .adversary(AdversarySpec::constant_lie(0.1, 5.0))
                           .observe(std::make_shared<AttackImpactObserver>()),
                       "epochs()");
}

}  // namespace
}  // namespace epiagg
