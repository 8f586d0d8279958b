// Determinism and invariants of the adversary subsystem: every adversary
// model must be bit-reproducible from the master seed on BOTH engines, the
// AttackImpactObserver must be RNG-neutral, and neither overlay poisoning
// nor a crashed liar may survive the slot recycling of churn.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/adversary.hpp"
#include "sim/simulation.hpp"
#include "workload/churn.hpp"

namespace epiagg {
namespace {

// ===================================================================
// Cycle-engine determinism goldens — one per adversary model
// ===================================================================

/// Variance trace of a seeded adversarial run over a live Newscast overlay.
std::vector<double> cycle_trace(const AdversarySpec& adv,
                                const MitigationSpec& mit, std::uint64_t seed) {
  auto trace = std::make_shared<VarianceTrace>();
  SimulationBuilder builder;
  builder.nodes(200)
      .membership(MembershipSpec::newscast(12, 5))
      .workload(WorkloadSpec::from_distribution(ValueDistribution::kUniform))
      .observe(trace)
      .seed(seed);
  if (adv.enabled()) builder.adversary(adv);
  if (mit.enabled()) builder.mitigation(mit);
  Simulation sim = builder.build();
  sim.run_cycles(15);
  return trace->trace();
}

struct AdversaryCase {
  const char* name;
  AdversarySpec adv;
  MitigationSpec mit;
};

std::vector<AdversaryCase> all_cases() {
  return {
      {"constant-lie", AdversarySpec::constant_lie(0.1, 50.0),
       MitigationSpec::none()},
      {"drift-lie", AdversarySpec::drift_lie(0.1, 5.0, 0.5),
       MitigationSpec::none()},
      {"mean-shift", AdversarySpec::mean_shift(0.1, 3.0),
       MitigationSpec::none()},
      {"overlay-poison", AdversarySpec::overlay_poison(0.1, 3, 3),
       MitigationSpec::none()},
      {"partition", AdversarySpec::partition(2, 6), MitigationSpec::none()},
      {"lie+median", AdversarySpec::constant_lie(0.1, 50.0),
       MitigationSpec::median_of_k(5)},
      {"lie+trimmed", AdversarySpec::constant_lie(0.1, 50.0),
       MitigationSpec::trimmed_mean(8, 0.25)},
  };
}

TEST(AdversaryDeterminism, CycleEngineSameSeedByteIdentical) {
  for (const AdversaryCase& c : all_cases()) {
    const auto first = cycle_trace(c.adv, c.mit, 42);
    const auto second = cycle_trace(c.adv, c.mit, 42);
    ASSERT_EQ(first.size(), second.size()) << c.name;
    for (std::size_t i = 0; i < first.size(); ++i)
      EXPECT_EQ(first[i], second[i]) << c.name << " diverged at cycle " << i;
    EXPECT_NE(first, cycle_trace(c.adv, c.mit, 43)) << c.name;
  }
}

TEST(AdversaryDeterminism, ModelsProduceDistinctTraces) {
  // Each attack consumes/perturbs the run differently; same seed must not
  // collapse two models onto the same trajectory.
  const auto benign =
      cycle_trace(AdversarySpec::none(), MitigationSpec::none(), 42);
  for (const AdversaryCase& c : all_cases())
    EXPECT_NE(benign, cycle_trace(c.adv, c.mit, 42)) << c.name;
}

// ===================================================================
// Event-engine determinism goldens
// ===================================================================

/// (variance, mean) sample stream of a seeded adversarial event run.
std::vector<double> event_trace(const AdversarySpec& adv,
                                const MitigationSpec& mit, std::uint64_t seed) {
  SimulationBuilder builder;
  builder.nodes(150)
      .engine(EngineKind::kEvent)
      .membership(MembershipSpec::newscast(12, 5))
      .workload(WorkloadSpec::from_distribution(ValueDistribution::kUniform))
      .seed(seed);
  if (adv.enabled()) builder.adversary(adv);
  if (mit.enabled()) builder.mitigation(mit);
  Simulation sim = builder.build();
  sim.run_time(10.0);
  std::vector<double> out;
  for (const AsyncSample& s : sim.samples()) {
    out.push_back(s.variance);
    out.push_back(s.mean);
  }
  return out;
}

TEST(AdversaryDeterminism, EventEngineSameSeedByteIdentical) {
  for (const AdversaryCase& c : all_cases()) {
    const auto first = event_trace(c.adv, c.mit, 7);
    const auto second = event_trace(c.adv, c.mit, 7);
    ASSERT_EQ(first.size(), second.size()) << c.name;
    for (std::size_t i = 0; i < first.size(); ++i)
      EXPECT_EQ(first[i], second[i]) << c.name << " diverged at sample " << i;
    EXPECT_NE(first, event_trace(c.adv, c.mit, 8)) << c.name;
  }
}

TEST(AdversaryDeterminism, EventPushSumLieIsReproducible) {
  auto run = [](std::uint64_t seed) {
    Simulation sim =
        SimulationBuilder()
            .nodes(100)
            .engine(EngineKind::kEvent)
            .protocol(ProtocolVariant::kPushSum)
            .workload(
                WorkloadSpec::from_distribution(ValueDistribution::kUniform))
            .adversary(AdversarySpec::constant_lie(0.1, 50.0))
            .seed(seed)
            .build();
    sim.run_time(8.0);
    return std::make_pair(sim.mean(), sim.variance());
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(AdversaryDeterminism, SizeEstimationModelsAreReproducible) {
  auto run = [](const AdversarySpec& adv, std::uint64_t seed) {
    SimulationBuilder builder;
    builder.nodes(300)
        .protocol(ProtocolVariant::kSizeEstimation)
        .epoch_length(15)
        .seed(seed);
    if (adv.kind == AdversarySpec::Kind::kOverlayPoison)
      builder.membership(MembershipSpec::newscast(12, 5));
    if (adv.enabled()) builder.adversary(adv);
    Simulation sim = builder.build();
    sim.run_cycles(30);
    std::vector<double> out;
    for (const EpochSummary& e : sim.epochs()) {
      out.push_back(e.est_mean);
      out.push_back(static_cast<double>(e.reporting));
    }
    return out;
  };
  const AdversarySpec models[] = {
      AdversarySpec::constant_lie(0.1, 100.0),
      AdversarySpec::partition(3, 8),
      AdversarySpec::overlay_poison(0.1, 3, 3),
  };
  for (const AdversarySpec& adv : models) {
    EXPECT_EQ(run(adv, 21), run(adv, 21));
    EXPECT_NE(run(adv, 21), run(adv, 22));
  }
}

// ===================================================================
// Observer RNG-neutrality
// ===================================================================

TEST(AdversaryObservers, AttackImpactObserverIsRngNeutral) {
  // Attaching the impact observer must not change the adversarial run: the
  // damage sweep is computed outside the RNG stream.
  auto run = [](bool instrumented) {
    auto trace = std::make_shared<VarianceTrace>();
    SimulationBuilder builder;
    builder.nodes(200)
        .membership(MembershipSpec::newscast(12, 5))
        .workload(WorkloadSpec::from_distribution(ValueDistribution::kUniform))
        .adversary(AdversarySpec::constant_lie(0.1, 50.0))
        .observe(trace)
        .seed(33);
    if (instrumented) builder.observe(std::make_shared<AttackImpactObserver>());
    Simulation sim = builder.build();
    sim.run_cycles(15);
    return trace->trace();
  };
  const auto blind = run(false);
  const auto instrumented = run(true);
  ASSERT_EQ(blind.size(), instrumented.size());
  for (std::size_t i = 0; i < blind.size(); ++i)
    EXPECT_EQ(blind[i], instrumented[i]) << "observer perturbed cycle " << i;
}

TEST(AdversaryObservers, ImpactSeparatesHonestFromAdversarial) {
  auto impact = std::make_shared<AttackImpactObserver>();
  Simulation sim =
      SimulationBuilder()
          .nodes(200)
          .membership(MembershipSpec::newscast(12, 5))
          .workload(
              WorkloadSpec::from_distribution(ValueDistribution::kUniform))
          .adversary(AdversarySpec::constant_lie(0.1, 50.0))
          .observe(impact)
          .seed(44)
          .build();
  sim.run_cycles(10);
  ASSERT_EQ(impact->history().size(), 10u);
  for (const AttackImpact& h : impact->history()) {
    EXPECT_EQ(h.honest + h.adversarial, 200u);
    EXPECT_EQ(h.adversarial, 20u);  // 10% of 200, exact by construction
    EXPECT_GE(h.estimate_error, 0.0);
  }
}

TEST(AdversaryObservers, PoisonRunsReportCaptureRatio) {
  auto impact = std::make_shared<AttackImpactObserver>();
  Simulation sim =
      SimulationBuilder()
          .nodes(200)
          .membership(MembershipSpec::newscast(12, 5))
          .workload(
              WorkloadSpec::from_distribution(ValueDistribution::kUniform))
          .adversary(AdversarySpec::overlay_poison(0.1, 4, 4))
          .observe(impact)
          .seed(55)
          .build();
  sim.run_cycles(10);
  const AttackImpact& last = impact->history().back();
  // 10% attackers flooding 4 victims/cycle with 4 copies: they must hold a
  // disproportionate share of the view arcs (fair share would be 0.10).
  EXPECT_GT(last.capture_ratio, 0.10);
  EXPECT_LE(last.capture_ratio, 1.0);
}

// ===================================================================
// Adversary × churn — roles and membership invariants survive recycling
// ===================================================================

TEST(AdversaryChurn, PoisonCannotBreakSlotRecycling) {
  // Sustained churn recycles slots through the overlay free-list while
  // attackers keep flooding views; node ids must stay bounded by the peak
  // population and crashed attackers must lose their role (the impact
  // counter can only shrink).
  auto impact = std::make_shared<AttackImpactObserver>();
  Simulation sim =
      SimulationBuilder()
          .nodes(150)
          .membership(MembershipSpec::cyclon(10, 4, 5))
          .failures(
              FailureSpec::with_churn(std::make_shared<ConstantFluctuation>(5)))
          .epoch_length(10)
          .workload(
              WorkloadSpec::from_distribution(ValueDistribution::kUniform))
          .adversary(AdversarySpec::overlay_poison(0.1, 3, 3))
          .observe(impact)
          .seed(66)
          .build();
  sim.run_cycles(40);
  EXPECT_EQ(sim.population_size(), 150u);  // constant fluctuation: 5 in, 5 out
  ASSERT_EQ(impact->history().size(), 40u);
  std::size_t previous = impact->history().front().adversarial;
  for (const AttackImpact& h : impact->history()) {
    EXPECT_LE(h.adversarial, previous);  // roles die with their slot
    previous = h.adversarial;
    // Joiners wait for the next epoch restart, so the participant count
    // (honest + adversarial) trails the population but never exceeds it.
    EXPECT_LE(h.honest + h.adversarial, 150u);
    EXPECT_GE(h.honest + h.adversarial, 2u);
  }
}

TEST(AdversaryChurn, CrashedLiarsRoleDiesWithItsRecycledSlot) {
  // Size estimation under 10% churn per cycle: a crashed liar's slot id is
  // recycled for a joiner, who must join honest. A role that survived the
  // crash would be handed down to every generation of joiners and pin the
  // estimate near 1/0.5 = 2 for good; with roles cleared the liars die out
  // with the initial population, and once it has turned over the epochs
  // estimate the true size again.
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    Simulation sim = SimulationBuilder()
                         .nodes(400)
                         .engine(engine)
                         .protocol(ProtocolVariant::kSizeEstimation)
                         .epoch_length(30)
                         .failures(FailureSpec::with_churn(
                             std::make_shared<ConstantFluctuation>(40)))
                         .adversary(AdversarySpec::constant_lie(0.1, 0.5))
                         .seed(7)
                         .build();
    if (engine == EngineKind::kCycle) {
      sim.run_cycles(600);
    } else {
      sim.run_time(600.0);
    }
    ASSERT_EQ(sim.epochs().size(), 20u) << to_string(engine);
    std::size_t checked = 0;
    for (std::size_t e = 10; e < sim.epochs().size(); ++e) {
      const EpochSummary& summary = sim.epochs()[e];
      if (summary.instances == 0 || summary.reporting == 0) continue;
      const auto size = static_cast<double>(summary.population_start);
      EXPECT_GT(summary.est_mean, size / 2.0) << to_string(engine) << " epoch " << e;
      EXPECT_LT(summary.est_mean, size * 2.0) << to_string(engine) << " epoch " << e;
      ++checked;
    }
    EXPECT_GE(checked, 8u) << to_string(engine);
  }
}

// ===================================================================
// Benign byte-identity: no .adversary() ⇒ zero RNG consumed
// ===================================================================

TEST(AdversaryNeutrality, UnconfiguredBuilderMatchesHistoricalStream) {
  // The adversary axis must be invisible when unset: a builder that never
  // mentions it produces the same bytes as one explicitly set to none().
  auto run = [](bool touch_axis) {
    auto trace = std::make_shared<VarianceTrace>();
    SimulationBuilder builder;
    builder.nodes(200)
        .membership(MembershipSpec::newscast(12, 5))
        .workload(WorkloadSpec::from_distribution(ValueDistribution::kUniform))
        .observe(trace)
        .seed(77);
    if (touch_axis) {
      builder.adversary(AdversarySpec::none());
      builder.mitigation(MitigationSpec::none());
    }
    Simulation sim = builder.build();
    sim.run_cycles(15);
    return trace->trace();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace epiagg
