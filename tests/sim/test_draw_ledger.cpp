// Draw-provenance audit ledger goldens (the runtime half of the RNG-contract
// analyzer — see docs/static_analysis.md "The draw ledger").
//
// Two kinds of pins live here:
//
//  1. Cross-build stream-neutrality: pinned FNV-1a fingerprints of four
//     representative runs, compiled into EVERY build flavor. The plain build
//     and the EPIAGG_RNG_AUDIT build both run them, so a ledger that ever
//     perturbed the stream (an extra draw, a reordered draw) breaks the pin
//     in exactly one flavor. Run-vs-run comparisons cannot catch that — they
//     pass trivially within either build.
//
//  2. Per-phase draw-count goldens (audit builds only): the exact ledger —
//     scope names in first-entry order, draw and enter counts — for six
//     representative paths. Any change to WHERE a path spends its entropy
//     shows up here as a diff, reviewable like any other golden.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace epiagg {
namespace {

// ===================================================================
// Fingerprint plumbing
// ===================================================================

/// FNV-1a over the raw bytes of a double trace: bit-exact, so a single
/// swapped or inserted draw anywhere upstream changes the hash.
std::uint64_t fingerprint(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : xs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// ===================================================================
// The golden paths
// ===================================================================

/// Path 1 — cycle engine, static population, fixed topology.
Simulation cycle_static() {
  Simulation sim =
      SimulationBuilder()
          .nodes(128)
          .topology(TopologySpec::random_out_view(8))
          .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
          .seed(2004)
          .build();
  sim.run_cycles(10);
  return sim;
}

/// Path 2 — cycle engine, live Newscast overlay, churn AND an
/// overlay-poisoning adversary (every cycle-engine phase fires). Attaching
/// `trace` never perturbs the stream (the observer-purity contract).
Simulation cycle_churn_adversary(std::shared_ptr<VarianceTrace> trace = nullptr) {
  SimulationBuilder builder;
  builder.nodes(200)
      .membership(MembershipSpec::newscast(12, 5))
      .workload(WorkloadSpec::from_distribution(ValueDistribution::kUniform))
      .failures(
          FailureSpec::with_churn(std::make_shared<ConstantFluctuation>(3)))
      .epoch_length(10)
      .adversary(AdversarySpec::overlay_poison(0.1, 3, 3))
      .seed(2004);
  if (trace != nullptr) builder.observe(trace);
  Simulation sim = builder.build();
  sim.run_cycles(20);
  return sim;
}

/// Path 3 — event engine, push-sum under loss, latency and randomized waits.
Simulation event_push_sum() {
  Simulation sim = SimulationBuilder()
                       .nodes(100)
                       .engine(EngineKind::kEvent)
                       .protocol(ProtocolVariant::kPushSum)
                       .waiting(WaitingTime::kExponential)
                       .latency(std::make_shared<ExponentialLatency>(0.1))
                       .failures(FailureSpec::message_loss_only(0.05))
                       .seed(2004)
                       .build();
  sim.run_time(15.0);
  return sim;
}

/// Path 5 — a time-varying drift workload chased by decaying and windowed
/// means: the streaming-aggregate API's per-cycle "workload" re-sampling
/// scope (jitter draws, one per alive node per cycle) on either engine.
Simulation time_varying_monitoring(EngineKind engine) {
  Simulation sim =
      SimulationBuilder()
          .nodes(96)
          .engine(engine)
          .aggregates({AggregatorSpec::decaying_mean("ewma", 0.25),
                       AggregatorSpec::windowed_mean("win", 4)})
          .workload(WorkloadSpec::time_varying(WorkloadDynamics::kDrift,
                                               ValueDistribution::kUniform,
                                               /*rate=*/0.01, /*period=*/0.0,
                                               /*jitter=*/0.002))
          .seed(2004)
          .build();
  if (engine == EngineKind::kCycle) {
    sim.run_cycles(12);
  } else {
    sim.run_time(12.0);
  }
  return sim;
}

/// Path 6 — cycle engine, churn over the complete overlay: partners are
/// sampled uniformly from the live participants, crashed slot ids are
/// recycled through the store, and two aggregates (one of them two planes
/// wide) chase a drifting workload. Shuffled activation and message loss put
/// the permutation and the loss coin on the stream too.
Simulation cycle_churn_uniform(std::shared_ptr<VarianceTrace> trace = nullptr) {
  SimulationBuilder builder;
  builder.nodes(160)
      .aggregates({AggregatorSpec::average("avg"),
                   AggregatorSpec::variance("var")})
      .workload(WorkloadSpec::time_varying(WorkloadDynamics::kDrift,
                                           ValueDistribution::kUniform,
                                           /*rate=*/0.01, /*period=*/0.0,
                                           /*jitter=*/0.002))
      .failures(FailureSpec::with_churn(
          std::make_shared<ConstantFluctuation>(2), /*loss=*/0.05))
      .activation(ActivationOrder::kShuffled)
      .epoch_length(8)
      .seed(2004);
  if (trace != nullptr) builder.observe(trace);
  Simulation sim = builder.build();
  sim.run_cycles(24);
  return sim;
}

/// Path 4 — event engine, live membership co-run with churn and epochs.
Simulation event_live_membership() {
  Simulation sim =
      SimulationBuilder()
          .nodes(150)
          .engine(EngineKind::kEvent)
          .membership(MembershipSpec::cyclon(20, 8, 10))
          .epoch_length(10)
          .latency(std::make_shared<ConstantLatency>(0.05))
          .failures(
              FailureSpec::with_churn(std::make_shared<ConstantFluctuation>(2)))
          .seed(2004)
          .build();
  sim.run_time(20.0);
  return sim;
}

// ===================================================================
// Cross-build stream-neutrality pins (run in EVERY build flavor)
// ===================================================================

TEST(DrawLedgerNeutrality, CycleEngineFingerprintIsBuildInvariant) {
  auto observed = std::make_shared<VarianceTrace>();
  Simulation sim = cycle_churn_adversary(observed);
  std::vector<double> trace = observed->trace();
  for (const EpochSummary& summary : sim.epochs()) {
    trace.push_back(summary.est_mean);
    trace.push_back(summary.variance);
    trace.push_back(static_cast<double>(summary.population_end));
  }
  EXPECT_EQ(fingerprint(trace), 0x9f1266fb6ed19b69ULL)
      << "cycle-engine stream drifted: if this build defines "
         "EPIAGG_RNG_AUDIT, the audit instrumentation is consuming or "
         "reordering draws; otherwise the simulation itself changed and "
         "BOTH this pin and the audit-build pin must be re-baselined.";
}

TEST(DrawLedgerNeutrality, EventEngineFingerprintIsBuildInvariant) {
  Simulation sim = event_push_sum();
  std::vector<double> trace;
  for (const AsyncSample& sample : sim.samples()) {
    trace.push_back(sample.variance);
    trace.push_back(sample.mean);
  }
  trace.push_back(sim.total_mass());
  trace.push_back(static_cast<double>(sim.messages_lost()));
  EXPECT_EQ(fingerprint(trace), 0xd553c903e7ad035fULL)
      << "event-engine stream drifted (see the cycle-engine pin above for "
         "what that means per build flavor).";
}

TEST(DrawLedgerNeutrality, TimeVaryingFingerprintIsBuildInvariant) {
  std::vector<double> trace;
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    Simulation sim = time_varying_monitoring(engine);
    for (std::size_t slot = 0; slot < 2; ++slot)
      for (const double v : sim.slot_approximations(slot)) trace.push_back(v);
  }
  EXPECT_EQ(fingerprint(trace), 0xda16016d9bdd9ab7ULL)
      << "time-varying stream drifted: the per-cycle workload evolution or "
         "the aggregate dynamics consumed different entropy in this build "
         "flavor (see the cycle-engine pin above for what that means).";
}

TEST(DrawLedgerNeutrality, UniformChurnFingerprintIsBuildInvariant) {
  auto observed = std::make_shared<VarianceTrace>();
  Simulation sim = cycle_churn_uniform(observed);
  std::vector<double> trace = observed->trace();
  for (const EpochSummary& summary : sim.epochs()) {
    trace.push_back(summary.est_mean);
    trace.push_back(summary.variance);
    trace.push_back(summary.truth);
    trace.push_back(static_cast<double>(summary.population_start));
    trace.push_back(static_cast<double>(summary.population_end));
  }
  EXPECT_EQ(fingerprint(trace), 0x3b41f030c464add0ULL)
      << "uniform-churn stream drifted (see the cycle-engine pin above for "
         "what that means per build flavor).";
}

// ===================================================================
// Ledger surface in plain builds
// ===================================================================

#ifndef EPIAGG_RNG_AUDIT

TEST(DrawLedger, PlainBuildsExposeAnEmptyLedger) {
  Simulation sim = cycle_static();
  EXPECT_TRUE(sim.draw_ledger().empty());
  EXPECT_EQ(sim.total_draws(), 0u);
}

#else  // EPIAGG_RNG_AUDIT

// ===================================================================
// Per-phase draw-count goldens (audit builds)
// ===================================================================

struct ExpectedScope {
  const char* scope;
  std::uint64_t draws;
  std::uint64_t enters;
};

std::string render(const std::vector<RngDrawRecord>& ledger) {
  std::ostringstream out;
  for (const RngDrawRecord& r : ledger)
    out << "  {\"" << r.scope << "\", " << r.draws << ", " << r.enters
        << "},\n";
  return out.str();
}

/// The golden is the WHOLE ledger: names, order, draws, enters. On mismatch
/// the actual ledger is printed in pin-able form.
void expect_ledger(const Simulation& sim,
                   const std::vector<ExpectedScope>& expected) {
  const std::vector<RngDrawRecord> ledger = sim.draw_ledger();
  bool match = ledger.size() == expected.size();
  for (std::size_t i = 0; match && i < ledger.size(); ++i)
    match = ledger[i].scope == expected[i].scope &&
            ledger[i].draws == expected[i].draws &&
            ledger[i].enters == expected[i].enters;
  EXPECT_TRUE(match) << "per-phase ledger drifted; actual:\n" << render(ledger);

  // Scoped draws can never exceed the stream's total (unscoped draws — e.g.
  // build-time workload generation — make up the difference).
  std::uint64_t scoped = 0;
  for (const RngDrawRecord& r : ledger) scoped += r.draws;
  EXPECT_LE(scoped, sim.total_draws());
}

TEST(DrawLedger, CycleStaticGolden) {
  // 128 nodes × 10 cycles, one partner draw per activation; the sequential
  // pair schedule draws nothing else inside the cycle loop.
  expect_ledger(cycle_static(), {
                                    {"partner-draw", 1280, 10},
                                });
}

TEST(DrawLedger, CycleChurnAdversaryGolden) {
  // ConstantFluctuation(3): 3 crash victims + 3 joiner slots per cycle in
  // "churn", one workload value per joiner, the poisoner's planted views in
  // "adversary", and partner resolution (plus this engine's loss draws — see
  // the charging note in simulation.cpp) in "partner-draw".
  expect_ledger(cycle_churn_adversary(), {
                                             {"churn", 120, 20},
                                             {"workload", 60, 60},
                                             {"adversary", 1092, 20},
                                             {"partner-draw", 3677, 20},
                                         });
}

TEST(DrawLedger, CycleChurnUniformGolden) {
  // ConstantFluctuation(2): 2 crash victims per cycle in "churn" (joiners
  // take recycled store slots, no contact draw), one workload value per
  // joiner per aggregate plus one jitter draw per alive node per cycle in
  // "workload", and the shuffle, the uniform partner draws and the loss
  // coins in "partner-draw".
  expect_ledger(cycle_churn_uniform(), {
                                           {"churn", 48, 24},
                                           {"workload", 3936, 72},
                                           {"partner-draw", 10893, 24},
                                       });
}

TEST(DrawLedger, EventPushSumGolden) {
  // Fully randomized event path: every wake-up redraws its exponential wait,
  // every send draws a partner, a loss coin, and — unless the coin ate the
  // message — an exponential delivery delay.
  expect_ledger(event_push_sum(), {
                                      {"waiting", 1544, 1544},
                                      {"partner-draw", 1444, 1444},
                                      {"loss", 1444, 1444},
                                      {"latency", 1376, 1376},
                                  });
}

TEST(DrawLedger, EventLiveMembershipGolden) {
  // Constant waiting time and constant latency: those scopes are ENTERED on
  // every wake-up / delivery but only the randomized cases draw (initial
  // phase desync in "waiting"; never in "latency"). A zero-draw,
  // many-enter row is the ledger proving a phase is deterministic.
  expect_ledger(event_live_membership(), {
                                             {"waiting", 190, 2970},
                                             {"membership", 234, 234},
                                             {"churn", 42, 21},
                                             {"workload", 42, 42},
                                             {"partner-draw", 2780, 2780},
                                             {"latency", 0, 5132},
                                         });
}

TEST(DrawLedger, CycleTimeVaryingGolden) {
  // 96 nodes × 12 cycles: one jitter draw per node per cycle in the
  // per-cycle "workload" re-sampling scope (entered once per cycle), plus
  // the usual per-activation partner resolution. The decay/window dynamics
  // themselves draw nothing — deterministic kernels.
  expect_ledger(time_varying_monitoring(EngineKind::kCycle),
                {
                    {"workload", 1152, 12},
                    {"partner-draw", 1152, 12},
                });
}

TEST(DrawLedger, EventTimeVaryingGolden) {
  // The same configuration on the event engine: workload evolution fires on
  // every tick of the integer-time grid (t = 0..12, hence 13 enters) and is
  // surrounded by the usual event path — constant waiting times only draw
  // for the initial phase desync, partners per activation.
  expect_ledger(time_varying_monitoring(EngineKind::kEvent),
                {
                    {"waiting", 96, 1248},
                    {"workload", 1248, 13},
                    {"partner-draw", 1152, 1152},
                });
}

TEST(DrawLedger, LedgerIsSeedDeterministic) {
  // Same seed, same config — the ledger must replay byte-for-byte (scope
  // order included: it is first-entry order, no hashing anywhere).
  const std::vector<RngDrawRecord> first = cycle_churn_adversary().draw_ledger();
  const std::vector<RngDrawRecord> second =
      cycle_churn_adversary().draw_ledger();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].scope, second[i].scope);
    EXPECT_EQ(first[i].draws, second[i].draws);
    EXPECT_EQ(first[i].enters, second[i].enters);
  }
}

#endif  // EPIAGG_RNG_AUDIT

}  // namespace
}  // namespace epiagg
