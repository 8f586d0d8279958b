// Smoke tests mirroring the example programs: every workflow the examples/
// binaries demonstrate must run through the public API without surprises.
// (The examples themselves are plain executables; these tests keep their
// code paths under ctest.)
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "aggregate/aggregate.hpp"
#include "core/avg_model.hpp"
#include "membership/newscast.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

namespace epiagg {
namespace {

TEST(ExamplesSmoke, QuickstartFlow) {
  // examples/quickstart.cpp: average 1000 uniform values with the practical
  // (SEQ) protocol and read the estimate from any node.
  Rng rng(1);
  const NodeId n = 1000;
  auto topology = std::make_shared<CompleteTopology>(n);
  auto selector = make_pair_selector(PairStrategy::kSequential, topology);
  const auto values = generate_values(ValueDistribution::kUniform, n, rng);
  const double truth = true_average(values);
  AvgModel model(values, *selector);
  model.run_cycles(30, rng);
  EXPECT_NEAR(model.values()[123], truth, 1e-6);
  EXPECT_NEAR(model.values()[0], model.values()[999], 1e-6);
}

TEST(ExamplesSmoke, SizeEstimationFlow) {
  // examples/size_estimation.cpp: epochs + leaders + churn.
  Simulation sim = SimulationBuilder()
                       .nodes(2000)
                       .protocol(ProtocolVariant::kSizeEstimation)
                       .epoch_length(30)
                       .expected_leaders(4.0)
                       .failures(FailureSpec::with_churn(
                           std::make_shared<ConstantFluctuation>(5)))
                       .seed(2)
                       .build();
  sim.run_cycles(90);
  EXPECT_EQ(sim.epochs().size(), 3u);
}

TEST(ExamplesSmoke, LoadMonitoringFlow) {
  // examples/load_monitoring.cpp: a seasonal time-varying workload chased
  // by a static average (stale) and a windowed mean (bounded error), with
  // a TrackingErrorObserver measuring both.
  const NodeId n = 300;
  const std::size_t cycles = 60;
  auto tracking = std::make_shared<TrackingErrorObserver>();
  Simulation sim =
      SimulationBuilder()
          .nodes(n)
          .pairs(PairStrategy::kSequential)
          .aggregates({AggregatorSpec::average("static-avg"),
                       AggregatorSpec::windowed_mean("avg-load", 5)})
          .workload(WorkloadSpec::time_varying(WorkloadDynamics::kSeasonal,
                                               ValueDistribution::kUniform,
                                               /*rate=*/0.25, /*period=*/30))
          .observe(tracking)
          .seed(2004)
          .build();
  sim.run_cycles(cycles);

  // One sample per instance per cycle, in plan order.
  ASSERT_EQ(tracking->history().size(), 2 * cycles);
  double static_err = 0.0;
  double window_err = 0.0;
  for (const TrackingError& sample : tracking->history()) {
    EXPECT_NEAR(sample.error, std::abs(sample.estimate - sample.truth), 1e-12);
    (sample.aggregate == 0 ? static_err : window_err) += sample.error;
  }
  static_err /= static_cast<double>(cycles);
  window_err /= static_cast<double>(cycles);
  // The static estimate is pinned to the cycle-0 snapshot (mean error about
  // the seasonal amplitude's mean |sin|); the windowed mean re-snapshots
  // every 5 cycles and tracks the swing with a fraction of the error.
  EXPECT_GT(static_err, 0.10);
  EXPECT_LT(window_err, 0.60 * static_err);
}

TEST(ExamplesSmoke, MonitoringServiceFlow) {
  // examples/monitoring_service.cpp: a drifting workload followed by a
  // static / decaying / windowed aggregate trio on BOTH engines. The
  // static estimator's steady-state error grows with the accumulated
  // drift; the other two stay bounded near their analytic lags.
  const std::size_t cycles = 45;
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    auto tracking = std::make_shared<TrackingErrorObserver>();
    Simulation sim =
        SimulationBuilder()
            .nodes(400)
            .engine(engine)
            .aggregates({AggregatorSpec::average("static-avg"),
                         AggregatorSpec::decaying_mean("ewma-load", 0.2),
                         AggregatorSpec::windowed_mean("win-load", 10)})
            .workload(WorkloadSpec::time_varying(
                WorkloadDynamics::kDrift, ValueDistribution::kUniform,
                /*rate=*/0.01, /*period=*/0.0, /*jitter=*/0.002))
            .observe(tracking)
            .seed(30)
            .build();
    if (engine == EngineKind::kCycle) {
      sim.run_cycles(cycles);
    } else {
      sim.run_time(static_cast<SimTime>(cycles));
    }

    double err[3] = {0.0, 0.0, 0.0};
    std::size_t count = 0;
    for (const TrackingError& sample : tracking->history()) {
      if (sample.cycle <= 2 * cycles / 3) continue;
      err[sample.aggregate] += sample.error;
      if (sample.aggregate == 0) ++count;
    }
    ASSERT_GT(count, 0u);
    for (double& e : err) e /= static_cast<double>(count);
    // ~rate x elapsed cycles of accumulated drift vs the analytic lags
    // (ewma: rate(1-beta)/beta = 0.04, windowed: W/2 x rate = 0.05).
    EXPECT_GT(err[0], 0.25) << to_string(engine);
    EXPECT_LT(err[1], 0.08) << to_string(engine);
    EXPECT_LT(err[2], 0.10) << to_string(engine);
  }
}

TEST(ExamplesSmoke, MembershipGossipFlow) {
  // examples/membership_gossip.cpp: averaging over a LIVE newscast overlay
  // with a mid-run crash burst; the overlay self-heals (stays connected) and
  // the survivors keep contracting the variance.
  auto health = std::make_shared<OverlayHealthObserver>();
  Simulation sim =
      SimulationBuilder()
          .nodes(500)
          .membership(MembershipSpec::newscast(20, 10))
          .failures(
              FailureSpec::with_churn(std::make_shared<CrashBurst>(10, 50)))
          .epoch_length(30)
          .workload(
              WorkloadSpec::from_distribution(ValueDistribution::kUniform))
          .observe(health)
          .seed(99)
          .build();
  sim.run_cycles(30);
  EXPECT_EQ(sim.population_size(), 450u);
  ASSERT_EQ(health->history().size(), 30u);
  for (const OverlayHealth& h : health->history()) EXPECT_TRUE(h.connected);
  ASSERT_EQ(sim.epochs().size(), 1u);
  EXPECT_LT(sim.epochs().front().variance, 1e-6);

  // The raw overlay loop underneath (the pre-builder shape of the example):
  // random_view_peer never hands out a crashed peer and reports isolation as
  // kInvalidNode.
  NewscastNetwork membership(500, NewscastConfig{20}, 5);
  for (int warmup = 0; warmup < 10; ++warmup) membership.run_cycle();
  Rng rng(6);
  std::vector<double> x = generate_values(ValueDistribution::kLinear, 500, rng);
  const double truth = true_average(x);
  for (int cycle = 0; cycle < 30; ++cycle) {
    membership.run_cycle();
    for (NodeId i = 0; i < 500; ++i) {
      const NodeId j = membership.random_view_peer(i, rng);
      if (j == kInvalidNode) continue;
      const double avg = (x[i] + x[j]) / 2.0;
      x[i] = avg;
      x[j] = avg;
    }
  }
  for (const double v : x) EXPECT_NEAR(v, truth, 1e-5);
}

TEST(ExamplesSmoke, ByzantineDemoFlow) {
  // examples/byzantine_demo.cpp: a 1% value-lying minority wrecks plain
  // push-pull averaging over a live overlay; median-of-k combine defeats it.
  auto run = [](MitigationSpec mitigation) {
    auto impact = std::make_shared<AttackImpactObserver>();
    SimulationBuilder builder;
    builder.nodes(400)
        .membership(MembershipSpec::newscast(20, 10))
        .workload(WorkloadSpec::from_distribution(ValueDistribution::kUniform))
        .adversary(AdversarySpec::constant_lie(0.01, 1000.0))
        .observe(impact)
        .seed(7);
    if (mitigation.enabled()) builder.mitigation(mitigation);
    Simulation sim = builder.build();
    sim.run_cycles(20);
    return impact->history().back().estimate_error;
  };
  const double plain = run(MitigationSpec::none());
  const double robust = run(MitigationSpec::median_of_k(5));
  // Plain averaging chases the lie (relative error far beyond the honest
  // spread); the robust combine keeps the honest estimate near the truth.
  EXPECT_GT(plain, 10.0);
  EXPECT_LT(robust, 0.5);
  EXPECT_LT(robust, plain);
}

}  // namespace
}  // namespace epiagg
