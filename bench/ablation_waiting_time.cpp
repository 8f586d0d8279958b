// Ablation Ext-5: GETWAITINGTIME policies on the event-driven engine.
//
// The theoretical §3.3.2 notes that a node waiting an exponentially
// distributed interval realizes GETPAIR_RAND-like dynamics, while the
// constant-Δt practical protocol realizes GETPAIR_SEQ. This bench runs both
// on the asynchronous engine (no global cycles at all) and, additionally,
// sweeps message latency to show when the zero-communication-time assumption
// starts to matter. The independent runs of every row are fanned across
// cores by SweepRunner (one forked RNG stream per run; byte-identical for
// any thread count). The shape checks at the end of main() make a wrong table
// exit non-zero.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/theory.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace epiagg;

double measured_factor(WaitingTime waiting, std::shared_ptr<const LatencyModel> latency,
                       NodeId n, int runs, double horizon, std::size_t threads,
                       std::uint64_t seed, std::size_t churn_rate = 0) {
  SweepRunner sweep(SweepSpec{static_cast<std::size_t>(runs), threads, seed});
  const auto per_run = sweep.run([&](std::size_t, Rng& rng) {
    SimulationBuilder builder;
    builder.nodes(n)
        .engine(EngineKind::kEvent)
        .waiting(waiting)
        .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
        .seed(rng.next_u64());
    if (latency != nullptr) builder.latency(latency);
    // Churn exercises the non-atomic exchange path: crashes strike between
    // a push and its reply (the default 30-cycle epoch exceeds the horizon,
    // so no restart pollutes the factor).
    if (churn_rate > 0)
      builder.failures(FailureSpec::with_churn(
          std::make_shared<ConstantFluctuation>(churn_rate)));
    Simulation sim = builder.build();
    sim.run_time(horizon);
    const auto& samples = sim.samples();
    std::vector<double> factors;
    for (std::size_t i = 1; i + 2 < samples.size(); ++i)  // skip noisy tail
      factors.push_back(samples[i].variance / samples[i - 1].variance);
    return factors;
  });
  RunningStats factors;
  for (const auto& run_factors : per_run)
    for (const double f : run_factors) factors.add(f);
  return factors.mean();
}

}  // namespace

int main(int argc, char** argv) {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  const std::size_t threads = epiagg::benchutil::threads_flag(argc, argv);

  print_header("Ablation Ext-5", "GETWAITINGTIME policies and latency");

  const NodeId n = scaled<NodeId>(10000, 2000);
  const int runs = scaled(8, 3);
  const double horizon = 8.0;

  std::printf("N = %u, %d runs, per-unit-time variance factor\n\n", n, runs);
  std::printf("%-14s %-12s %-10s\n", "waiting", "latency", "factor");

  std::uint64_t row_seed = 0xFACE;
  std::vector<double> factors;  // one per row, in print order
  const auto track = [&](double factor) {
    factors.push_back(factor);
    return factor;
  };
  std::printf("%-14s %-12s %-10.4f\n", "constant", "0",
              track(measured_factor(WaitingTime::kConstant, nullptr, n, runs,
                                    horizon, threads, ++row_seed)));
  std::printf("%-14s %-12s %-10.4f\n", "exponential", "0",
              track(measured_factor(WaitingTime::kExponential, nullptr, n,
                                    runs, horizon, threads, ++row_seed)));
  for (const double latency : {0.01, 0.05, 0.2}) {
    std::printf("%-14s %-12.2f %-10.4f\n", "constant", latency,
                track(measured_factor(
                    WaitingTime::kConstant,
                    std::make_shared<ConstantLatency>(latency), n, runs,
                    horizon, threads, ++row_seed)));
  }
  std::printf("%-14s %-12s %-10.4f\n", "constant", "exp(0.05)",
              track(measured_factor(WaitingTime::kConstant,
                                    std::make_shared<ExponentialLatency>(0.05),
                                    n, runs, horizon, threads, ++row_seed)));

  // The formerly-rejected combination: latency AND churn — exchanges are
  // messages now, so crashes strike mid-exchange (at most one node's mass
  // per crash; see tests/sim/test_event_async.cpp).
  std::printf("%-14s %-12s %-10.4f\n", "const+churn", "0.05",
              track(measured_factor(WaitingTime::kConstant,
                                    std::make_shared<ConstantLatency>(0.05), n,
                                    runs, horizon, threads, ++row_seed,
                                    /*churn_rate=*/n / 200)));

  std::printf("\ntheory anchors: seq 1/(2*sqrt(e)) = %.4f, rand 1/e = %.4f\n",
              theory::rate_sequential(), theory::rate_random_edge());
  std::printf("expected shape: constant waiting sits at the seq rate;\n");
  std::printf("exponential waiting drifts toward the rand rate; small\n");
  std::printf("latencies (<5%% of a cycle) barely move the factor, larger\n");
  std::printf("ones slow convergence (exchanges overlap and reorder).\n");

  constexpr double kTheoryBand = 0.025;
  constexpr double kExponentialLow = 0.283, kExponentialHigh = 0.388;
  constexpr double kSmallLatencyBand = 0.01;
  const double seq = theory::rate_sequential();
  const double constant = factors[0], exponential = factors[1];
  const double latency_001 = factors[2], latency_020 = factors[4];
  epiagg::benchutil::ShapeCheck shape;
  shape.check(std::abs(constant - seq) <= kTheoryBand,
              "constant, latency 0: factor %.4f within %.3f of %.4f", constant,
              kTheoryBand, seq);
  shape.check(exponential >= kExponentialLow && exponential <= kExponentialHigh,
              "exponential, latency 0: factor %.4f in [%.3f, %.3f]", exponential,
              kExponentialLow, kExponentialHigh);
  shape.check(latency_020 > constant,
              "constant, latency 0.20: factor %.4f > latency 0's %.4f", latency_020,
              constant);
  shape.check(std::abs(latency_001 - constant) <= kSmallLatencyBand,
              "constant, latency 0.01: factor %.4f within %.2f of latency 0's %.4f",
              latency_001, kSmallLatencyBand, constant);
  return shape.finish();
}
