// Ablation Ext-2: effect of message loss on asynchronous push–pull
// averaging (the practical-robustness direction the paper defers to its
// companion TR).
//
// A lost push cancels the exchange; a lost reply applies an asymmetric
// update, so besides slowing convergence, loss makes the network's mean
// drift — quantified here as both the per-unit-time variance factor and the
// final mean error on a worst-case (peak) initial distribution. Every row's
// independent runs are fanned across cores by SweepRunner (one forked RNG
// stream per run; byte-identical for any thread count).
// The shape checks at the end of main() make a wrong table exit non-zero.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/theory.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) {
  using namespace epiagg;
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  const std::size_t threads = epiagg::benchutil::threads_flag(argc, argv);

  print_header("Ablation Ext-2", "message loss vs convergence and mean drift");

  const NodeId n = scaled<NodeId>(10000, 2000);
  const int runs = scaled(10, 3);
  const double horizon = 10.0;  // cycles

  std::printf("N = %u, constant waiting time, zero latency, horizon %.0f cycles,\n",
              n, horizon);
  std::printf("%d runs per row; initial values: peak (mean 1, worst case)\n\n", runs);
  std::printf("%-8s %-16s %-16s %-14s %-12s\n", "loss", "factor/cycle",
              "variance@t10", "mean-drift", "msgs lost");

  // Read off the rows for the shape checks; drop_at_20 = variance@t10 / initial.
  double loss0_factor = 0.0, previous = 0.0, drop_at_20 = 0.0;
  double smallest_rise = std::numeric_limits<double>::infinity(), worst_lost_off = 0.0;
  for (const double loss : {0.0, 0.05, 0.10, 0.20, 0.40}) {
    SweepRunner sweep(
        SweepSpec{static_cast<std::size_t>(runs), threads,
                  0x5EED + static_cast<std::uint64_t>(loss * 1000)});
    const auto rows = sweep.run([&](std::size_t, Rng& rng) {
      Simulation sim =
          SimulationBuilder()
              .nodes(n)
              .engine(EngineKind::kEvent)
              .workload(
                  WorkloadSpec::from_distribution(ValueDistribution::kPeak))
              .failures(FailureSpec::message_loss_only(loss))
              .seed(rng.next_u64())
              .build();
      sim.run_time(horizon);
      const auto& samples = sim.samples();
      RunningStats per_cycle;
      for (std::size_t i = 1; i < samples.size(); ++i)
        per_cycle.add(samples[i].variance / samples[i - 1].variance);
      return std::array<double, 5>{
          per_cycle.mean(), samples.back().variance,
          std::abs(samples.back().mean - 1.0),
          static_cast<double>(sim.messages_lost()) /
              static_cast<double>(sim.messages_sent()),
          samples.front().variance};
    });
    RunningStats factor, final_variance, drift, lost, initial_variance;
    for (const auto& row : rows) {
      factor.add(row[0]);
      final_variance.add(row[1]);
      drift.add(row[2]);
      lost.add(row[3]);
      initial_variance.add(row[4]);
    }
    std::printf("%-8.2f %-16.4f %-16.3e %-14.4f %-12.3f\n", loss, factor.mean(),
                final_variance.mean(), drift.mean(), lost.mean());
    if (loss == 0.0) loss0_factor = factor.mean();
    if (loss > 0.0) smallest_rise = std::min(smallest_rise, factor.mean() - previous);
    if (loss == 0.20) drop_at_20 = final_variance.mean() / initial_variance.mean();
    previous = factor.mean();
    worst_lost_off = std::max(worst_lost_off, std::abs(lost.mean() - loss));
  }

  std::printf("\ntheory anchor at loss=0: seq rate 1/(2*sqrt(e)) = %.4f\n",
              theory::rate_sequential());
  std::printf("expected shape: factor rises (slower convergence) roughly\n");
  std::printf("linearly in loss; variance still contracts by orders of\n");
  std::printf("magnitude at 20%% loss — gossip degrades gracefully instead\n");
  std::printf("of failing outright. Any loss makes the mean drift, by an\n");
  std::printf("amount that hinges on which exchanges carried the peak's\n");
  std::printf("mass, so the drift column is not monotone in loss.\n");

  constexpr double kTheoryBand = 0.025;
  constexpr double kVarianceDrop = 0.01;
  constexpr double kLostBand = 0.01;
  epiagg::benchutil::ShapeCheck shape;
  shape.check(smallest_rise > 0.0,
              "factor strictly rises with loss: smallest rise %+.4f > 0",
              smallest_rise);
  shape.check(std::abs(loss0_factor - theory::rate_sequential()) <= kTheoryBand,
              "loss 0: factor %.4f within %.3f of %.4f", loss0_factor, kTheoryBand,
              theory::rate_sequential());
  shape.check(drop_at_20 <= kVarianceDrop,
              "loss 0.20: variance@t10 / initial = %.2e <= %.2f", drop_at_20,
              kVarianceDrop);
  shape.check(worst_lost_off <= kLostBand,
              "every row: worst |msgs lost - loss| = %.3f <= %.2f", worst_lost_off,
              kLostBand);
  return shape.finish();
}
