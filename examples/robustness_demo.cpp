// Robustness demo: the protocol in the least idealized regime the simulator
// supports — fully asynchronous nodes (no global cycles), exponential
// message latencies, message loss, plus a mid-run crash burst and a join
// wave — the event-driven engine through the SimulationBuilder front door,
// then the adaptive epoch protocol on top.
//
//   $ ./robustness_demo [--nodes=2000] [--loss=0.1] [--epochs=6] [--seed=1]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

int main(int argc, char** argv) {
  using namespace epiagg;

  const CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("nodes", 2000));
  const double loss = args.get_double("loss", 0.10);
  const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 6));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  for (const auto& typo : args.unconsumed()) {
    std::fprintf(stderr, "unknown flag --%s (supported: --nodes --loss --epochs --seed)\n",
                 typo.c_str());
    return 1;
  }

  Rng rng(seed);
  const auto values = generate_values(ValueDistribution::kUniform, n, rng);
  const double truth = true_average(values);

  // ---------- part 1: raw asynchronous averaging under latency + loss ----------
  std::printf("part 1: asynchronous push-pull, exponential latency (mean 0.05\n");
  std::printf("cycles), %.0f%% message loss, N = %zu\n\n", loss * 100.0, n);
  Simulation sim = SimulationBuilder()
                       .engine(EngineKind::kEvent)
                       .waiting(WaitingTime::kExponential)
                       .latency(std::make_shared<ExponentialLatency>(0.05))
                       .failures(FailureSpec::message_loss_only(loss))
                       .workload(WorkloadSpec::from_values(values))
                       .seed(seed + 1)
                       .build();
  sim.run_time(12.0);
  std::printf("%6s %-14s %-12s\n", "t", "variance", "mean");
  for (const AsyncSample& sample : sim.samples()) {
    if (static_cast<int>(sample.time) % 2 == 0)
      std::printf("%6.0f %-14.3e %-12.6f\n", sample.time, sample.variance,
                  sample.mean);
  }
  std::printf("true average %.6f; %llu/%llu messages lost\n\n", truth,
              static_cast<unsigned long long>(sim.messages_lost()),
              static_cast<unsigned long long>(sim.messages_sent()));

  // ---------- part 2: adaptive epochs with churn and drifting clocks ----------
  std::printf("part 2: adaptive epochs (30 cycles), 1%% clock drift, %.0f%%\n",
              loss * 100.0);
  std::printf("loss, join wave after epoch 1, values drift at epoch 3\n\n");
  Simulation adaptive = SimulationBuilder()
                            .engine(EngineKind::kEvent)
                            .adaptive_epochs(0.01)
                            .epoch_length(30)
                            .failures(FailureSpec::message_loss_only(loss))
                            .workload(WorkloadSpec::from_values(values))
                            .seed(seed + 2)
                            .build();

  adaptive.run_time(35.0);
  for (std::size_t j = 0; j < n / 10; ++j) adaptive.join(2.0);  // outlier wave
  adaptive.run_time(3.0 * 30.0 + 5.0);
  for (NodeId i = 0; i < n; ++i) adaptive.set_value(i, values[i] + 1.0);
  adaptive.run_time(static_cast<double>(epochs) * 30.0 + 5.0);

  // Each node reports its approximation as it completes a local epoch.
  std::vector<RunningStats> per_epoch(epochs);
  for (const AdaptiveEpochSample& sample : adaptive.adaptive_samples()) {
    if (sample.epoch < epochs) per_epoch[sample.epoch].add(sample.approximation);
  }
  std::printf("%6s %-9s %-12s %-12s %-12s\n", "epoch", "reports", "est_mean",
              "est_min", "est_max");
  for (EpochId e = 0; e < epochs; ++e) {
    const RunningStats& summary = per_epoch[e];
    if (summary.count() == 0) continue;
    std::printf("%6llu %-9zu %-12.6f %-12.6f %-12.6f\n",
                static_cast<unsigned long long>(e), summary.count(),
                summary.mean(), summary.min(), summary.max());
  }

  std::printf("\nreading the table: epoch 0-1 report the original average;\n");
  std::printf("the join wave lifts it from epoch 2; the value drift (+1.0)\n");
  std::printf("appears one epoch after it happened. Loss widens the min-max\n");
  std::printf("band but the protocol keeps tracking — no restarts required.\n");
  return 0;
}
