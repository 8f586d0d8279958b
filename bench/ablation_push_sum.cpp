// Ablation Ext-6: anti-entropy push–pull vs push-sum (Kempe et al. 2003),
// the closest contemporaneous gossip-averaging protocol.
//
// Two axes:
//  (1) per-cycle convergence factor on a reliable network — push–pull's
//      bidirectional exchange contracts roughly twice as fast per cycle, at
//      twice the messages;
//  (2) estimate bias under message loss on the worst-case (peak) workload —
//      a lost push-sum message removes (sum, weight) together, so the
//      protocol never needs a reply path, but when losses hit the stream
//      carrying the peak's mass the surviving weighted average still drifts:
//      under value-correlated loss neither protocol is unbiased.
//
// Both protocols are SimulationBuilder chains (the event engine vs
// ProtocolVariant::kPushSum) sharing each run's initial value vector.
// The shape checks at the end of main() make a wrong table exit non-zero.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/theory.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

int main() {
  using namespace epiagg;
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  print_header("Ablation Ext-6", "anti-entropy push-pull vs push-sum");

  const NodeId n = scaled<NodeId>(10000, 2000);
  const int runs = scaled(10, 3);

  // ---------- (1) convergence factor ----------
  RunningStats pushpull_factor, pushsum_factor;
  for (int r = 0; r < runs; ++r) {
    Rng rng(0xAB1A'6 + static_cast<std::uint64_t>(r));
    const auto values = generate_values(ValueDistribution::kNormal, n, rng);

    // Constant waits, zero latency = the SEQ regime.
    Simulation pushpull = SimulationBuilder()
                              .nodes(n)
                              .engine(EngineKind::kEvent)
                              .workload(WorkloadSpec::from_values(values))
                              .seed(0x11 + static_cast<std::uint64_t>(r))
                              .build();
    pushpull.run_time(8.0);
    const auto& samples = pushpull.samples();
    for (std::size_t i = 1; i < samples.size(); ++i)
      pushpull_factor.add(samples[i].variance / samples[i - 1].variance);

    Simulation pushsum = SimulationBuilder()
                             .nodes(n)
                             .protocol(ProtocolVariant::kPushSum)
                             .workload(WorkloadSpec::from_values(values))
                             .seed(0x22 + static_cast<std::uint64_t>(r))
                             .build();
    double previous = pushsum.variance();
    for (int round = 0; round < 8; ++round) {
      pushsum.run_cycle();
      const double current = pushsum.variance();
      pushsum_factor.add(current / previous);
      previous = current;
    }
  }
  std::printf("(1) reliable network, N = %u, %d runs\n\n", n, runs);
  std::printf("%-12s %-16s %-34s\n", "protocol", "factor/cycle",
              "messages per node per cycle");
  std::printf("%-12s %-16.4f %-34s\n", "push-pull", pushpull_factor.mean(),
              "2 (push + reply)");
  std::printf("%-12s %-16.4f %-34s\n", "push-sum", pushsum_factor.mean(),
              "1 (push only)");
  std::printf("theory: push-pull seq = %.4f\n\n", theory::rate_sequential());

  // ---------- (2) bias under loss ----------
  std::printf("(2) estimate accuracy after 25 cycles under loss (truth = 1.0,\n");
  std::printf("    peak initial distribution — the counting workload)\n\n");
  std::printf("%-8s %-22s %-22s\n", "loss", "push-pull |bias|", "push-sum |bias|");
  double pushpull_unbiased = 1.0, pushsum_unbiased = 1.0;  // |bias| at loss 0
  for (const double loss : {0.0, 0.1, 0.2, 0.4}) {
    RunningStats pushpull_bias, pushsum_bias;
    for (int r = 0; r < runs; ++r) {
      Rng rng(0xAB1A'7 + static_cast<std::uint64_t>(r));
      const auto values = generate_values(ValueDistribution::kPeak, n, rng);

      Simulation pushpull = SimulationBuilder()
                                .nodes(n)
                                .engine(EngineKind::kEvent)
                                .workload(WorkloadSpec::from_values(values))
                                .failures(FailureSpec::message_loss_only(loss))
                                .seed(0x33 + static_cast<std::uint64_t>(r))
                                .build();
      pushpull.run_time(25.0);
      pushpull_bias.add(std::abs(pushpull.mean() - 1.0));

      Simulation pushsum = SimulationBuilder()
                               .nodes(n)
                               .protocol(ProtocolVariant::kPushSum)
                               .workload(WorkloadSpec::from_values(values))
                               .failures(FailureSpec::message_loss_only(loss))
                               .seed(0x44 + static_cast<std::uint64_t>(r))
                               .build();
      pushsum.run_cycles(25);
      RunningStats est;
      for (const double e : pushsum.approximations()) est.add(e);
      pushsum_bias.add(std::abs(est.mean() - 1.0));
    }
    std::printf("%-8.2f %-22.4f %-22.4f\n", loss, pushpull_bias.mean(),
                pushsum_bias.mean());
    if (loss == 0.0) {
      pushpull_unbiased = pushpull_bias.mean();
      pushsum_unbiased = pushsum_bias.mean();
    }
  }

  std::printf("\nexpected shape: push-pull contracts ~2x faster per cycle (its\n");
  std::printf("exchange is bidirectional) for 2x the messages. On the peak\n");
  std::printf("workload both drift comparably under loss — the mass stream is\n");
  std::printf("value-correlated, so push-sum's paired (sum, weight) loss does\n");
  std::printf("not rescue the estimate; its practical edge is needing only\n");
  std::printf("one-way messages (no reply path to lose asymmetrically).\n");

  constexpr double kTheoryBand = 0.025;
  constexpr double kSlowdown = 1.5;
  constexpr double kBiasBand = 1e-3;
  const double pushpull = pushpull_factor.mean(), pushsum = pushsum_factor.mean();
  epiagg::benchutil::ShapeCheck shape;
  shape.check(std::abs(pushpull - theory::rate_sequential()) <= kTheoryBand,
              "push-pull factor %.4f within %.3f of %.4f", pushpull, kTheoryBand,
              theory::rate_sequential());
  shape.check(pushsum >= kSlowdown * pushpull,
              "push-sum factor / push-pull factor = %.2f >= %.1f", pushsum / pushpull,
              kSlowdown);
  shape.check(pushpull_unbiased < kBiasBand, "loss 0: push-pull |bias| %.1e < %.0e",
              pushpull_unbiased, kBiasBand);
  shape.check(pushsum_unbiased < kBiasBand, "loss 0: push-sum |bias| %.1e < %.0e",
              pushsum_unbiased, kBiasBand);
  return shape.finish();
}
