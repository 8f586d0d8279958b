// Regenerates Figure 3(a) of the paper: the average variance reduction after
// ONE execution of AVG (σ²₁/σ²₀) as a function of network size, for
// getPair_rand and getPair_seq on the complete topology and on a random
// topology with a fixed view size of 20. Values are averages over 50
// independent runs (as in the paper); dotted theory lines are printed for
// comparison.
//
// Every cell is one SweepRunner fan-out of independent SimulationBuilder
// chains: each run owns a forked RNG stream, so the regenerated numbers are
// byte-identical for any --threads value (0 = hardware_concurrency).
// The shape checks at the end of main() make a wrong figure exit non-zero.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/data_export.hpp"
#include "common/stats.hpp"
#include "core/theory.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace epiagg;

double cell(PairStrategy strategy, bool complete_topology, NodeId n, int runs,
            std::size_t threads, std::uint64_t seed) {
  SweepRunner sweep(SweepSpec{static_cast<std::size_t>(runs), threads, seed});
  const auto factors = sweep.run([&](std::size_t, Rng& rng) {
    Simulation sim =
        SimulationBuilder()
            .nodes(n)
            .topology(complete_topology ? TopologySpec::complete()
                                        : TopologySpec::random_out_view(20))
            .pairs(strategy)
            .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
            .seed(rng.next_u64())
            .build();
    const double before = sim.variance();
    sim.run_cycle();
    return sim.variance() / before;
  });
  RunningStats factor;
  for (const double f : factors) factor.add(f);
  return factor.mean();
}

}  // namespace

int main(int argc, char** argv) {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  const std::size_t threads = epiagg::benchutil::threads_flag(argc, argv);

  print_header("Figure 3(a)",
               "variance reduction after one AVG execution vs network size");

  const int runs = scaled(50, 10);
  const std::vector<NodeId> sizes =
      epiagg::benchutil::quick_mode()
          ? std::vector<NodeId>{100, 316, 1000, 3162, 10000}
          : std::vector<NodeId>{100, 316, 1000, 3162, 10000, 31623, 100000};

  std::printf("runs per cell: %d, values ~ N(0,1) i.i.d.\n\n", runs);
  std::printf("%9s  %-14s %-14s %-14s %-14s\n", "N", "rand,complete",
              "rand,20-out", "seq,complete", "seq,20-out");

  constexpr NodeId kTheoryFromN = 1000;  // smaller N sit further off, as in the paper
  constexpr double kTheoryBand = 0.02;
  const double rand_theory = epiagg::theory::rate_random_edge();
  const double seq_theory = epiagg::theory::rate_sequential();
  double rand_off = 0.0, seq_off = 0.0, rand_over_seq = 1.0;

  std::uint64_t cell_seed = 0xF16'3A;
  DataTable data({"n", "rand_complete", "rand_20out", "seq_complete",
                  "seq_20out", "theory_rand", "theory_seq"});
  for (const NodeId n : sizes) {
    const double rand_complete =
        cell(PairStrategy::kRandomEdge, true, n, runs, threads, ++cell_seed);
    const double rand_sparse =
        cell(PairStrategy::kRandomEdge, false, n, runs, threads, ++cell_seed);
    const double seq_complete =
        cell(PairStrategy::kSequential, true, n, runs, threads, ++cell_seed);
    const double seq_sparse =
        cell(PairStrategy::kSequential, false, n, runs, threads, ++cell_seed);
    std::printf("%9u  %-14.4f %-14.4f %-14.4f %-14.4f\n", n, rand_complete,
                rand_sparse, seq_complete, seq_sparse);
    data.add_row({static_cast<double>(n), rand_complete, rand_sparse,
                  seq_complete, seq_sparse, epiagg::theory::rate_random_edge(),
                  epiagg::theory::rate_sequential()});
    if (n >= kTheoryFromN) {
      rand_off = std::max({rand_off, std::abs(rand_complete - rand_theory),
                           std::abs(rand_sparse - rand_theory)});
      seq_off = std::max({seq_off, std::abs(seq_complete - seq_theory),
                          std::abs(seq_sparse - seq_theory)});
    }
    rand_over_seq = std::min(rand_over_seq, std::min(rand_complete, rand_sparse) -
                                                std::max(seq_complete, seq_sparse));
  }
  export_table(data, "fig3a_variance_reduction");

  std::printf("\ntheory (dotted lines in the paper):\n");
  std::printf("  getPair_rand: 1/e      = %.4f\n", epiagg::theory::rate_random_edge());
  std::printf("  getPair_seq : 1/(2√e)  = %.4f\n", epiagg::theory::rate_sequential());
  std::printf("expected shape: curves flat in N; rand near 1/e; seq at or\n");
  std::printf("slightly below 1/(2√e); 20-out within noise of complete.\n");

  epiagg::benchutil::ShapeCheck shape;
  shape.check(rand_off <= kTheoryBand,
              "rand cells, N >= %u: worst |factor - %.4f| = %.4f <= %.2f", kTheoryFromN,
              rand_theory, rand_off, kTheoryBand);
  shape.check(seq_off <= kTheoryBand,
              "seq cells, N >= %u: worst |factor - %.4f| = %.4f <= %.2f", kTheoryFromN,
              seq_theory, seq_off, kTheoryBand);
  shape.check(rand_over_seq > 0.0,
              "every row: smallest rand cell - largest seq cell = %.4f > 0",
              rand_over_seq);
  return shape.finish();
}
