// Regenerates Figure 3(b) of the paper: the per-cycle variance reduction
// factor σ²ᵢ/σ²ᵢ₋₁ for cycles 1..30 at N = 100 000, for getPair_rand and
// getPair_seq on the complete and 20-out random topologies, averaged over 50
// runs.
//
// Every curve is one SweepRunner fan-out of independent SimulationBuilder
// chains (one forked RNG stream per run), so the regenerated numbers are
// byte-identical for any --threads value (0 = hardware_concurrency).
//
// Expected shape (paper): complete-topology curves flat at the theory rates;
// the random-topology curves drift slightly upward over cycles (correlation
// accumulation), with seq less sensitive than rand. The shape checks at the
// end of main() make a wrong figure exit non-zero.
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

struct Curve {
  const char* name;
  PairStrategy strategy;
  bool complete;
  std::vector<RunningStats> per_cycle;
  RunningStats column{};  ///< the per-cycle means, over every cycle
};

}  // namespace

int main(int argc, char** argv) {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  const std::size_t threads = epiagg::benchutil::threads_flag(argc, argv);

  print_header("Figure 3(b)",
               "per-cycle variance reduction while iterating AVG");

  const NodeId n = scaled<NodeId>(100000, 10000);
  const int runs = scaled(50, 8);
  const int cycles = 30;

  std::printf("N = %u, cycles = %d, runs = %d\n\n", n, cycles, runs);

  std::vector<Curve> curves{
      {"rand,complete", PairStrategy::kRandomEdge, true, {}},
      {"rand,20-out", PairStrategy::kRandomEdge, false, {}},
      {"seq,complete", PairStrategy::kSequential, true, {}},
      {"seq,20-out", PairStrategy::kSequential, false, {}},
  };
  for (auto& curve : curves) curve.per_cycle.resize(cycles);

  std::uint64_t curve_seed = 0xF16'3B;
  for (auto& curve : curves) {
    SweepRunner sweep(
        SweepSpec{static_cast<std::size_t>(runs), threads, ++curve_seed});
    const auto factor_traces = sweep.run([&](std::size_t, Rng& rng) {
      Simulation sim =
          SimulationBuilder()
              .nodes(n)
              .topology(curve.complete ? TopologySpec::complete()
                                       : TopologySpec::random_out_view(20))
              .pairs(curve.strategy)
              .workload(
                  WorkloadSpec::from_distribution(ValueDistribution::kNormal))
              .seed(rng.next_u64())
              .build();
      std::vector<double> factors(cycles);
      double previous = sim.variance();
      for (int c = 0; c < cycles; ++c) {
        sim.run_cycle();
        const double current = sim.variance();
        factors[c] = previous > 0.0 ? current / previous : 0.0;
        previous = current;
      }
      return factors;
    });
    for (const auto& factors : factor_traces)
      for (int c = 0; c < cycles; ++c) curve.per_cycle[c].add(factors[c]);
  }

  std::printf("%5s  %-14s %-14s %-14s %-14s\n", "cycle", curves[0].name,
              curves[1].name, curves[2].name, curves[3].name);
  DataTable data({"cycle", "rand_complete", "rand_20out", "seq_complete",
                  "seq_20out"});
  for (int c = 0; c < cycles; ++c) {
    for (auto& curve : curves) curve.column.add(curve.per_cycle[c].mean());
    std::printf("%5d  %-14.4f %-14.4f %-14.4f %-14.4f\n", c + 1,
                curves[0].per_cycle[c].mean(), curves[1].per_cycle[c].mean(),
                curves[2].per_cycle[c].mean(), curves[3].per_cycle[c].mean());
    data.add_row({static_cast<double>(c + 1), curves[0].per_cycle[c].mean(),
                  curves[1].per_cycle[c].mean(), curves[2].per_cycle[c].mean(),
                  curves[3].per_cycle[c].mean()});
  }
  export_table(data, "fig3b_cycle_reduction");

  std::printf("\ntheory: rand 1/e = %.4f, seq 1/(2*sqrt(e)) = %.4f\n",
              epiagg::theory::rate_random_edge(),
              epiagg::theory::rate_sequential());
  std::printf("expected shape: complete-topology columns flat at theory; the\n");
  std::printf("20-out columns drift mildly upward across cycles, seq less\n");
  std::printf("than rand (late cycles are noisy: variance is ~1e-13 by then).\n");

  constexpr double kTheoryBand = 0.015;
  epiagg::benchutil::ShapeCheck shape;
  for (std::size_t c = 0; c < curves.size(); c += 2) {  // {complete, 20-out} pairs
    const Curve& complete = curves[c];
    const Curve& sparse = curves[c + 1];
    const double theory = c == 0 ? epiagg::theory::rate_random_edge()
                                 : epiagg::theory::rate_sequential();
    const double mean = complete.column.mean();
    shape.check(std::abs(mean - theory) <= kTheoryBand,
                "%s: column mean %.4f within %.3f of %.4f", complete.name, mean,
                kTheoryBand, theory);
    shape.check(sparse.column.mean() >= mean, "%s: column mean %.4f >= %s's %.4f",
                sparse.name, sparse.column.mean(), complete.name, mean);
  }
  return shape.finish();
}
