// Regenerates the paper's §3.3 in-text results table: measured vs analytic
// convergence factors E(2^-φ) for all four GETPAIR strategies, the s-vector
// (Theorem 1) emulation, and the "99.9% in ln 1000 ≈ 7 cycles" claim.
//
// Every measurement is one SimulationBuilder chain over the complete
// topology; the Theorem-1 s-vector (s_0 = a_0², quartered on every exchange)
// co-evolves on the exact pair draws of the run via the observer pipeline's
// on_exchange hook instead of a bespoke model.
// The shape checks at the end of main() make a wrong table exit non-zero.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/theory.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

namespace {

using namespace epiagg;

/// Emulates the s-vector of Theorem 1 on the exchanges of a simulation:
/// s_i = s_j = (s_i + s_j)/4 on every executed pair, starting from a_0².
/// Its mean contracts exactly by E(2^-φ) per cycle.
class SVectorEmulation final : public Observer {
public:
  explicit SVectorEmulation(std::span<const double> initial) {
    s_.reserve(initial.size());
    for (const double a : initial) s_.push_back(a * a);
  }

  void on_exchange(NodeId i, NodeId j) override {
    const double quarter = (s_[i] + s_[j]) / 4.0;
    s_[i] = quarter;
    s_[j] = quarter;
  }

  double s_mean() const { return epiagg::mean(s_); }

private:
  std::vector<double> s_;
};

struct Row {
  PairStrategy strategy;
  double analytic;
};

}  // namespace

int main() {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  print_header("Table (in-text, §3.3)",
               "measured vs analytic convergence factors");

  const NodeId n = scaled<NodeId>(10000, 2000);
  const int runs = scaled(50, 10);
  auto rng = std::make_shared<Rng>(0x7AB1E);

  constexpr double kRatioBand = 0.03;
  constexpr double kTargetRatio = 1e-3;
  double worst_ratio_off = 0.0;
  const Row rows[] = {
      {PairStrategy::kPerfectMatching, theory::kRatePerfectMatching},
      {PairStrategy::kRandomEdge, theory::rate_random_edge()},
      {PairStrategy::kSequential, theory::rate_sequential()},
      {PairStrategy::kPmRand, theory::rate_sequential()},
  };

  std::printf("N = %u, %d runs per row, one AVG cycle per measurement\n\n", n, runs);
  std::printf("%-8s %-10s %-10s %-10s %-12s %-10s\n", "getPair", "analytic",
              "measured", "95% ci", "s-vector", "ratio m/a");
  for (const Row& row : rows) {
    RunningStats factor;
    RunningStats s_factor;
    for (int r = 0; r < runs; ++r) {
      const auto values = generate_values(ValueDistribution::kNormal, n, *rng);
      auto s_vector = std::make_shared<SVectorEmulation>(values);
      Simulation sim = SimulationBuilder()
                           .nodes(n)
                           .pairs(row.strategy)
                           .workload(WorkloadSpec::from_values(values))
                           .observe(s_vector)
                           .entropy(rng)
                           .build();
      const double v_before = sim.variance();
      const double s_before = s_vector->s_mean();
      sim.run_cycle();
      factor.add(sim.variance() / v_before);
      s_factor.add(s_vector->s_mean() / s_before);
    }
    std::printf("%-8s %-10.4f %-10.4f ±%-9.4f %-12.4f %-10.3f\n",
                std::string(to_string(row.strategy)).c_str(), row.analytic,
                factor.mean(), ci_halfwidth(factor), s_factor.mean(),
                factor.mean() / row.analytic);
    worst_ratio_off =
        std::max(worst_ratio_off, std::abs(factor.mean() / row.analytic - 1.0));
  }

  // The paper's efficiency claim.
  std::printf("\nefficiency claim: 99.9%% variance reduction with getPair_rand\n");
  std::printf("  analytic cycles: ln(1000) = %.2f -> %zu cycles\n", std::log(1000.0),
              theory::cycles_to_reduce(theory::rate_random_edge(), 1e-3));
  RunningStats seven_cycle;
  for (int r = 0; r < scaled(20, 5); ++r) {
    Simulation sim =
        SimulationBuilder()
            .nodes(n)
            .pairs(PairStrategy::kRandomEdge)
            .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
            .entropy(rng)
            .build();
    const double before = sim.variance();
    sim.run_cycles(7);
    seven_cycle.add(sim.variance() / before);
  }
  std::printf("  measured after 7 cycles: sigma2_7/sigma2_0 = %.2e (target <= 1e-3)\n",
              seven_cycle.mean());

  std::printf("\nexpected shape: measured within ~2%% of analytic for pm/rand/\n");
  std::printf("pmrand; seq slightly BELOW its bound (the paper observes the\n");
  std::printf("same); s-vector column matches Theorem 1 exactly for pm.\n");

  epiagg::benchutil::ShapeCheck shape;
  shape.check(worst_ratio_off <= kRatioBand,
              "every getPair: worst |measured/analytic - 1| = %.3f <= %.2f",
              worst_ratio_off, kRatioBand);
  shape.check(seven_cycle.mean() <= kTargetRatio,
              "rand after 7 cycles: sigma2_7/sigma2_0 = %.2e <= %.0e",
              seven_cycle.mean(), kTargetRatio);
  return shape.finish();
}
