// Regenerates the distributional claims behind the paper's §3.3 equations
// (8), (9) and (11): the empirical pmf of φ for every GETPAIR strategy
// against its analytic reference — degenerate at 2 for PM, Poisson(2) for
// RAND, 1 + Poisson(1) for SEQ and PMRAND — plus the plug-in convergence
// factor E(2^-φ) computed from the MEASURED distribution.
//
// Each strategy is one SimulationBuilder chain with a PhiRecorder observer
// counting participations on the run's actual exchanges. The shape checks at
// the end of main() make a wrong table exit non-zero.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/theory.hpp"
#include "sim/simulation.hpp"

int main() {
  using namespace epiagg;
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  print_header("Table (φ distributions, §3.3 eqs. 8/9/11)",
               "empirical vs analytic participation counts");

  const NodeId n = scaled<NodeId>(100000, 10000);
  const std::size_t cycles = scaled<std::size_t>(50, 10);
  auto rng = std::make_shared<Rng>(0x0F1);

  std::printf("N = %u, %zu cycles of samples per strategy\n\n", n, cycles);
  struct Fit {
    PairStrategy strategy;
    double tv, factor_off;  ///< factor_off = |plug-in E(2^-φ) − analytic|
  };
  std::vector<Fit> fits;  // checked after the tables

  for (const PairStrategy strategy :
       {PairStrategy::kPerfectMatching, PairStrategy::kRandomEdge,
        PairStrategy::kSequential, PairStrategy::kPmRand}) {
    auto phi_recorder = std::make_shared<PhiRecorder>();
    Simulation sim =
        SimulationBuilder()
            .nodes(n)
            .pairs(strategy)
            .workload(
                WorkloadSpec::from_distribution(ValueDistribution::kNormal))
            .observe(phi_recorder)
            .entropy(rng)
            .build();
    sim.run_cycles(cycles);
    const PhiDistribution d = phi_recorder->distribution();
    const auto reference = reference_pmf(strategy, std::max<std::size_t>(d.pmf.size(), 12));

    std::printf("getPair_%s: mean(φ) = %.4f, var(φ) = %.4f, min = %u, max = %u\n",
                std::string(to_string(strategy)).c_str(), d.mean, d.variance,
                d.min, d.max);
    std::printf("  %3s  %-12s %-12s\n", "φ", "empirical", "analytic");
    for (std::size_t j = 0; j <= 7; ++j) {
      const double emp = j < d.pmf.size() ? d.pmf[j] : 0.0;
      const double ref = j < reference.size() ? reference[j] : 0.0;
      std::printf("  %3zu  %-12.5f %-12.5f\n", j, emp, ref);
    }
    const double tv = total_variation(d.pmf, reference);
    const double factor = convergence_factor(d);
    const double analytic = theory::expected_two_pow_neg_phi(reference);
    std::printf("  total variation distance: %.5f\n", tv);
    std::printf("  E(2^-φ) empirical: %.5f   analytic: %.5f\n\n", factor, analytic);
    fits.push_back({strategy, tv, std::abs(factor - analytic)});
  }

  std::printf("theory anchors: 1/4 = 0.25, 1/e = %.5f, 1/(2*sqrt(e)) = %.5f\n",
              theory::rate_random_edge(), theory::rate_sequential());
  std::printf("expected shape: TV distance < 1e-2 for every strategy; the\n");
  std::printf("plug-in factors lie within 0.002 of the closed forms.\n");

  constexpr double kTvBand = 0.01;
  constexpr double kFactorBand = 0.002;
  epiagg::benchutil::ShapeCheck shape;
  for (const Fit& fit : fits) {
    const std::string name(to_string(fit.strategy));
    shape.check(fit.tv < kTvBand, "getPair_%s: total variation %.5f < %.2f",
                name.c_str(), fit.tv, kTvBand);
    shape.check(fit.factor_off < kFactorBand,
                "getPair_%s: |E(2^-φ) - analytic| = %.5f < %.3f", name.c_str(),
                fit.factor_off, kFactorBand);
  }
  return shape.finish();
}
