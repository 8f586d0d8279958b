// Ablation Ext-7: which membership substrate makes the paper's random-
// overlay assumption true?
//
// The analysis assumes each node can sample an approximately uniform random
// peer (refs [5, 7, 9]). This bench compares the two implemented peer-
// sampling protocols — Newscast (freshness merge) and Cyclon (shuffling) —
// through the builder's membership axis, in BOTH modes: the overlay warmed
// up and frozen into a fixed topology (MembershipSpec::snapshot, the
// historical measurement) versus the same overlay CO-RUNNING with
// aggregation, its views re-randomized every cycle (the live default — the
// paper's §4 regime). We report overlay quality (in-degree balance,
// clustering, connectivity) of the warmed snapshot and the variance-
// reduction factor averaging achieves over each, against the
// complete-topology uniform ideal.
//
// Every row is the same SimulationBuilder chain with only the
// MembershipSpec/TopologySpec swapped. The live column quantifies how much
// of the snapshot artifact (Newscast's frozen-view clustering) the evolving
// overlay buys back. The shape checks at the end of main() make a wrong
// table exit non-zero.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/theory.hpp"
#include "graph/properties.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace epiagg;

struct OverlayQuality {
  double mean_in = 0.0;
  double max_in = 0.0;
  double clustering = 0.0;
  bool connected = false;
};

OverlayQuality quality(const Graph& overlay) {
  OverlayQuality q;
  std::vector<int> in_degree(overlay.num_nodes(), 0);
  for (NodeId v = 0; v < overlay.num_nodes(); ++v)
    for (const NodeId u : overlay.neighbors(v)) ++in_degree[u];
  long total = 0;
  int max_in = 0;
  for (const int d : in_degree) {
    total += d;
    max_in = std::max(max_in, d);
  }
  q.mean_in = static_cast<double>(total) / overlay.num_nodes();
  q.max_in = max_in;
  q.clustering = clustering_coefficient(overlay);
  q.connected = is_connected(overlay);
  return q;
}

/// Geometric-mean per-cycle variance factor of a built simulation.
double averaging_factor(Simulation& sim, int cycles) {
  const double before = sim.variance();
  sim.run_cycles(cycles);
  return std::pow(sim.variance() / before, 1.0 / cycles);
}

}  // namespace

int main() {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  print_header("Ablation Ext-7", "membership substrates vs the uniform ideal");

  const std::size_t n = scaled<std::size_t>(5000, 1000);
  const std::size_t warmup = 20;
  const int cycles = 10;

  std::printf("N = %zu, view size 20, %zu warm-up cycles, %d averaging cycles\n\n",
              n, warmup, cycles);
  std::printf("%-10s %-9s %-9s %-11s %-10s %-10s %-10s\n", "substrate",
              "mean-in", "max-in", "clustering", "connected", "snapshot",
              "live");

  // --- uniform ideal: the complete topology, SEQ sweep ---
  double uniform_factor = 0.0;
  {
    Simulation sim =
        SimulationBuilder()
            .nodes(n)
            .workload(
                WorkloadSpec::from_distribution(ValueDistribution::kNormal))
            .seed(0xAB1A'8)
            .build();
    uniform_factor = averaging_factor(sim, cycles);
    std::printf("%-10s %-9.1f %-9.0f %-11.4f %-10s %-10.4f %-10s\n", "uniform",
                20.0, 20.0, 20.0 / static_cast<double>(n), "yes", uniform_factor, "-");
  }

  // --- peer-sampled overlays: frozen snapshot vs live co-run ---
  struct Substrate {
    const char* name;
    MembershipSpec spec;  ///< live form; the snapshot row freezes it
    std::uint64_t seed;
  };
  const Substrate substrates[] = {
      {"newscast", MembershipSpec::newscast(20, warmup), 0x17},
      {"cyclon", MembershipSpec::cyclon(20, 8, warmup), 0x18},
  };
  struct Outcome {
    bool connected;
    double snapshot_factor, live_factor;
  };
  std::vector<Outcome> outcomes;
  for (const Substrate& substrate : substrates) {
    auto build = [&](MembershipSpec spec) {
      return SimulationBuilder()
          .nodes(n)
          .membership(spec)
          .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
          .seed(substrate.seed)
          .build();
    };
    Simulation snapshot = build(MembershipSpec::snapshot(substrate.spec));
    const auto* overlay =
        dynamic_cast<const GraphTopology*>(snapshot.topology().get());
    EPIAGG_EXPECTS(overlay != nullptr, "membership composes a graph overlay");
    const OverlayQuality q = quality(overlay->graph());
    const double snapshot_factor = averaging_factor(snapshot, cycles);

    Simulation live = build(substrate.spec);
    const double live_factor = averaging_factor(live, cycles);
    std::printf("%-10s %-9.1f %-9.0f %-11.4f %-10s %-10.4f %-10.4f\n",
                substrate.name, q.mean_in, q.max_in, q.clustering,
                q.connected ? "yes" : "NO", snapshot_factor, live_factor);
    outcomes.push_back({q.connected, snapshot_factor, live_factor});
  }

  std::printf("\ntheory anchor (uniform, SEQ): 1/(2*sqrt(e)) = %.4f\n",
              theory::rate_sequential());
  std::printf("expected shape: both substrates keep the overlay connected.\n");
  std::printf("Cyclon's snapshot stays near the random-graph ideal (low\n");
  std::printf("clustering, tight in-degree spread, factor within a few\n");
  std::printf("percent of uniform); Newscast's freshness bias clusters its\n");
  std::printf("frozen views, costing a visibly slower snapshot factor.\n");
  std::printf("The live co-run re-randomizes the views every cycle and\n");
  std::printf("closes that gap: both live columns sit near the uniform\n");
  std::printf("ideal — the paper's random-overlay assumption holds for the\n");
  std::printf("evolving overlay, not its frozen snapshot.\n");

  constexpr double kLiveBand = 0.15;
  epiagg::benchutil::ShapeCheck shape;
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    const Outcome& o = outcomes[s];
    shape.check(o.connected, "%s: warmed overlay connected (%s)", substrates[s].name,
                o.connected ? "yes" : "NO");
    shape.check(std::abs(o.live_factor / uniform_factor - 1.0) <= kLiveBand,
                "%s: live/uniform factor %.3f within %.2f of 1", substrates[s].name,
                o.live_factor / uniform_factor, kLiveBand);
  }
  const Outcome& newscast = outcomes[0];
  shape.check(newscast.live_factor < newscast.snapshot_factor,
              "newscast: live factor %.4f < snapshot factor %.4f",
              newscast.live_factor, newscast.snapshot_factor);
  return shape.finish();
}
