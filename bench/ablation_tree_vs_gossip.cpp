// Ablation Ext-4: anti-entropy gossip vs the reactive spanning-tree baseline
// (the related-work foil of the paper, refs [2] and [8]).
//
// Two comparisons:
//  (1) cost on a reliable network: rounds and messages for every node to
//      hold the average within 0.1% — the tree is exact and message-optimal,
//      gossip pays a log(1/eps) factor but needs no structure;
//  (2) robustness: accuracy and coverage when every message is lost with
//      probability 10% — the tree silently drops whole subtrees, gossip
//      degrades gracefully.
//
// Gossip runs are SimulationBuilder chains; each run's 20-out overlay is
// composed inside the builder and extracted via sim.topology() so the tree
// baseline converge-casts over the very same graph and value vector.
// The shape checks at the end of main() make a wrong table exit non-zero.
#include <cmath>
#include <cstdio>
#include <memory>

#include "baseline/tree_aggregation.hpp"
#include "bench_util.hpp"
#include "common/stats.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

namespace {

using namespace epiagg;

/// The overlay graph the builder composed for this simulation.
const Graph& overlay_of(const Simulation& sim) {
  const auto* graph_topology =
      dynamic_cast<const GraphTopology*>(sim.topology().get());
  EPIAGG_EXPECTS(graph_topology != nullptr, "expected a graph-backed overlay");
  return graph_topology->graph();
}

}  // namespace

int main() {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  print_header("Ablation Ext-4", "gossip vs spanning-tree baseline");

  const NodeId n = scaled<NodeId>(10000, 2000);
  const int runs = scaled(10, 3);
  const double epsilon = 1e-3;  // 0.1% worst-node relative accuracy
  auto rng = std::make_shared<Rng>(0xAB1A'4);

  // ---------- (1) reliable network: cost to epsilon-accuracy ----------
  RunningStats gossip_cycles, gossip_messages;
  RunningStats tree_rounds, tree_messages;
  for (int r = 0; r < runs; ++r) {
    const auto values = generate_values(ValueDistribution::kUniform, n, *rng);
    const double truth = true_average(values);

    // Gossip (SEQ over the 20-out overlay): cycles until every node is
    // within epsilon of the truth.
    Simulation sim = SimulationBuilder()
                         .nodes(n)
                         .topology(TopologySpec::random_out_view(20))
                         .workload(WorkloadSpec::from_values(values))
                         .entropy(rng)
                         .build();
    std::size_t cycles = 0;
    while (cycles < 100) {
      sim.run_cycle();
      ++cycles;
      double worst = 0.0;
      for (const double x : sim.approximations())
        worst = std::max(worst, std::abs(x - truth) / std::max(1e-300, truth));
      if (worst <= epsilon) break;
    }
    gossip_cycles.add(static_cast<double>(cycles));
    gossip_messages.add(static_cast<double>(cycles) * 2.0 * n);  // push + pull

    // Tree: one converge-cast + broadcast over the BFS tree of the SAME
    // overlay the gossip run used.
    const SpanningTree tree = build_bfs_tree(overlay_of(sim), 0);
    const TreeAggregationResult result = tree_aggregate_average(tree, values);
    tree_rounds.add(static_cast<double>(result.rounds));
    tree_messages.add(static_cast<double>(result.messages));
  }
  std::printf("(1) reliable network, N = %u, 20-out overlay, eps = %.1e\n\n", n,
              epsilon);
  std::printf("%-10s %-16s %-16s %-24s\n", "method", "rounds/cycles",
              "messages", "result location");
  std::printf("%-10s %-16.1f %-16.0f %-24s\n", "gossip", gossip_cycles.mean(),
              gossip_messages.mean(), "every node, continuously");
  std::printf("%-10s %-16.1f %-16.0f %-24s\n", "tree", tree_rounds.mean(),
              tree_messages.mean(), "root, then broadcast");

  // ---------- (2) 10% message loss ----------
  const double loss = 0.10;
  RunningStats tree_err, tree_coverage, gossip_err;
  for (int r = 0; r < runs; ++r) {
    const auto values = generate_values(ValueDistribution::kUniform, n, *rng);
    const double truth = true_average(values);

    // Asynchronous lossy gossip over a fresh 20-out overlay; the tree
    // baseline reads the same overlay and values.
    Simulation sim = SimulationBuilder()
                         .nodes(n)
                         .topology(TopologySpec::random_out_view(20))
                         .engine(EngineKind::kEvent)
                         .failures(FailureSpec::message_loss_only(loss))
                         .workload(WorkloadSpec::from_values(values))
                         .entropy(rng)
                         .build();

    const SpanningTree tree = build_bfs_tree(overlay_of(sim), 0);
    const TreeAggregationResult lossy =
        tree_aggregate_average_lossy(tree, values, loss, *rng);
    tree_err.add(std::abs(lossy.average - truth) / truth);
    tree_coverage.add(static_cast<double>(lossy.informed) / n);

    sim.run_time(15.0);
    // Mean node error vs the true average after 15 cycles of lossy gossip.
    gossip_err.add(std::abs(sim.mean() - truth) / truth +
                   std::sqrt(sim.variance()) / truth);
  }
  std::printf("\n(2) %.0f%% message loss\n\n", loss * 100.0);
  std::printf("%-10s %-18s %-20s\n", "method", "rel. error", "nodes informed");
  std::printf("%-10s %-18.4f %-20.3f\n", "tree", tree_err.mean(),
              tree_coverage.mean());
  std::printf("%-10s %-18.4f %-20s\n", "gossip", gossip_err.mean(),
              "1.000 (all, by design)");

  std::printf("\nexpected shape: on a reliable network the tree wins on raw\n");
  std::printf("message count (2(N-1) vs ~2N*log(1/eps)) but answers at one\n");
  std::printf("node after 2*depth rounds. Under 10%% loss the tree's result\n");
  std::printf("reaches under 90%% of the nodes (dropped subtrees also bias\n");
  std::printf("the root's average), while gossip informs every node by design\n");
  std::printf("and keeps the error at the per-mille level.\n");

  constexpr double kTreeCoverage = 0.9;
  constexpr double kGossipError = 0.01;
  epiagg::benchutil::ShapeCheck shape;
  shape.check(tree_messages.mean() < gossip_messages.mean(),
              "reliable: tree messages %.0f < gossip messages %.0f",
              tree_messages.mean(), gossip_messages.mean());
  shape.check(tree_coverage.mean() < kTreeCoverage,
              "10%% loss: tree informs %.3f of the nodes < %.2f", tree_coverage.mean(),
              kTreeCoverage);
  shape.check(gossip_err.mean() < kGossipError,
              "10%% loss: gossip rel. error %.4f < %.2f", gossip_err.mean(),
              kGossipError);
  return shape.finish();
}
