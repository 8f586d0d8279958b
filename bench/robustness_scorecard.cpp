// Robustness scorecard: {protocol variant × adversary model × mitigation}.
//
// The paper's robustness story (§5) covers benign failures — crashes and
// message loss. This bench asks the adversarial question: how far can a
// small fraction of actively misbehaving nodes push each protocol variant's
// estimate, and how much of that damage a robust combine policy buys back.
//
// The matrix:
//   protocols   push–pull averaging (live Newscast co-run), push-sum
//               (complete topology), size estimation (§4 counting)
//   adversaries none, value-lie (5% report a constant lie), overlay-poison
//               (5% flood victims' views with their own id), partition
//               (the network bisects for 10 cycles, then heals)
//   mitigation  plain pairwise averaging vs median-of-k robust combine
//
// Each cell reports the relative estimate error of the HONEST population at
// the end of the run (AttackImpactObserver for adversarial runs; the final
// mean against the known truth for benign ones) plus, for poisoning, the
// overlay capture ratio — the fraction of view arcs pointing at attackers.
// Cells a combination cannot express (poisoning needs a live overlay;
// robust combine replaces the push–pull step only) print "n/a".
//
// The checks, enforced at exit: median-of-k must reduce the value-lie
// estimate error versus plain pairwise averaging, and in both push–pull rows
// poisoning must capture part of the overlay while the healed partition
// re-converges.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "adversary/adversary.hpp"
#include "bench_util.hpp"
#include "common/data_export.hpp"
#include "sim/observers.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace epiagg;

/// One scorecard cell. error < 0 means the combination is not applicable.
struct Cell {
  double error = -1.0;
  double capture = 0.0;
};

void print_cell(const Cell& cell) {
  if (cell.error < 0.0) {
    std::printf(" %-12s", "n/a");
  } else if (cell.capture > 0.0) {
    std::printf(" %-6.3f(c%.2f)", cell.error, cell.capture);
  } else {
    std::printf(" %-12.4f", cell.error);
  }
}

}  // namespace

int main() {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  print_header("Robustness scorecard",
               "protocol × adversary × mitigation estimate error");

  const std::size_t n = scaled<std::size_t>(1500, 250);
  const std::size_t cycles = 30;
  const std::size_t epoch_len = 20;
  const std::size_t epochs = 3;
  const double lie = 1000.0;
  const double fraction = 0.05;

  // Alternating 0/100 attributes: truth 50, and the odd/even partition
  // islands converge to 0 and 100 respectively — the bisection hurts until
  // it heals, so the partition column measures recovery, not luck.
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = (i % 2 == 0) ? 0.0 : 100.0;
  const double truth = 50.0;

  std::printf("N = %zu, %zu cycles (%zu×%zu for size estimation), "
              "%.0f%% adversarial nodes, lie = %.0f\n\n",
              n, cycles, epochs, epoch_len, fraction * 100.0, lie);

  struct AdvCase {
    const char* name;
    AdversarySpec spec;
  };
  const AdvCase adversaries[] = {
      {"none", AdversarySpec::none()},
      {"value-lie", AdversarySpec::constant_lie(fraction, lie)},
      {"overlay-poison", AdversarySpec::overlay_poison(fraction, 4, 4)},
      {"partition", AdversarySpec::partition(5, 10)},
  };
  struct MitCase {
    const char* name;
    MitigationSpec spec;
  };
  const MitCase mitigations[] = {
      {"plain", MitigationSpec::none()},
      {"median-of-k", MitigationSpec::median_of_k(5)},
  };

  // --- push–pull averaging over a live Newscast overlay (all four
  //     adversaries apply; the only variant robust combine plugs into) ---
  auto run_push_pull = [&](const AdversarySpec& adv,
                           const MitigationSpec& mit) -> Cell {
    auto impact = std::make_shared<AttackImpactObserver>();
    const bool instrumented = adv.enabled() || mit.enabled();
    SimulationBuilder builder;
    builder.membership(MembershipSpec::newscast(20, 10))
        .workload(WorkloadSpec::from_values(values))
        .seed(0x5C0'1);
    if (adv.enabled()) builder.adversary(adv);
    if (mit.enabled()) builder.mitigation(mit);
    if (instrumented) builder.observe(impact);
    Simulation sim = builder.build();
    sim.run_cycles(cycles);
    Cell cell;
    if (instrumented) {
      const AttackImpact& last = impact->history().back();
      cell.error = last.estimate_error;
      cell.capture = last.capture_ratio;
    } else {
      cell.error = std::abs(sim.mean() - truth) / truth;
    }
    return cell;
  };

  // --- push-sum over the complete topology (no live overlay: poisoning
  //     does not apply; push-sum has no pairwise step to replace) ---
  auto run_push_sum = [&](const AdversarySpec& adv) -> Cell {
    if (adv.kind == AdversarySpec::Kind::kOverlayPoison) return Cell{};
    auto impact = std::make_shared<AttackImpactObserver>();
    SimulationBuilder builder;
    builder.protocol(ProtocolVariant::kPushSum)
        .workload(WorkloadSpec::from_values(values))
        .seed(0x5C0'2);
    if (adv.enabled()) builder.adversary(adv).observe(impact);
    Simulation sim = builder.build();
    sim.run_cycles(cycles);
    Cell cell;
    if (adv.enabled()) {
      cell.error = impact->history().back().estimate_error;
    } else {
      cell.error = std::abs(sim.mean() - truth) / truth;
    }
    return cell;
  };

  // --- §4 size estimation (epochs; the poison row rides the cycle
  //     engine's live membership co-run) ---
  auto run_size_estimation = [&](const AdversarySpec& adv) -> Cell {
    SimulationBuilder builder;
    builder.protocol(ProtocolVariant::kSizeEstimation)
        .nodes(n)
        .epoch_length(epoch_len)
        .seed(0x5C0'3);
    if (adv.kind == AdversarySpec::Kind::kOverlayPoison)
      builder.membership(MembershipSpec::newscast(20, 10));
    if (adv.enabled()) builder.adversary(adv);
    Simulation sim = builder.build();
    sim.run_cycles(epoch_len * epochs);
    Cell cell;
    for (auto it = sim.epochs().rbegin(); it != sim.epochs().rend(); ++it) {
      if (it->reporting > 0) {
        cell.error = std::abs(it->est_mean - it->truth) / it->truth;
        break;
      }
    }
    return cell;
  };

  DataTable table({"protocol", "adversary", "mitigation", "estimate_error",
                   "capture_ratio"});
  double lie_plain = -1.0, lie_mitigated = -1.0;
  Cell poisoned[2], partitioned[2];  // push–pull, per mitigation

  std::printf("%-22s %-13s", "row", "mitigation");
  for (const AdvCase& adv : adversaries) std::printf(" %-12s", adv.name);
  std::printf("\n");

  const char* protocols[] = {"push-pull", "push-sum", "size-estimation"};
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t m = 0; m < 2; ++m) {
      if (p > 0 && m > 0) continue;  // robust combine is push–pull-only
      std::printf("%-22s %-13s", protocols[p], mitigations[m].name);
      for (std::size_t a = 0; a < 4; ++a) {
        Cell cell;
        if (p == 0) {
          cell = run_push_pull(adversaries[a].spec, mitigations[m].spec);
        } else if (p == 1) {
          cell = run_push_sum(adversaries[a].spec);
        } else {
          cell = run_size_estimation(adversaries[a].spec);
        }
        print_cell(cell);
        if (cell.error >= 0.0) {
          table.add_row({static_cast<double>(p), static_cast<double>(a),
                         static_cast<double>(m), cell.error, cell.capture});
        }
        if (p == 0 && a == 1) {
          (m == 0 ? lie_plain : lie_mitigated) = cell.error;
        }
        if (p == 0 && a == 2) poisoned[m] = cell;
        if (p == 0 && a == 3) partitioned[m] = cell;
      }
      std::printf("\n");
    }
  }

  export_table(table, "robustness_scorecard");

  std::printf("\nexpected shape: value-lie wrecks plain push-pull (error of\n");
  std::printf("order the lie's pull) while median-of-k holds the honest\n");
  std::printf("estimate near the truth; overlay poisoning shows a nonzero\n");
  std::printf("capture ratio; the partition column stays small because the\n");
  std::printf("network heals with %zu cycles left to re-converge.\n",
              cycles - 15);

  constexpr double kPartitionBand = 0.02;
  epiagg::benchutil::ShapeCheck shape;
  shape.check(lie_mitigated >= 0.0 && lie_plain >= 0.0 && lie_mitigated < lie_plain,
              "push-pull value-lie: median-of-k error %.4f < plain %.4f (%.1fx cut)",
              lie_mitigated, lie_plain,
              lie_mitigated > 0.0 ? lie_plain / lie_mitigated : 0.0);
  for (std::size_t m = 0; m < 2; ++m) {
    shape.check(poisoned[m].capture > 0.0,
                "push-pull %s, overlay-poison: capture ratio %.2f > 0",
                mitigations[m].name, poisoned[m].capture);
    shape.check(partitioned[m].error >= 0.0 && partitioned[m].error <= kPartitionBand,
                "push-pull %s, partition: error %.4f <= %.2f", mitigations[m].name,
                partitioned[m].error, kPartitionBand);
  }
  return shape.finish();
}
