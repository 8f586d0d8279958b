// Tracking a time-varying aggregate: staleness/accuracy frontier of the
// streaming-aggregate library (paper §1: "the values can change over time,
// and the aggregate has to be followed").
//
// Every node's load drifts upward (kDrift workload, rate 0.01/cycle). Four
// estimator disciplines chase the moving truth:
//
//   0  static     the plain continuous average, seeded once — no staleness
//                 bound, so its error grows ~rate x elapsed cycles;
//   1  restart    the paper's §4 discipline: epoch restarts re-seed the
//                 average from the CURRENT attributes every `staleness`
//                 cycles, bounding the lag by one epoch;
//   2  windowed   a windowed mean re-snapshotting its input plane every
//                 W = staleness cycles (same bound, no epoch machinery);
//   3  decaying   an EWMA with beta = 2/staleness — continuous folding,
//                 analytic lag rate x (1-beta)/beta.
//
// Each (engine, aggregator, staleness) row runs the same drifting workload
// from one seed and reports the steady-state tracking error — the mean
// |network estimate − exact aggregate| over the final third of the run —
// next to the usual cycles/sec throughput column.
//
// The shape checks at the end of main() make a wrong frontier exit non-zero.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace epiagg;

constexpr double kDriftRate = 0.01;  // per cycle

// The disciplines, numbered as above; they also index the error table.
enum Discipline { kStaticRow, kRestartRow, kWindowedRow, kDecayingRow };

const char* discipline_name(Discipline code) {
  if (code == kStaticRow) return "static";
  if (code == kRestartRow) return "restart";
  if (code == kWindowedRow) return "windowed";
  return "decaying";
}

Simulation build_sim(Discipline discipline, EngineKind engine, NodeId n,
                     std::size_t staleness, std::uint64_t seed,
                     std::shared_ptr<TrackingErrorObserver> tracking) {
  SimulationBuilder builder;
  builder.nodes(n)
      .engine(engine)
      .workload(WorkloadSpec::time_varying(WorkloadDynamics::kDrift,
                                           ValueDistribution::kUniform,
                                           kDriftRate, /*period=*/0.0,
                                           /*jitter=*/0.002))
      .observe(std::move(tracking))
      .seed(seed);
  if (discipline == kStaticRow) {
    builder.aggregates({AggregatorSpec::average("static")});
  } else if (discipline == kRestartRow) {
    builder.aggregates({AggregatorSpec::average("restart")})
        .epoch_length(staleness);
  } else if (discipline == kWindowedRow) {
    builder.aggregates({AggregatorSpec::windowed_mean("windowed", staleness)});
  } else {
    builder.aggregates({AggregatorSpec::decaying_mean(
        "decaying", 2.0 / static_cast<double>(staleness))});
  }
  return builder.build();
}

/// Mean tracking error over the final third of the run — past the initial
/// convergence ramp, where each discipline sits at its steady-state lag.
double steady_state_error(const TrackingErrorObserver& tracking,
                          std::size_t cycles) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const TrackingError& sample : tracking.history()) {
    if (sample.cycle <= 2 * cycles / 3) continue;
    sum += sample.error;
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  // --threads accepted for CI-invocation uniformity; the sweep is serial —
  // wall-clock timing is the measurement.
  (void)epiagg::benchutil::threads_flag(argc, argv);

  print_header("Tracking error (time-varying aggregates)",
               "steady-state lag of four estimator disciplines");

  const NodeId n = scaled<NodeId>(10000, 1000);
  const std::size_t cycles = scaled<std::size_t>(240, 60);
  const std::vector<std::size_t> staleness_grid = {10, 30};

  std::printf("n=%u, %zu cycles, drift 0.010/cycle\n\n", n, cycles);
  std::printf("%-7s %-9s %-10s %-14s %-12s\n", "engine", "discip.",
              "staleness", "track-error", "cycles/s");

  double error[2][2][4];  // [engine][staleness][discipline], in loop order
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    const int e = engine == EngineKind::kCycle ? 0 : 1;
    for (std::size_t s = 0; s < staleness_grid.size(); ++s) {
      const std::size_t staleness = staleness_grid[s];
      for (const Discipline discipline :
           {kStaticRow, kRestartRow, kWindowedRow, kDecayingRow}) {
        auto tracking = std::make_shared<TrackingErrorObserver>();
        Simulation sim = build_sim(discipline, engine, n, staleness,
                                   0x7AC ^ staleness, tracking);
        const benchutil::wall_timer timer;
        if (engine == EngineKind::kCycle) {
          sim.run_cycles(cycles);
        } else {
          sim.run_time(static_cast<SimTime>(cycles));
        }
        const double wall = timer.seconds();
        const double cps = wall > 0.0 ? static_cast<double>(cycles) / wall : 0.0;
        error[e][s][discipline] = steady_state_error(*tracking, cycles);
        std::printf("%-7s %-9s %-10zu %-14.6f %-12.2f\n",
                    to_string(engine).data(), discipline_name(discipline),
                    staleness, error[e][s][discipline], cps);
      }
    }
  }

  std::printf("\nthe static row diverges (~rate x cycles of accumulated\n");
  std::printf("drift); restart and windowed are bounded by their staleness\n");
  std::printf("budget (~staleness/2 x rate) and decaying by its analytic\n");
  std::printf("lag (rate x (1-beta)/beta) — on both execution models.\n");

  constexpr double kDecayBand = 0.05;
  constexpr double kStaticFactor = 2.0;
  constexpr double kEngineBand = 0.002;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double windowed_over_restart = -kInf, static_over_bounded = kInf, engines_apart = 0.0;
  epiagg::benchutil::ShapeCheck shape;
  for (std::size_t s = 0; s < staleness_grid.size(); ++s) {
    const double beta = 2.0 / static_cast<double>(staleness_grid[s]);
    const double lag = kDriftRate * (1.0 - beta) / beta;
    double decay_off = 0.0;
    for (const auto& engine : error) {
      const double* row = engine[s];
      decay_off = std::max(decay_off, std::abs(row[kDecayingRow] / lag - 1.0));
      windowed_over_restart =
          std::max(windowed_over_restart, row[kWindowedRow] - row[kRestartRow]);
      const double bounded =
          std::max({row[kRestartRow], row[kWindowedRow], row[kDecayingRow]});
      static_over_bounded = std::min(static_over_bounded, row[kStaticRow] / bounded);
    }
    for (std::size_t d = 0; d < 4; ++d)
      engines_apart =
          std::max(engines_apart, std::abs(error[0][s][d] - error[1][s][d]));
    shape.check(decay_off <= kDecayBand,
                "decaying, staleness %zu: worst |error / %.4f - 1| over both "
                "engines = %.1f%% <= %.0f%%",
                staleness_grid[s], lag, decay_off * 100.0, kDecayBand * 100.0);
  }
  shape.check(windowed_over_restart <= 0.0,
              "windowed - restart error, largest over engines and staleness: "
              "%+.6f <= 0",
              windowed_over_restart);
  shape.check(static_over_bounded >= kStaticFactor,
              "static / worst bounded error, smallest over engines and staleness: "
              "%.2f >= %.1f",
              static_over_bounded, kStaticFactor);
  shape.check(engines_apart <= kEngineBand,
              "|cycle - event| error, largest over every row: %.6f <= %.3f",
              engines_apart, kEngineBand);
  return shape.finish();
}
