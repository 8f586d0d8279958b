// Regenerates Figure 4 of the paper: network size estimation by anti-entropy
// counting under churn.
//
// Scenario (paper §4): the network size oscillates between 90 000 and
// 110 000; on top of that 100 nodes are removed and 100 added every cycle; a
// new epoch starts every 30 cycles; converged estimates are reported at the
// end of each epoch with error bars spanning the estimates of all nodes that
// participated in the full epoch.
//
// The whole experiment is one SimulationBuilder chain with
// ProtocolVariant::kSizeEstimation; an EpochLog observer collects the
// per-epoch reports.
//
// Expected shape (paper): the estimate curve equals the actual-size curve
// translated by one epoch (new nodes do not participate in the running
// epoch, so each epoch reports the size at its start). The bench checks
// that shape and exits non-zero on a miss: every epoch that started a
// counting instance and has reporting nodes must put est_mean within
// kShapeTolerance of size@start.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "common/data_export.hpp"
#include "sim/simulation.hpp"

int main() {
  using namespace epiagg;
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  print_header("Figure 4", "network size estimation by anti-entropy counting");

  // The paper gives the band (90k..110k) and the fluctuation (100/cycle) but
  // not the waveform; we use a triangle wave with period 200 cycles (the
  // published plot shows a few periods over 1000 cycles). See DESIGN.md.
  const std::size_t scale_div = scaled<std::size_t>(1, 10);
  const std::size_t min_size = 90000 / scale_div;
  const std::size_t max_size = 110000 / scale_div;
  const std::size_t fluctuation = 100 / scale_div;
  const std::size_t period = 200;
  const std::size_t epoch_length = 30;
  // Quick mode honors bench_util's "~10x smaller" contract on both axes:
  // N/10 (above) and a 990 -> 300 cycle horizon (10 epochs, 1.5 oscillation
  // periods — still enough to see the translated-by-one-epoch shape).
  const std::size_t total_cycles = scaled<std::size_t>(990, 300);
  const double expected_leaders = 4.0;
  constexpr double kShapeTolerance = 0.05;

  std::printf("size band [%zu, %zu], fluctuation %zu join+%zu crash per cycle,\n",
              min_size, max_size, fluctuation, fluctuation);
  std::printf("oscillation period %zu cycles, epoch = %zu cycles, %zu cycles total,\n",
              period, epoch_length, total_cycles);
  std::printf("E[leaders] = %.1f concurrent counting instances per epoch\n\n",
              expected_leaders);

  epiagg::benchutil::PerfTracker perf("fig4");
  auto log = std::make_shared<EpochLog>();
  Simulation sim =
      SimulationBuilder()
          .nodes(max_size)
          .protocol(ProtocolVariant::kSizeEstimation)
          .epoch_length(epoch_length)
          .expected_leaders(expected_leaders)
          .failures(FailureSpec::with_churn(std::make_shared<OscillatingChurn>(
              min_size, max_size, period, fluctuation)))
          .observe(log)
          .seed(0xF16'4)
          .build();
  sim.run_cycles(total_cycles);
  perf.add_cycles(static_cast<double>(total_cycles));

  std::printf("%6s %6s %10s %10s | %10s %10s %10s %6s %5s\n", "cycle", "epoch",
              "size@start", "size@end", "est_min", "est_mean", "est_max",
              "nodes", "inst");
  DataTable data({"cycle", "size_at_start", "size_at_end", "est_min",
                  "est_mean", "est_max", "reporting", "instances"});
  std::size_t checked = 0;
  std::size_t misses = 0;
  double worst = 0.0;
  for (const EpochSummary& r : log->epochs()) {
    if (r.instances > 0 && r.reporting > 0) {
      const double start = static_cast<double>(r.population_start);
      const double error = std::abs(r.est_mean - start) / start;
      worst = std::max(worst, error);
      ++checked;
      if (error > kShapeTolerance) ++misses;
    }
    std::printf("%6zu %6llu %10zu %10zu | %10.0f %10.0f %10.0f %6zu %5zu\n",
                r.end_cycle, static_cast<unsigned long long>(r.epoch),
                r.population_start, r.population_end, r.est_min, r.est_mean,
                r.est_max, r.reporting, r.instances);
    data.add_row({static_cast<double>(r.end_cycle),
                  static_cast<double>(r.population_start),
                  static_cast<double>(r.population_end), r.est_min, r.est_mean,
                  r.est_max, static_cast<double>(r.reporting),
                  static_cast<double>(r.instances)});
  }
  const bool shape_holds = checked > 0 && misses == 0;
  std::printf("shape check: %s — %zu of %zu epochs with est_mean within "
              "%.0f%% of size@start (worst %.1f%%)\n",
              shape_holds ? "PASS" : "FAIL", checked - misses, checked,
              kShapeTolerance * 100.0, worst * 100.0);
  export_table(data, "fig4_size_estimation");
  perf.finish();

  std::printf("\nexpected shape: est_mean tracks size@start (i.e. the actual\n");
  std::printf("size translated by one epoch); error bars (est_min..est_max)\n");
  std::printf("are tight because every epoch converges for ~30 cycles.\n");
  return shape_holds ? 0 : 1;
}
