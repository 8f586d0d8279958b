// A monitoring service following a drifting aggregate on BOTH execution
// models — the continuous-monitoring regime of paper §1 ("the values can
// change over time, and the aggregate has to be followed").
//
// Every node's load performs an upward random walk (a time-varying kDrift
// workload). Three aggregator instances ride one gossip substrate:
//
//   * "static-avg":  the plain average, seeded once — its estimate stays
//                    at the cycle-0 truth while the real average walks
//                    away, so its error grows without bound;
//   * "ewma-load":   a decaying mean (beta = 0.2): every cycle each node
//                    folds its CURRENT load back into the state, so the
//                    estimate lags the truth by only ~rate/beta;
//   * "win-load":    a windowed mean re-snapshotting every 10 cycles, so
//                    staleness never exceeds one window.
//
// The same declarative configuration builds on the synchronous cycle
// engine and on the discrete-event engine (asynchronous wake-ups, real
// push/reply messages); both follow the target, replayed from one seed.
//
//   $ ./monitoring_service            # full size
//   $ EPIAGG_QUICK=1 ./monitoring_service   # CI smoke scale
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "sim/simulation.hpp"

namespace {

/// Mean |estimate − truth| per instance over the final third of the run —
/// the steady-state tracking error, past the initial convergence ramp.
struct InstanceError {
  double sum[3] = {0.0, 0.0, 0.0};
  std::size_t count = 0;
};

InstanceError steady_state_error(const epiagg::TrackingErrorObserver& tracking,
                                 std::size_t cycles) {
  InstanceError out;
  for (const epiagg::TrackingError& sample : tracking.history()) {
    if (sample.cycle <= 2 * cycles / 3) continue;
    out.sum[sample.aggregate] += sample.error;
    if (sample.aggregate == 0) ++out.count;
  }
  return out;
}

}  // namespace

int main() {
  using namespace epiagg;

  // Same switch as the benches: only EPIAGG_QUICK=1 selects the quick scale.
  const char* quick_flag = std::getenv("EPIAGG_QUICK");
  const bool quick = quick_flag != nullptr && std::strcmp(quick_flag, "1") == 0;
  const NodeId n = quick ? 400 : 2000;
  const std::size_t cycles = quick ? 45 : 120;
  const double drift_rate = 0.01;  // mean load climbs this much per cycle

  std::printf("monitoring a drifting average: n=%u, %zu cycles, "
              "drift %.3f/cycle\n\n", n, cycles, drift_rate);
  std::printf("%-7s  %-12s %-12s %-12s\n", "engine", "static-avg",
              "ewma-load", "win-load");

  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    auto tracking = std::make_shared<TrackingErrorObserver>();
    Simulation sim =
        SimulationBuilder()
            .nodes(n)
            .engine(engine)
            .aggregates({AggregatorSpec::average("static-avg"),
                         AggregatorSpec::decaying_mean("ewma-load", 0.2),
                         AggregatorSpec::windowed_mean("win-load", 10)})
            .workload(WorkloadSpec::time_varying(
                WorkloadDynamics::kDrift, ValueDistribution::kUniform,
                drift_rate, /*period=*/0.0, /*jitter=*/0.002))
            .observe(tracking)
            .seed(30)
            .build();
    // The cycle engine steps synchronous rounds; the event engine advances
    // in simulated time — one unit per cycle-equivalent.
    if (engine == EngineKind::kCycle) {
      sim.run_cycles(cycles);
    } else {
      sim.run_time(static_cast<SimTime>(cycles));
    }

    const InstanceError err = steady_state_error(*tracking, cycles);
    const double samples = static_cast<double>(err.count);
    std::printf("%-7s  %-12.6f %-12.6f %-12.6f\n", to_string(engine).data(),
                err.sum[0] / samples, err.sum[1] / samples,
                err.sum[2] / samples);
  }

  std::printf("\nsteady-state tracking error (mean |estimate - truth| over "
              "the final\nthird): the static estimator has drifted ~rate x "
              "cycles off the truth,\nwhile the decaying and windowed "
              "estimators follow it with bounded lag\n— on both execution "
              "models.\n");
  return 0;
}
