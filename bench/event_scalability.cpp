// Event-engine throughput parity sweep (ROADMAP: "Event-engine throughput
// parity").
//
// Runs the same three protocol rows — push-pull averaging (with §4 epoch
// restarts), push-sum, and size estimation — on BOTH engines across a
// network-size sweep, timing protocol cycles per wall second. One event-mode
// "cycle" is one Δt of simulated time, so the cycles/sec columns are
// directly comparable: the event engine pays for real message passing
// (send/reply events, latency-capable scheduling, per-message loss draws)
// and the ratio column tracks how close it gets to the cycle engine's
// batched sweeps. The calendar-queue scheduler and typed pooled event
// records (docs/api.md "Event-engine internals") are what keep that ratio
// flat in N instead of degrading with the priority-queue's log of the
// pending-event count.
//
// Every run writes BENCH_event_scalability.json: one row per
// (n, protocol, engine) with cycles_per_sec, plus the event/cycle
// throughput ratio on event rows (0 on cycle rows). scripts/bench_diff.py
// matches rows by the (n, protocol, engine) composite key, gates
// cycles_per_sec at the usual 25%, and reports — without hard-failing —
// when the tracked ratio widens against the committed baseline.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/data_export.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace epiagg;

// Stable protocol codes for the JSON rows (doubles-only DataTable).
constexpr double kPushPullRow = 0.0;
constexpr double kPushSumRow = 1.0;
constexpr double kSizeEstimationRow = 2.0;

const char* protocol_name(double code) {
  if (code == kPushPullRow) return "push-pull";
  if (code == kPushSumRow) return "push-sum";
  return "size-est";
}

Simulation build_sim(double protocol, bool event_engine, NodeId n,
                     std::uint64_t seed) {
  SimulationBuilder builder;
  builder.nodes(n).seed(seed);
  if (event_engine) builder.engine(EngineKind::kEvent);
  if (protocol == kPushPullRow) {
    // 30-cycle epoch restarts, as in the cycle-engine rows, so both engines
    // run the same restart schedule and the baseline rows stay comparable.
    builder.workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
        .epoch_length(30);
  } else if (protocol == kPushSumRow) {
    builder.protocol(ProtocolVariant::kPushSum);
  } else {
    builder.protocol(ProtocolVariant::kSizeEstimation).epoch_length(30);
  }
  return builder.build();
}

/// Runs `cycles` protocol cycles (Δt units on the event engine) and returns
/// the wall seconds they took.
double time_run(Simulation& sim, bool event_engine, std::size_t cycles) {
  const benchutil::wall_timer timer;
  if (event_engine) {
    sim.run_time(static_cast<SimTime>(cycles));
  } else {
    sim.run_cycles(cycles);
  }
  return timer.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  using epiagg::benchutil::print_header;
  using epiagg::benchutil::scaled;

  // No flags beyond the standard --threads (accepted for CI-invocation
  // uniformity; the sweep itself is serial — wall-clock timing is the
  // measurement, so fanning rows across cores would corrupt it).
  (void)epiagg::benchutil::threads_flag(argc, argv);

  print_header("Event scalability (throughput parity)",
               "cycles/sec on both engines vs network size");

  const std::size_t cycles = scaled<std::size_t>(10, 5);
  const std::vector<NodeId> sizes =
      epiagg::benchutil::quick_mode()
          ? std::vector<NodeId>{1000, 10000}
          : std::vector<NodeId>{1000, 10000, 100000, 1000000};

  std::printf("%d protocol cycles per row (event engine: Δt units)\n\n",
              static_cast<int>(cycles));
  std::printf("%9s  %-10s %-7s %-12s %-12s %-8s\n", "N", "protocol", "engine",
              "cycles/s", "msgs/s", "ev/cy");

  DataTable perf({"n", "protocol", "engine", "cycles", "wall_seconds",
                  "cycles_per_sec", "event_cycle_ratio", "quick"});
  const double quick = epiagg::benchutil::quick_mode() ? 1.0 : 0.0;

  for (const NodeId n : sizes) {
    for (const double protocol :
         {kPushPullRow, kPushSumRow, kSizeEstimationRow}) {
      double cycle_cps = 0.0;
      for (const bool event_engine : {false, true}) {
        Simulation sim =
            build_sim(protocol, event_engine, n, 0xE5CA1E ^ n);
        const double wall = time_run(sim, event_engine, cycles);
        const double cps =
            wall > 0.0 ? static_cast<double>(cycles) / wall : 0.0;
        const double messages_per_sec =
            event_engine && wall > 0.0
                ? static_cast<double>(sim.messages_sent()) / wall
                : 0.0;
        const double ratio =
            event_engine && cycle_cps > 0.0 ? cps / cycle_cps : 0.0;
        if (!event_engine) cycle_cps = cps;
        std::printf("%9u  %-10s %-7s %-12.2f %-12.0f %-8.3f\n", n,
                    protocol_name(protocol), event_engine ? "event" : "cycle",
                    cps, messages_per_sec, ratio);
        perf.add_row({static_cast<double>(n), protocol,
                      event_engine ? 1.0 : 0.0, static_cast<double>(cycles),
                      wall, cps, ratio, quick});
      }
    }
  }
  export_bench_json(perf, "BENCH_event_scalability");

  std::printf("\nthe event/cycle ratio (ev/cy) is the parity metric: the\n");
  std::printf("event engine runs the same protocol as real send/reply\n");
  std::printf("messages, so a flat-in-N ratio means the scheduler and event\n");
  std::printf("records add O(1) cost per message. bench_diff.py tracks the\n");
  std::printf("ratio against bench/baselines/BENCH_event_scalability.json.\n");
  return 0;
}
