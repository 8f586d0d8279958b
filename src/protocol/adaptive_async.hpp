// The fully asynchronous adaptive protocol of paper §4, with no global
// synchronization whatsoever.
//
// Each node owns a local clock (with optional bounded drift), divides its
// own timeline into ΔT-cycle epochs, and tags every message with its epoch
// identifier. The three §4 mechanisms:
//
//  * restart   — at a local epoch boundary the node restarts aggregation
//                from its current attribute;
//  * epidemic epoch adoption — "if a node receives a message with an
//                identifier larger than its current one, it switches to the
//                new epoch immediately", bounding drift;
//  * join      — a newcomer contacts a member out-of-band, receives the next
//                epoch id and the time left until it starts, and stays
//                passive until then.
//
// AdaptiveAsyncNetwork is a named preset over SimulationBuilder: the actual
// machinery lives in the event engine's adaptive-epoch mode
// (`.engine(EngineKind::kEvent).adaptive_epochs(drift)`,
// src/sim/simulation_event.cpp), where it composes with several
// .aggregates(...), message latency, churn schedules and live membership
// overlays. The class is kept because "the §4 adaptive experiment" is a
// useful name with a stable, minimal API.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/simulation.hpp"

namespace epiagg {

/// Configuration of the asynchronous adaptive averaging network.
struct AdaptiveAsyncConfig {
  /// Nodes at time 0.
  std::size_t initial_size = 1000;
  /// Cycles (units of Δt) per epoch.
  std::size_t epoch_length = 30;
  /// Bound on per-node clock drift: each node's cycle period is drawn once
  /// from [1 − drift, 1 + drift]. 0 = perfect clocks.
  double clock_drift = 0.0;
  /// Per-message loss probability.
  double loss_probability = 0.0;
};

/// Event-driven simulation of adaptive asynchronous averaging — a preset
/// over `SimulationBuilder().engine(EngineKind::kEvent).adaptive_epochs(…)`.
class AdaptiveAsyncNetwork {
public:
  AdaptiveAsyncNetwork(AdaptiveAsyncConfig config, std::vector<double> initial,
                       std::uint64_t seed);

  /// Runs until simulated time `until` (in cycle units).
  void run(SimTime until);

  /// Injects a joining node with attribute `value` at the current time; it
  /// contacts a random member, learns the epoch grid, and starts
  /// participating at the next epoch boundary. Returns the node id.
  NodeId join(double value);

  /// Per-node epoch-completion samples collected so far (ordered by time).
  [[nodiscard]] const std::vector<AdaptiveEpochSample>& samples() const {
    return sim_.adaptive_samples();
  }

  /// Summary of approximations reported for a given epoch across nodes.
  /// Empty optional if no node completed that epoch.
  [[nodiscard]] std::optional<RunningStats> epoch_summary(EpochId epoch) const;

  /// The largest epoch id any node has entered.
  [[nodiscard]] EpochId frontier_epoch() const { return sim_.frontier_epoch(); }

  [[nodiscard]] std::size_t size() const { return sim_.population_size(); }
  [[nodiscard]] double attribute(NodeId id) const;
  void set_attribute(NodeId id, double value);

private:
  Simulation sim_;
  /// Attribute mirror (initial values + set_attribute/join updates): the
  /// builder's store only exposes aggregates, and attributes change solely
  /// through this façade.
  std::vector<double> attributes_;
};

}  // namespace epiagg
