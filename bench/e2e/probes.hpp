// Per-layer probes of the end-to-end benchmark's traced run.
//
// A probe times calls into one layer's public functions, shaped like the
// workload that was just replayed (its N, plane count, pending-event count,
// latency spread and counting-instance count). Each probe opens one span
// named after the layer and one child span per timed batch; a batch span
// records how many operations it covered, so run.py reads a cost per
// operation straight from the trace. Probes use public headers only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aggregate/aggregate.hpp"
#include "trace.hpp"
#include "workload/values.hpp"

namespace epiagg::e2e {

struct ProbeShape {
  std::size_t nodes = 0;             ///< store, pair and observer probes
  std::vector<Combiner> combiners;   ///< the plan's plane combiners
  std::size_t pending = 0;           ///< calendar-queue entries held
  double latency_hi = 0.2;           ///< one-way latency ~ U(0, latency_hi)
  bool exponential_wait = false;     ///< wake-ups ~ Exp(1) instead of +1
  std::size_t overlay_nodes = 0;     ///< Newscast overlay size
  std::size_t instances = 4;         ///< counting instances per node
  bool drift = false;                ///< attributes evolve by normal drift
  ValueDistribution distribution = ValueDistribution::kUniform;
};

/// Runs every layer probe under one "probes" span; each probe repeats its
/// batch for about `seconds_per_probe`. Returns a checksum of the probes'
/// outputs, which the caller reports so that no timed loop can be
/// optimised away.
double run_probes(const ProbeShape& shape, std::uint64_t seed,
                  double seconds_per_probe, Tracer& tracer);

}  // namespace epiagg::e2e
