// AGGREGATOR REGISTRY: the open-ended successor to the closed Combiner
// enum. The paper's point is that ONE gossip kernel serves a whole family
// of aggregates ("being able to calculate the average already makes it
// possible to calculate any moments, the size of the system, the sum of
// the value set, etc.", §1.1) — an aggregate here is a named kernel bundle
// (AggregatorDef) describing how many state planes it needs, which
// elementary combiner merges each plane, and how to seed/read/decay that
// state. Simulations declare instances via AggregatorSpec; the builder
// flattens them into an AggregatorPlan whose plane_combiners() vector is
// exactly what NodeStateStore::apply_exchanges / apply_deliveries already
// execute — the SoA plane layout and the 48-byte event-record fast path
// are untouched, and the three legacy combiners are ordinary registry
// entries with unchanged FP expressions.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aggregate/aggregate.hpp"

namespace epiagg {

/// Hard cap on an aggregator's per-slot state width. Read/init kernels
/// gather non-contiguous planes into a stack buffer of this size.
inline constexpr std::size_t kMaxAggregatorWidth = 8;

/// A registered aggregate kind. `width` planes of node state evolve under
/// `plane_combiners` (one elementary Combiner per plane, executed by the
/// existing batched store kernels); the function pointers define the
/// state's lifecycle:
///
///   init(a, state)   seed `width` doubles from the node's scalar
///                    attribute. CONTRACT: state[0] == a (the raw value),
///                    so plane `offset` of any instance always holds the
///                    unmodified attribute and width-1 kinds are exactly
///                    the legacy combiners.
///   read(state)      collapse the (gossip-averaged) state back to the
///                    reported estimate.
///   exact(attrs)     the true aggregate over the raw attribute vector —
///                    the reference the tracking-error machinery compares
///                    against.
///   decay(p, a, st)  optional once-per-cycle kernel re-injecting the
///                    CURRENT attribute `a` into the state (e.g. the
///                    exponentially decaying mean). Draws no randomness.
///   windowed         when true, `param` is a window length W in cycles:
///                    every W cycles the engine re-snapshots the
///                    instance's own planes (approximation := attribute),
///                    bounding estimate staleness without a global epoch.
struct AggregatorDef {
  std::string name;
  std::size_t width = 1;
  std::vector<Combiner> plane_combiners;
  void (*init)(double a, double* state) = nullptr;
  double (*read)(const double* state) = nullptr;
  double (*exact)(std::span<const double> attrs) = nullptr;
  void (*decay)(double param, double a, double* state) = nullptr;
  bool windowed = false;
};

/// Looks up a registered kind by name; nullptr when unknown. Builtins
/// (average, maximum, minimum, sum-count, variance, decaying-mean,
/// windowed-mean) are registered before main().
[[nodiscard]] const AggregatorDef* find_aggregator(std::string_view name);

/// Registers a new kind. Rejects duplicates and malformed defs (width of
/// 0 or beyond kMaxAggregatorWidth, missing kernels, combiner count not
/// matching width).
void register_aggregator(AggregatorDef def);

/// Sorted names of every registered kind (for docs / error messages).
[[nodiscard]] std::vector<std::string> registered_aggregators();

/// One aggregate a simulation should run: a registry kind plus its
/// parameter (decay weight β, window length W — 0 for parameterless
/// kinds) under a user-chosen label. Use the factories; the builder
/// validates kind and parameter at build() time.
struct AggregatorSpec {
  std::string label;
  std::string kind;
  double param = 0.0;

  static AggregatorSpec average(std::string label = "average");
  static AggregatorSpec maximum(std::string label = "maximum");
  static AggregatorSpec minimum(std::string label = "minimum");
  static AggregatorSpec sum_count(std::string label = "sum-count");
  static AggregatorSpec variance(std::string label = "variance");
  /// Exponentially decaying mean: each cycle every node folds its current
  /// attribute back in with weight beta in (0, 1].
  static AggregatorSpec decaying_mean(std::string label, double beta);
  /// Windowed mean: every `window` >= 1 cycles the instance re-snapshots
  /// its approximation from the current attribute.
  static AggregatorSpec windowed_mean(std::string label, double window);
};

/// One aggregate instance inside a built plan: its kind, parameter, and
/// the index of its first state plane in the store.
struct AggregatorInstance {
  const AggregatorDef* def = nullptr;
  double param = 0.0;
  std::size_t offset = 0;
  std::string label;
};

/// The flattened execution plan the engines run: instances laid out over
/// consecutive planes, plus the per-plane combiner vector that the
/// batched store kernels consume directly. Enum combiners (a run without
/// `.aggregates(...)` is one kAverage) flatten to width-1 instances, one
/// plane each.
class AggregatorPlan {
 public:
  AggregatorPlan() = default;

  /// Legacy bridge: one width-1 builtin instance per combiner, in order.
  [[nodiscard]] static AggregatorPlan from_combiners(
      std::span<const Combiner> combiners);

  /// Builds from validated specs. Precondition: every kind is registered
  /// and every parameter is in range (the builder checks first and
  /// reports nice errors; this asserts).
  [[nodiscard]] static AggregatorPlan from_specs(
      std::span<const AggregatorSpec> specs);

  [[nodiscard]] const std::vector<AggregatorInstance>& instances() const {
    return instances_;
  }
  [[nodiscard]] const std::vector<Combiner>& plane_combiners() const {
    return plane_combiners_;
  }
  [[nodiscard]] std::size_t planes() const { return plane_combiners_.size(); }

  /// True when any instance carries a decay kernel or a window — the
  /// engines then run the per-cycle decay/window pass.
  [[nodiscard]] bool has_dynamics() const { return dynamics_; }

 private:
  std::vector<AggregatorInstance> instances_;
  std::vector<Combiner> plane_combiners_;
  bool dynamics_ = false;
};

}  // namespace epiagg
