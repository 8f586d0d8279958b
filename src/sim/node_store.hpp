// Slot-major structure-of-arrays node state for the simulation hot path.
//
// The per-impl node structs the builder's cycle impls used to carry
// (vectors-of-vectors, one tiny heap block per node) made every gossip
// exchange chase four unrelated cache lines. NodeStateStore flips the
// layout: one contiguous `std::vector<double>` VALUE PLANE per aggregate
// slot — attributes (the node's persistent input a_i) and approximations
// (the evolving estimate x_i) — indexed by node id, plus a packed
// 64-bit-word participation bitmap and a LIFO free-list of released slot
// ids. A cycle's exchanges are applied plane-by-plane through
// apply_exchanges(), so the innermost loop of the simulator streams one
// contiguous array with the combiner dispatched once per plane instead of
// once per exchange.
//
// Layout notes (see docs/api.md for the long form):
//  - slot-major: approximations_[s][id], NOT nodes[id].approx[s]. Slots are
//    mutually independent (each exchange merges the same pair in every
//    slot), so per-plane application is exactly equivalent to the fused
//    per-node loop while staying cache-linear.
//  - the participation bitmap encodes "this slot id carries protocol state
//    in the current epoch" (joiners wait for the next restart; crashed
//    slots are cleared). One bit per slot id, packed 64 per word.
//  - the free-list recycles slot ids LIFO, so the store's capacity is
//    bounded by the peak population, not by total churn volume.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "aggregate/aggregate.hpp"
#include "common/contract.hpp"
#include "common/types.hpp"

namespace epiagg {

/// One drawn gossip exchange: initiator and partner slot ids.
using ExchangePair = std::pair<NodeId, NodeId>;

/// Slot-major SoA store of per-node protocol state. Shared by every
/// cycle-engine simulation impl; see the header comment for the layout.
class NodeStateStore {
public:
  /// A store with `slots` aggregate value planes and zero capacity.
  explicit NodeStateStore(std::size_t slots);

  /// A store seeded from `initial`: node id i holds initial[i] in every
  /// attribute AND approximation plane (all ids acquired, none
  /// participating).
  NodeStateStore(std::size_t slots, std::span<const double> initial);

  [[nodiscard]] std::size_t slot_count() const noexcept {
    return attributes_.size();
  }

  /// Ids ever materialized (alive + free); planes are this long.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Released ids currently awaiting reuse.
  [[nodiscard]] std::size_t free_count() const noexcept { return free_.size(); }

  // ---- slot lifecycle ----

  /// Returns a zeroed, non-participating slot id: the most recently
  /// released one (LIFO) or a fresh id extending every plane.
  [[nodiscard]] NodeId acquire();

  /// Releases `id` for reuse. Clears its state and participation bit.
  void release(NodeId id);

  /// Grows the planes to cover an externally allocated id (membership
  /// overlays hand out their own slot ids). No-op when already covered.
  void ensure(NodeId id);

  /// Zeroes `id`'s values in every plane and clears its participation bit
  /// WITHOUT entering it into the free-list (externally managed ids).
  void reset(NodeId id);

  // ---- value planes ----

  [[nodiscard]] const std::vector<double>& attributes(std::size_t slot) const;
  [[nodiscard]] const std::vector<double>& approximations(std::size_t slot) const;

  [[nodiscard]] double attribute(NodeId id, std::size_t slot) const {
    return attributes_[slot][id];
  }
  [[nodiscard]] double approximation(NodeId id, std::size_t slot) const {
    return approximations_[slot][id];
  }
  void set_attribute(NodeId id, std::size_t slot, double value) {
    attributes_[slot][id] = value;
  }
  void set_approximation(NodeId id, std::size_t slot, double value) {
    approximations_[slot][id] = value;
  }

  /// Seeds every slot of `id` with `value` (attributes and approximations)
  /// — the joiner initialization of the churn impls.
  void seed_node(NodeId id, double value);

  // ---- participation bitmap ----

  [[nodiscard]] bool participating(NodeId id) const {
    return (participation_[id >> 6] >> (id & 63)) & 1u;
  }
  void set_participating(NodeId id, bool value) {
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if (value) {
      participation_[id >> 6] |= bit;
    } else {
      participation_[id >> 6] &= ~bit;
    }
  }

  // ---- batched cycle operations ----

  /// Epoch restart for one node: approximations[s][id] = attributes[s][id].
  void snapshot(NodeId id);

  /// Window refresh for one PLANE: approximations[slot] = attributes[slot]
  /// for every id. A windowed aggregator instance re-snapshots only its
  /// own planes; the full snapshot_all() would wrongly reset the other
  /// instances' estimates.
  void snapshot_slot(std::size_t slot);

  /// Epoch restart for the whole store: every approximation plane is
  /// re-copied from its attribute plane (the static impl's restart).
  void snapshot_all();

  /// Applies one cycle's worth of drawn exchanges, plane by plane: for each
  /// slot s, walk `pairs` in order merging x[i], x[j] with combiners[s].
  /// Bit-identical to the fused per-pair/per-slot loop (slots are
  /// independent and the per-slot pair order is preserved) but cache-linear
  /// with the combiner dispatched once per plane.
  void apply_exchanges(std::span<const Combiner> combiners,
                       std::span<const ExchangePair> pairs);

  /// Applies a list of ONE-SIDED message merges, plane by plane: for each
  /// slot s, walk the deliveries in order folding values[d * stride + s]
  /// into x[targets[d]] with combiners[s] (`values` is delivery-major,
  /// stride = combiners.size()). Bit-identical to the per-delivery
  /// combine() loop — per-(plane, node) operation order is preserved and
  /// planes are independent. Its only caller is the `sim.store.delivery`
  /// probe of bench/e2e, which times the delivery merge on its own; the
  /// event engine merges each delivery as it pops.
  void apply_deliveries(std::span<const Combiner> combiners,
                        std::span<const NodeId> targets,
                        std::span<const double> values);

private:
  std::vector<std::vector<double>> attributes_;      // [slot][id]
  std::vector<std::vector<double>> approximations_;  // [slot][id]
  std::vector<std::uint64_t> participation_;         // packed, 64 ids/word
  std::vector<NodeId> free_;                         // LIFO
  std::size_t capacity_ = 0;
};

}  // namespace epiagg
