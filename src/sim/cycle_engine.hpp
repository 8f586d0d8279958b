// Cycle-driven simulation support.
//
// The paper's experiments are cycle-based: "one cycle of the protocol lasts
// from k·Δt to (k+1)·Δt" and every node initiates once per cycle. This file
// provides the dynamic population those cycles run over — a dense set with
// O(1) membership operations and uniform sampling (the substrate for
// churn) — and the per-cycle activation order.
#pragma once

#include <cstddef>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace epiagg {

/// Dense set of node ids supporting O(1) insert, erase, uniform sampling and
/// iteration. Ids are arbitrary uint32 values (slots in some node store).
class AliveSet {
public:
  /// True membership test. O(1).
  [[nodiscard]] bool contains(NodeId id) const noexcept {
    return id < positions_.size() && positions_[id] != kNoPosition;
  }

  /// Inserts `id`; precondition: not already present.
  void insert(NodeId id);

  /// Erases `id`; precondition: present.
  void erase(NodeId id);

  /// Uniformly random member. Precondition: non-empty.
  [[nodiscard]] NodeId sample(Rng& rng) const;

  /// Uniformly random member different from `exclude`.
  /// Precondition: size() >= 2 or (size() == 1 and the only member is not
  /// `exclude`).
  [[nodiscard]] NodeId sample_other(NodeId exclude, Rng& rng) const;

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }

  /// Stable snapshot view of the members (order is arbitrary but
  /// deterministic given the operation history).
  [[nodiscard]] const std::vector<NodeId>& members() const noexcept {
    return members_;
  }

private:
  static constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);
  std::vector<NodeId> members_;          // dense
  std::vector<std::size_t> positions_;   // id -> index in members_
};

/// Per-cycle node activation order (the paper's SEQ uses a fixed order; the
/// companion TR randomizes phases).
enum class ActivationOrder {
  kFixed,     ///< members in stable storage order
  kShuffled,  ///< a fresh uniform permutation every cycle
};

}  // namespace epiagg
