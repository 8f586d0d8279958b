#include "sim/cycle_engine.hpp"

namespace epiagg {

void AliveSet::insert(NodeId id) {
  EPIAGG_EXPECTS(!contains(id), "AliveSet::insert of existing member");
  if (id >= positions_.size()) positions_.resize(id + 1, kNoPosition);
  positions_[id] = members_.size();
  members_.push_back(id);
}

void AliveSet::erase(NodeId id) {
  EPIAGG_EXPECTS(contains(id), "AliveSet::erase of missing member");
  const std::size_t pos = positions_[id];
  const NodeId last = members_.back();
  members_[pos] = last;
  positions_[last] = pos;
  members_.pop_back();
  positions_[id] = kNoPosition;
}

NodeId AliveSet::sample(Rng& rng) const {
  EPIAGG_EXPECTS(!members_.empty(), "sampling from an empty population");
  return members_[static_cast<std::size_t>(rng.uniform_u64(members_.size()))];
}

NodeId AliveSet::sample_other(NodeId exclude, Rng& rng) const {
  EPIAGG_EXPECTS(!members_.empty(), "sampling from an empty population");
  // Both branches consume exactly one bounded draw, so the stream advances
  // identically whichever way this goes. epiagg-lint: fixed-draw-count
  if (!contains(exclude)) return sample(rng);
  EPIAGG_EXPECTS(members_.size() >= 2,
                 "sample_other needs a second member to sample");
  // Draw from the set minus the excluded member's slot: pick an index in
  // [0, size-1) and skip past the excluded position.
  const std::size_t excluded_pos = positions_[exclude];
  std::size_t idx = static_cast<std::size_t>(rng.uniform_u64(members_.size() - 1));
  if (idx >= excluded_pos) ++idx;
  return members_[idx];
}

}  // namespace epiagg
