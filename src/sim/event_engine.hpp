// Building blocks of the discrete-event engine: the pending-event queue and
// the message latency models.
//
// The scheduler itself is SimEventEngine (sim/sim_events.hpp), which pops
// typed records from the CalendarQueue below. Determinism: events at equal
// timestamps pop in scheduling order.
//
// The pending set lives in a CALENDAR QUEUE (time-bucketed FIFO lanes with
// an overflow tier) instead of a binary heap: schedule and pop are O(1)
// amortized at the 10^5–10^7 pending-event scales the benches hit, where a
// std::priority_queue pays log(n) compares — and heap-moves its payload —
// on every operation. Pop order is EXACTLY ascending (time, sequence), bit-
// identical to the old heap comparator; docs/api.md "Event-engine
// internals" carries the design note and the monotonicity argument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace epiagg {

/// A calendar queue over `(time, sequence, payload)` entries, popped in
/// ascending `(time, sequence)` order.
///
/// Geometry: `buckets_.size()` lanes of `width_` simulated seconds starting
/// at `year_start_`; an entry maps to lane `floor((t - year_start_) /
/// width_)` (clamped at 0), or to the unsorted overflow tier when that
/// index falls past the last lane. The mapping is a clamped floor of a
/// monotone affine function, so `t1 <= t2` implies `lane(t1) <= lane(t2)`
/// REGARDLESS of floating-point rounding — draining lanes left to right
/// (each lane kept sorted) is therefore a correct total order, and every
/// overflow entry is strictly later than every bucketed one. When the lanes
/// drain the calendar rotates: a new year is anchored at the overflow
/// minimum and the tier is re-bucketed. The lane count tracks the pending
/// count (power-of-two resize, O(n) rebuild amortized over the >= n
/// operations that changed the size), keeping ~1 entry per lane so the
/// sorted insert is O(1) in the common case — and an exact FIFO append for
/// equal-timestamp bursts.
template <typename P>
class CalendarQueue {
public:
  struct Entry {
    SimTime time;
    std::uint64_t sequence;  // FIFO tie-break for equal timestamps
    P payload;
  };

  CalendarQueue() : buckets_(kMinBuckets) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Lanes currently allocated (resize/rotation observability for tests).
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  /// Entries currently parked in the overflow tier.
  [[nodiscard]] std::size_t overflow_count() const noexcept {
    return overflow_.size();
  }

  void push(SimTime time, std::uint64_t sequence, P payload) {
    insert_entry(Entry{time, sequence, std::move(payload)});
    if (size_ > buckets_.size() * kGrowOccupancy &&
        buckets_.size() < kMaxBuckets) {
      rebuild();
    }
  }

  /// Timestamp of the earliest entry. Requires !empty(); may advance the
  /// lane cursor or rotate the year (amortized O(1)).
  [[nodiscard]] SimTime min_time() { return front_entry().time; }

  /// Removes and returns the earliest entry. Requires !empty().
  Entry pop_min() {
    Entry out = std::move(front_entry());
    advance_past_front();
    return out;
  }

  /// Peek-and-pop in ONE cursor scan: moves the earliest entry into `out`
  /// and returns true iff its time is <= `t_end`. The drain loop's
  /// `min_time() <= t_end` guard plus `pop_min()` costs two front scans per
  /// event; this is the fused form.
  bool pop_min_if(SimTime t_end, Entry& out) {
    if (size_ == 0) return false;
    Entry& front = front_entry();
    if (front.time > t_end) return false;
    out = std::move(front);
    advance_past_front();
    return true;
  }

private:
  struct Lane {
    std::vector<Entry> items;  // ascending (time, sequence) from `head`
    std::size_t head = 0;      // popped entries linger as moved-out husks
    [[nodiscard]] bool drained() const noexcept {
      return head >= items.size();
    }
  };

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;
  static constexpr std::size_t kGrowOccupancy = 4;   // entries per lane
  static constexpr std::size_t kShrinkOccupancy = 8;  // lanes per entry
  static constexpr std::size_t kYearSlack = 4;  // year length / pending span

  static bool entry_less(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.sequence < b.sequence;
  }

  /// Maps `t` to its lane, or returns false for the overflow tier. Clamped
  /// floor of a monotone function: never decreasing in `t`.
  bool lane_index(SimTime t, std::size_t& idx) const {
    const double offset = (t - year_start_) / width_;
    if (offset >= static_cast<double>(buckets_.size())) return false;
    idx = offset <= 0.0 ? 0 : static_cast<std::size_t>(offset);
    return idx < buckets_.size();
  }

  void insert_entry(Entry entry) {
    std::size_t idx = 0;
    if (!lane_index(entry.time, idx)) {
      overflow_.push_back(std::move(entry));
      ++size_;
      return;
    }
    Lane& lane = buckets_[idx];
    if (lane.drained()) {
      lane.items.clear();
      lane.head = 0;
    }
    if (lane.items.empty() || entry_less(lane.items.back(), entry)) {
      lane.items.push_back(std::move(entry));  // FIFO fast path
    } else {
      const auto pos =
          std::upper_bound(lane.items.begin() + lane.head, lane.items.end(),
                           entry, entry_less);
      lane.items.insert(pos, std::move(entry));
    }
    // A lane the cursor already passed can receive entries again (anything
    // scheduled at the current time after its lane drained); pull the
    // cursor back so the scan never strands them.
    if (idx < cursor_) cursor_ = idx;
    ++size_;
  }

  /// Consumes the entry front_entry() just returned (its lane is at
  /// cursor_). Shared tail of pop_min / pop_min_if.
  void advance_past_front() {
    Lane& lane = buckets_[cursor_];
    ++lane.head;
    if (lane.head >= lane.items.size()) {
      lane.items.clear();
      lane.head = 0;
    }
    --size_;
    if (size_ * kShrinkOccupancy < buckets_.size() &&
        buckets_.size() > kMinBuckets) {
      rebuild();
    }
  }

  /// The earliest entry: first item of the first non-drained lane, rotating
  /// the year when only the overflow tier remains. Requires !empty().
  Entry& front_entry() {
    for (;;) {
      while (cursor_ < buckets_.size() && buckets_[cursor_].drained())
        ++cursor_;
      if (cursor_ < buckets_.size()) {
        Lane& lane = buckets_[cursor_];
        return lane.items[lane.head];
      }
      EPIAGG_ASSERT(!overflow_.empty(),
                    "calendar queue scan on an empty queue");
      rebuild();  // new year anchored at the overflow minimum
    }
  }

  /// Re-buckets every pending entry with fresh geometry: lane count ~ the
  /// pending count, year anchored at the earliest pending time, width
  /// spreading the pending span at ~1 entry per lane. The earliest entry
  /// always lands in lane 0, so rotation makes progress unconditionally.
  /// Lane vectors are recycled whenever the lane count is unchanged (the
  /// common year-rotation case): clear() keeps their capacity, so a steady-
  /// state rotation performs ZERO allocations past the first year.
  void rebuild() {
    scratch_.clear();
    scratch_.reserve(size_);
    for (Lane& lane : buckets_)
      for (std::size_t i = lane.head; i < lane.items.size(); ++i)
        scratch_.push_back(std::move(lane.items[i]));
    for (Entry& entry : overflow_) scratch_.push_back(std::move(entry));
    overflow_.clear();

    std::size_t lanes = kMinBuckets;
    while (lanes < scratch_.size() && lanes < kMaxBuckets) lanes <<= 1;
    if (lanes == buckets_.size()) {
      for (Lane& lane : buckets_) {
        lane.items.clear();
        lane.head = 0;
      }
    } else {
      buckets_.assign(lanes, Lane{});
    }
    cursor_ = 0;
    size_ = 0;
    if (scratch_.empty()) return;

    SimTime lo = scratch_.front().time;
    SimTime hi = scratch_.front().time;
    for (const Entry& entry : scratch_) {
      lo = std::min(lo, entry.time);
      hi = std::max(hi, entry.time);
    }
    year_start_ = lo;
    const double span = hi - lo;
    // The year covers kYearSlack × the pending span: future schedules keep
    // landing in lanes (instead of the overflow tier) for several horizons,
    // so an entry is re-bucketed by at most ~1/kYearSlack of rotations —
    // at the price of ~kYearSlack entries per occupied lane.
    width_ = span > 0.0
                 ? span * static_cast<double>(kYearSlack) /
                       static_cast<double>(lanes)
                 : 1.0;
    for (Entry& entry : scratch_) insert_entry(std::move(entry));
    scratch_.clear();
  }

  std::vector<Lane> buckets_;
  std::vector<Entry> overflow_;  // unsorted; strictly later than any lane
  std::vector<Entry> scratch_;   // rebuild staging, recycled across years
  std::size_t cursor_ = 0;       // lanes below are drained (or refilled
                                 // with a cursor pull-back on insert)
  SimTime year_start_ = 0.0;
  double width_ = 1.0;
  std::size_t size_ = 0;
};

/// Message latency models for the asynchronous protocol mode.
class LatencyModel {
public:
  virtual ~LatencyModel() = default;
  /// Samples one one-way message delay (>= 0).
  [[nodiscard]] virtual SimTime sample(Rng& rng) const = 0;
};

/// Zero or fixed delay; the paper's analysis assumes zero communication time.
class ConstantLatency final : public LatencyModel {
public:
  explicit ConstantLatency(SimTime delay) : delay_(delay) {
    EPIAGG_EXPECTS(delay >= 0.0, "latency cannot be negative");
  }
  [[nodiscard]] SimTime sample(Rng& /*rng*/) const override { return delay_; }

private:
  SimTime delay_;
};

/// Uniform delay in [lo, hi).
class UniformLatency final : public LatencyModel {
public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {
    EPIAGG_EXPECTS(lo >= 0.0 && hi > lo, "invalid uniform latency range");
  }
  [[nodiscard]] SimTime sample(Rng& rng) const override {
    return rng.uniform(lo_, hi_);
  }

private:
  SimTime lo_;
  SimTime hi_;
};

/// Exponential delay with the given mean.
class ExponentialLatency final : public LatencyModel {
public:
  explicit ExponentialLatency(SimTime mean) : rate_(1.0 / mean) {
    EPIAGG_EXPECTS(mean > 0.0, "latency mean must be positive");
  }
  [[nodiscard]] SimTime sample(Rng& rng) const override {
    return rng.exponential(rate_);
  }

private:
  double rate_;
};

}  // namespace epiagg
