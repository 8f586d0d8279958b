// Building blocks of the discrete-event engine: the pending-event queue and
// the message latency models.
//
// The scheduler itself is SimEventEngine (sim/sim_events.hpp), which pops
// typed records from the CalendarQueue below. Determinism: events at equal
// timestamps pop in scheduling order.
//
// The pending set lives in two exact structures: a FIFO RUN that takes every
// push at or after its last entry, and a binary min-heap of (time, sequence,
// slot) keys over a free-listed payload pool that takes the rest. Under
// constant GETWAITINGTIME every wake-up is scheduled at now + 1 while pops
// come in time order, so all N wakes per Δt append to the run and only the
// in-flight messages pay heap costs. Pop order is EXACTLY ascending (time,
// sequence); docs/api.md "Event-engine internals" carries the design note.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace epiagg {

/// The pending-event queue: `(time, sequence, payload)` entries popped in
/// ascending `(time, sequence)` order. (The name is kept for its callers.)
///
/// A push that is not below the run's last entry appends to the run, which
/// therefore ascends by construction. Any other push parks its payload in a
/// pool slot (recycled through a free list) and its `(time, sequence,
/// slot)` key in a min-heap. The earliest entry is the smaller of the run's
/// front and the heap's top, so one total order holds whichever structure
/// an entry took. Memory is O(peak pending): the run frees its blocks as it
/// drains and the pool never outgrows the heap's high-water mark.
template <typename P>
class CalendarQueue {
public:
  struct Entry {
    SimTime time;
    std::uint64_t sequence;  // FIFO tie-break for equal timestamps
    P payload;
  };

  [[nodiscard]] bool empty() const noexcept {
    return run_.empty() && heap_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return run_.size() + heap_.size();
  }

  void push(SimTime time, std::uint64_t sequence, P payload) {
    if (run_.empty() ||
        !before(time, sequence, run_.back().time, run_.back().sequence)) {
      run_.push_back(Entry{time, sequence, std::move(payload)});
      return;
    }
    std::size_t slot = pool_.size();
    if (free_.empty()) {
      pool_.push_back(std::move(payload));
    } else {
      slot = free_.back();
      free_.pop_back();
      pool_[slot] = std::move(payload);
    }
    heap_.push(Key{time, sequence, slot});
  }

  /// Timestamp of the earliest entry. Requires !empty().
  [[nodiscard]] SimTime min_time() const {
    return run_first() ? run_.front().time : heap_.top().time;
  }

  /// Removes and returns the earliest entry. Requires !empty().
  Entry pop_min() { return take_front(run_first()); }

  /// Moves the earliest entry into `out` and returns true iff its time is
  /// <= `t_end` (the run loop's peek-and-pop).
  bool pop_min_if(SimTime t_end, Entry& out) {
    if (empty()) return false;
    const bool from_run = run_first();
    if ((from_run ? run_.front().time : heap_.top().time) > t_end)
      return false;
    out = take_front(from_run);
    return true;
  }

private:
  struct Key {
    SimTime time;
    std::uint64_t sequence;
    std::size_t slot;  // the payload's index in pool_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return before(b.time, b.sequence, a.time, a.sequence);
    }
  };

  static bool before(SimTime ta, std::uint64_t sa, SimTime tb,
                     std::uint64_t sb) noexcept {
    return ta < tb || (ta == tb && sa < sb);
  }

  /// True when the earliest entry is the run's front. Throws
  /// InvariantViolation on an empty queue.
  bool run_first() const {
    EPIAGG_ASSERT(!empty(), "event queue read on an empty queue");
    if (heap_.empty()) return true;
    if (run_.empty()) return false;
    const Entry& front = run_.front();
    const Key& top = heap_.top();
    return before(front.time, front.sequence, top.time, top.sequence);
  }

  /// Removes the earliest entry: the run's front when `from_run`, else the
  /// heap's top.
  Entry take_front(bool from_run) {
    if (from_run) {
      Entry out = std::move(run_.front());
      run_.pop_front();
      return out;
    }
    const Key key = heap_.top();
    heap_.pop();
    free_.push_back(key.slot);
    return Entry{key.time, key.sequence, std::move(pool_[key.slot])};
  }

  std::deque<Entry> run_;  // ascending (time, sequence)
  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  std::vector<P> pool_;            // payloads of the heap's keys
  std::vector<std::size_t> free_;  // pool_ slots no key refers to
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
