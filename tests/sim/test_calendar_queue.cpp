// CalendarQueue invariants: exact (time, sequence) pop order (the event
// engine's determinism contract), FIFO within equal timestamps, ties across
// the run and the heap, empty-queue contracts, and empty-drain reuse.
#include "sim/event_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"

namespace epiagg {
namespace {

using Queue = CalendarQueue<int>;

TEST(CalendarQueue, PopsInTimeThenSequenceOrder) {
  Queue queue;
  // Deliberately scrambled times, including duplicates.
  const std::vector<double> times = {5.0, 1.0, 3.0, 1.0, 9.0, 3.0, 0.5, 5.0};
  for (std::size_t i = 0; i < times.size(); ++i)
    queue.push(times[i], i, static_cast<int>(i));

  std::vector<std::pair<double, std::uint64_t>> popped;
  while (!queue.empty()) {
    const auto entry = queue.pop_min();
    popped.emplace_back(entry.time, entry.sequence);
  }
  ASSERT_EQ(popped.size(), times.size());
  for (std::size_t i = 1; i < popped.size(); ++i) {
    const bool ordered = popped[i - 1].first < popped[i].first ||
                         (popped[i - 1].first == popped[i].first &&
                          popped[i - 1].second < popped[i].second);
    EXPECT_TRUE(ordered) << "entries " << i - 1 << " and " << i;
  }
}

TEST(CalendarQueue, EqualTimestampsAreFifo) {
  Queue queue;
  // A burst far larger than one lane's expected occupancy, all at one
  // timestamp: pop order must be exactly the scheduling order.
  constexpr int kBurst = 5000;
  for (int i = 0; i < kBurst; ++i)
    queue.push(7.25, static_cast<std::uint64_t>(i), i);
  for (int i = 0; i < kBurst; ++i) {
    const auto entry = queue.pop_min();
    EXPECT_EQ(entry.time, 7.25);
    EXPECT_EQ(entry.payload, i);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, MatchesReferenceOrderUnderRandomWorkload) {
  // Differential test against a sort-based reference: interleaved pushes
  // and pops with clustered, duplicated and far-future times — the mix the
  // simulation actually generates. The engine's monotone now + 1 wake-ups
  // append to the run; deliveries at small latencies, wider windows and
  // far-future adaptive activations land in the heap (or, when they top
  // the run, block it until they pop), so pops interleave both structures.
  for (const std::uint64_t seed : {2004u, 7u, 31337u, 424242u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Queue queue;
    std::set<std::pair<double, std::uint64_t>> reference;
    std::uint64_t sequence = 0;
    double now = 0.0;

    for (int step = 0; step < 20000; ++step) {
      const bool push = queue.empty() || rng.uniform() < 0.5;
      if (push) {
        double delay = 0.0;
        const double kind = rng.uniform();
        if (kind < 0.1) {
          delay = 0.0;  // same-timestamp burst
        } else if (kind < 0.55) {
          delay = 1.0;  // the constant-wait wake-up: now + 1
        } else if (kind < 0.93) {
          delay = rng.uniform() * 0.2;  // a message latency
        } else if (kind < 0.99) {
          delay = rng.uniform() * 2.0;  // a wider wake/delivery window
        } else {
          delay = 50.0 + rng.uniform() * 1000.0;  // far future
        }
        queue.push(now + delay, sequence, static_cast<int>(sequence));
        reference.emplace(now + delay, sequence);
        ++sequence;
      } else {
        const auto entry = queue.pop_min();
        ASSERT_EQ(entry.time, reference.begin()->first);
        ASSERT_EQ(entry.sequence, reference.begin()->second);
        now = entry.time;
        reference.erase(reference.begin());
      }
    }
    while (!queue.empty()) {
      const auto entry = queue.pop_min();
      ASSERT_EQ(entry.time, reference.begin()->first);
      ASSERT_EQ(entry.sequence, reference.begin()->second);
      reference.erase(reference.begin());
    }
    EXPECT_TRUE(reference.empty());
  }
}

TEST(CalendarQueue, TiesAcrossRunAndHeapPopInSequenceOrder) {
  Queue queue;
  queue.push(2.0, 0, 0);  // the run
  queue.push(3.0, 1, 1);  // appends to the run
  queue.push(2.0, 2, 2);  // below the run's last entry: the heap
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop_min().sequence, 0u);
  EXPECT_EQ(queue.min_time(), 2.0);
  EXPECT_EQ(queue.pop_min().sequence, 2u);
  EXPECT_EQ(queue.pop_min().sequence, 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, EmptyPopAndPeekThrow) {
  Queue queue;
  EXPECT_THROW((void)queue.pop_min(), InvariantViolation);
  EXPECT_THROW((void)queue.min_time(), InvariantViolation);
  Queue::Entry entry{};
  EXPECT_FALSE(queue.pop_min_if(1e9, entry));

  queue.push(1.0, 0, 7);
  EXPECT_EQ(queue.pop_min().payload, 7);
  EXPECT_THROW((void)queue.pop_min(), InvariantViolation);
  EXPECT_THROW((void)queue.min_time(), InvariantViolation);
}

TEST(CalendarQueue, EmptyDrainAndReuse) {
  Queue queue;
  EXPECT_TRUE(queue.empty());
  queue.push(1.0, 0, 42);
  EXPECT_EQ(queue.min_time(), 1.0);
  EXPECT_EQ(queue.pop_min().payload, 42);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);

  // Reuse after a full drain, including a same-time push behind the cursor.
  queue.push(2.0, 1, 1);
  queue.push(2.0, 2, 2);
  EXPECT_EQ(queue.pop_min().payload, 1);
  queue.push(2.0, 3, 3);  // scheduled "now", after its lane drained once
  EXPECT_EQ(queue.pop_min().payload, 2);
  EXPECT_EQ(queue.pop_min().payload, 3);
  EXPECT_TRUE(queue.empty());
}

}  // namespace
}  // namespace epiagg
