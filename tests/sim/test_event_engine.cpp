// The event-engine scheduler (SimEventEngine over the calendar queue) and
// the message latency models.
#include "sim/sim_events.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace epiagg {
namespace {

/// A wake record tagged with `id`, so handlers can tell events apart.
SimEventRecord record(NodeId id) {
  SimEventRecord event;
  event.kind = EvKind::kWake;
  event.a = id;
  return event;
}

/// Runs the engine to `t_end`, returning the ids of the popped records.
std::vector<NodeId> drain(SimEventEngine& engine, SimTime t_end) {
  std::vector<NodeId> order;
  engine.run_until(t_end,
                   [&](const SimEventRecord& event) { order.push_back(event.a); });
  return order;
}

TEST(SimEventEngine, StartsAtTimeZero) {
  SimEventEngine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(SimEventEngine, ExecutesInTimeOrder) {
  SimEventEngine engine;
  engine.schedule_at(3.0, record(3));
  engine.schedule_at(1.0, record(1));
  engine.schedule_at(2.0, record(2));
  EXPECT_EQ(drain(engine, 10.0), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(engine.events_processed(), 3u);
}

TEST(SimEventEngine, EqualTimesAreFifo) {
  SimEventEngine engine;
  for (NodeId i = 0; i < 10; ++i) engine.schedule_at(1.0, record(i));
  EXPECT_EQ(drain(engine, 1.0),
            (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(SimEventEngine, ScheduleAfterIsRelativeToNow) {
  SimEventEngine engine;
  engine.schedule_at(5.0, record(0));
  double fired_at = -1.0;
  engine.run_until(20.0, [&](const SimEventRecord& event) {
    if (event.a == 0) {
      engine.schedule_after(2.5, record(1));
    } else {
      fired_at = engine.now();
    }
  });
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimEventEngine, RunUntilIncludesTheBoundaryAndAdvancesTheClock) {
  SimEventEngine engine;
  engine.schedule_at(1.0, record(1));
  engine.schedule_at(2.0, record(2));
  engine.schedule_at(3.0, record(3));
  EXPECT_EQ(drain(engine, 2.0), (std::vector<NodeId>{1, 2}));  // inclusive
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(drain(engine, 10.0), (std::vector<NodeId>{3}));
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);  // clock advances to the horizon
  EXPECT_TRUE(drain(engine, 12.5).empty());
  EXPECT_DOUBLE_EQ(engine.now(), 12.5);  // even with nothing to run
}

TEST(SimEventEngine, EventsCanChainIndefinitely) {
  SimEventEngine engine;
  engine.schedule_at(0.0, record(0));
  int ticks = 0;
  engine.run_until(100.0, [&](const SimEventRecord& event) {
    ++ticks;
    engine.schedule_after(1.0, event);
  });
  EXPECT_EQ(ticks, 101);  // t = 0..100 inclusive
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(SimEventEngine, RejectsPastAndNegativeSchedules) {
  SimEventEngine engine;
  EXPECT_THROW(engine.schedule_at(-1.0, record(0)), ContractViolation);
  EXPECT_THROW(engine.schedule_after(-1.0, record(0)), ContractViolation);
  engine.schedule_at(5.0, record(0));
  drain(engine, 5.0);
  EXPECT_THROW(engine.schedule_at(1.0, record(0)), ContractViolation);
  EXPECT_THROW(engine.schedule_after(-0.5, record(0)), ContractViolation);
  engine.schedule_at(5.0, record(1));  // "now" itself is not the past
  EXPECT_EQ(drain(engine, 5.0), (std::vector<NodeId>{1}));
}

TEST(LatencyModels, ConstantAndBounds) {
  Rng rng(1);
  ConstantLatency zero(0.0);
  EXPECT_DOUBLE_EQ(zero.sample(rng), 0.0);
  ConstantLatency fixed(0.25);
  EXPECT_DOUBLE_EQ(fixed.sample(rng), 0.25);
  EXPECT_THROW(ConstantLatency(-1.0), ContractViolation);
}

TEST(LatencyModels, UniformWithinRange) {
  Rng rng(2);
  UniformLatency latency(0.1, 0.3);
  for (int i = 0; i < 1000; ++i) {
    const double d = latency.sample(rng);
    EXPECT_GE(d, 0.1);
    EXPECT_LT(d, 0.3);
  }
  EXPECT_THROW(UniformLatency(0.3, 0.1), ContractViolation);
}

TEST(LatencyModels, ExponentialMean) {
  Rng rng(3);
  ExponentialLatency latency(0.2);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += latency.sample(rng);
  EXPECT_NEAR(sum / kDraws, 0.2, 0.005);
  EXPECT_THROW(ExponentialLatency(0.0), ContractViolation);
}

}  // namespace
}  // namespace epiagg
