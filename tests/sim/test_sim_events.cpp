// The typed-event machinery behind the message-based impls: the payload
// arenas (sim/payload_arena.hpp) that keep in-flight messages heap-free in
// the steady state, and their recycling through SimEventEngine pops. Pins
// the recycling contracts a use-after-release or stale-index bug would
// break — these tests run under ASan+UBSan in CI, where such a bug turns
// into a hard failure instead of silent corruption.
#include "sim/sim_events.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/payload_arena.hpp"
#include "sim/simulation.hpp"

namespace epiagg {
namespace {

TEST(SlabArena, RecyclesRowsThroughTheFreeList) {
  SlabArena<double> arena(4);
  const std::uint32_t a = arena.acquire();
  const std::uint32_t b = arena.acquire();
  EXPECT_EQ(arena.rows(), 2u);
  arena.release(b);
  arena.release(a);
  // LIFO reuse: the most recently released row comes back first, and the
  // high-water mark does not move.
  EXPECT_EQ(arena.acquire(), a);
  EXPECT_EQ(arena.acquire(), b);
  EXPECT_EQ(arena.rows(), 2u);
  EXPECT_EQ(arena.free_count(), 0u);
}

TEST(SlabArena, RowAddressesAreStableAcrossBlockGrowth) {
  // A delivery reads the push payload while staging its reply in a freshly
  // acquired row; if growth reallocated existing rows, that read would be a
  // use-after-free. Force several block allocations and verify the first
  // row never moves.
  SlabArena<double> arena(3);
  const std::uint32_t first = arena.acquire();
  double* const stable = arena.at(first).data();
  arena.at(first)[0] = 1.5;
  arena.at(first)[1] = 2.5;
  arena.at(first)[2] = 3.5;
  for (int i = 0; i < 5000; ++i) arena.acquire();  // > 4 blocks of 1024
  EXPECT_EQ(arena.at(first).data(), stable);
  EXPECT_EQ(arena.at(first)[0], 1.5);
  EXPECT_EQ(arena.at(first)[1], 2.5);
  EXPECT_EQ(arena.at(first)[2], 3.5);
}

TEST(ObjectArena, ReleasedObjectsKeepTheirBuffers) {
  ObjectArena<std::vector<double>> arena;
  const std::uint32_t slot = arena.acquire();
  arena.at(slot).assign(256, 1.0);
  const double* const buffer = arena.at(slot).data();
  arena.release(slot);
  // Re-acquiring the slot hands back the SAME object, capacity intact:
  // copy-assigning a same-or-smaller payload into it allocates nothing.
  ASSERT_EQ(arena.acquire(), slot);
  EXPECT_GE(arena.at(slot).capacity(), 256u);
  arena.at(slot).assign(128, 2.0);
  EXPECT_EQ(arena.at(slot).data(), buffer);
  EXPECT_EQ(arena.size(), 1u);
}

TEST(SimEventEngine, StalePopsStillRecycleTheirArenaSlots) {
  // The impls release a record's payload slot when the record POPS — before
  // the generation/epoch staleness checks decide whether to deliver it. A
  // leak here is invisible to correctness tests (stale messages are simply
  // dropped) but would grow the arena without bound under churn; pin the
  // free-list accounting instead.
  SimEventEngine engine;
  SlabArena<double> payloads(2);
  for (int i = 0; i < 100; ++i) {
    SimEventRecord push;
    push.kind = EvKind::kPush;
    push.a = 0;
    push.gen_a = static_cast<std::uint32_t>(i % 2);  // half are "stale"
    push.slab = payloads.acquire();
    engine.schedule_at(0.25 * i, push);
  }
  std::size_t delivered = 0;
  engine.run_until(100.0, [&](SimEventRecord& event) {
    // Release FIRST, deliver after — mirroring the impls' handle() shape.
    payloads.release(event.slab);
    if (event.gen_a != 0) return;  // crashed-in-flight addressee
    ++delivered;
  });
  EXPECT_EQ(delivered, 50u);
  EXPECT_EQ(payloads.free_count(), payloads.rows());
}

TEST(SimEvents, OrphanedInFlightTrafficRecyclesDeterministically) {
  // End-to-end generation-recycling regression: churn + latency keep
  // payload-bearing messages in flight across crashes, so slots recycle
  // through the stale-drop path as well as the delivery path. Two identical
  // runs must agree bit-for-bit; ASan in CI turns any use-after-recycle
  // into a failure.
  auto run = [](std::uint64_t seed) {
    Simulation sim =
        SimulationBuilder()
            .nodes(300)
            .engine(EngineKind::kEvent)
            .aggregates({AggregatorSpec::average("avg"),
                         AggregatorSpec::maximum("max"),
                         AggregatorSpec::minimum("min")})  // 3 planes: slabs
            .epoch_length(20)
            .failures(FailureSpec::with_churn(
                std::make_shared<ConstantFluctuation>(4)))
            .latency(std::make_shared<ConstantLatency>(0.4))
            .workload(
                WorkloadSpec::from_distribution(ValueDistribution::kNormal))
            .seed(seed)
            .build();
    sim.run_time(45.0);
    return std::pair{sim.mean(), sim.messages_sent()};
  };
  const auto golden = run(97);
  EXPECT_GT(golden.second, 0u);
  EXPECT_EQ(run(97), golden);
  EXPECT_NE(run(96).second, golden.second);
}

}  // namespace
}  // namespace epiagg
