// Microbenchmarks (google-benchmark): the per-operation costs that determine
// how large a network the simulator sustains — elementary averaging steps,
// pair-selector draws, topology sampling, event-queue throughput, the
// instance-set merge of the counting protocol, and the AoS-vs-SoA layout
// comparison behind the NodeStateStore refactor (measured, not asserted).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "core/avg_model.hpp"
#include "graph/generators.hpp"
#include "protocol/size_estimation.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/event_engine.hpp"
#include "sim/node_store.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

namespace {

using namespace epiagg;

void BM_CompleteTopologyRandomNeighbor(benchmark::State& state) {
  const CompleteTopology topology(100000);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology.random_neighbor(42, rng));
  }
}
BENCHMARK(BM_CompleteTopologyRandomNeighbor);

void BM_GraphTopologyRandomNeighbor(benchmark::State& state) {
  Rng rng(2);
  const GraphTopology topology(random_out_view(100000, 20, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology.random_neighbor(42, rng));
  }
}
BENCHMARK(BM_GraphTopologyRandomNeighbor);

void BM_GraphTopologyRandomArc(benchmark::State& state) {
  Rng rng(3);
  const GraphTopology topology(random_out_view(100000, 20, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology.random_arc(rng));
  }
}
BENCHMARK(BM_GraphTopologyRandomArc);

void BM_SelectorNextPair(benchmark::State& state) {
  const auto strategy = static_cast<PairStrategy>(state.range(0));
  auto topology = std::make_shared<CompleteTopology>(100000);
  auto selector = make_pair_selector(strategy, topology);
  Rng rng(4);
  selector->begin_cycle(rng);
  std::size_t draws = 0;
  for (auto _ : state) {
    if (draws++ == 100000) {
      draws = 0;
      selector->begin_cycle(rng);
    }
    benchmark::DoNotOptimize(selector->next_pair(rng));
  }
}
BENCHMARK(BM_SelectorNextPair)
    ->Arg(static_cast<int>(PairStrategy::kPerfectMatching))
    ->Arg(static_cast<int>(PairStrategy::kRandomEdge))
    ->Arg(static_cast<int>(PairStrategy::kSequential))
    ->Arg(static_cast<int>(PairStrategy::kPmRand));

void BM_AvgModelFullCycle(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  auto topology = std::make_shared<CompleteTopology>(n);
  auto selector = make_pair_selector(PairStrategy::kSequential, topology);
  Rng rng(5);
  AvgModel model(generate_values(ValueDistribution::kNormal, n, rng), *selector);
  for (auto _ : state) {
    model.run_cycle(rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AvgModelFullCycle)->Arg(1000)->Arg(10000)->Arg(100000);

// -------------------------------------------------------------------
// Scheduler hold model — the calendar queue vs the binary heap it replaced
// -------------------------------------------------------------------
//
// The classic "hold" workload: keep `pending` events queued, and per
// operation pop the minimum and push a replacement a random delay later.
// The binary heap pays O(log pending) per operation; the calendar queue's
// bucket map keeps it O(1), which is the whole event-engine scaling story
// (docs/api.md "Event-engine internals").

struct HeapEntry {
  SimTime time;
  std::uint64_t sequence;
  std::uint64_t payload;
};

struct HeapLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return std::tie(a.time, a.sequence) > std::tie(b.time, b.sequence);
  }
};

void BM_PriorityQueueHold(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLater> queue;
  Rng rng(50);
  std::uint64_t sequence = 0;
  for (std::size_t i = 0; i < pending; ++i)
    queue.push({rng.uniform(), sequence++, i});
  for (auto _ : state) {
    const HeapEntry next = queue.top();
    queue.pop();
    queue.push({next.time + rng.uniform(), sequence++, next.payload});
    benchmark::DoNotOptimize(queue.size());
  }
}
BENCHMARK(BM_PriorityQueueHold)->Arg(10000)->Arg(1000000);

void BM_CalendarQueueHold(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  CalendarQueue<std::uint64_t> queue;
  Rng rng(50);
  std::uint64_t sequence = 0;
  for (std::size_t i = 0; i < pending; ++i)
    queue.push(rng.uniform(), sequence++, i);
  for (auto _ : state) {
    auto next = queue.pop_min();
    queue.push(next.time + rng.uniform(), sequence++, next.payload);
    benchmark::DoNotOptimize(queue.size());
  }
}
BENCHMARK(BM_CalendarQueueHold)->Arg(10000)->Arg(1000000);

/// One Δt of the full event-engine push-pull run (typed records, arena
/// payloads, batched same-timestamp delivery) — the end-to-end number the
/// event_scalability sweep tracks, in per-cycle units.
void BM_EventCycle(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Simulation sim =
      SimulationBuilder()
          .nodes(n)
          .engine(EngineKind::kEvent)
          .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
          .epoch_length(30)
          .seed(51)
          .build();
  SimTime until = 0.0;
  for (auto _ : state) {
    until += 1.0;
    sim.run_time(until);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventCycle)->Arg(10000)->Arg(100000);

void BM_InstanceSetExchange(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  InstanceSet a, b;
  for (int i = 0; i < instances; ++i) {
    a.lead(static_cast<InstanceId>(i * 2));
    b.lead(static_cast<InstanceId>(i * 2 + 1));
  }
  for (auto _ : state) {
    InstanceSet::exchange(a, b);
    benchmark::DoNotOptimize(a.total_mass());
  }
}
BENCHMARK(BM_InstanceSetExchange)->Arg(1)->Arg(4)->Arg(16);

void BM_RandomOutViewGeneration(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_out_view(n, 20, rng));
  }
}
BENCHMARK(BM_RandomOutViewGeneration)->Arg(10000)->Arg(100000);

// -------------------------------------------------------------------
// AoS vs SoA cycle loops — the layout experiment behind NodeStateStore
// -------------------------------------------------------------------
//
// Two implementations of the same gossip cycle, fed identical RNG streams:
//
//  - AoS: the pre-refactor layout. Static keeps a struct-of-two-doubles per
//    node; churn-style keeps one heap vector PAIR per node (the old
//    NodeState), merging in place as each pair is drawn.
//  - SoA: the shipped NodeStateStore — contiguous per-slot planes, draws
//    batched first, merges applied plane-by-plane.
//
// ISSUE acceptance: the SoA churn loop must be >= 1.5x the AoS one at 1e5.

/// Pre-refactor static node: attribute and approximation interleaved.
struct AosStaticNode {
  double attribute;
  double approximation;
};

void BM_StaticCycleAoS(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(40);
  std::vector<AosStaticNode> nodes(n);
  for (auto& node : nodes) {
    node.attribute = rng.normal();
    node.approximation = node.attribute;
  }
  for (auto _ : state) {
    for (std::size_t step = 0; step < n; ++step) {
      // The SEQ schedule on the complete overlay: initiator in storage
      // order, uniformly random partner.
      const std::size_t i = step;
      std::size_t j = static_cast<std::size_t>(rng.uniform_u64(n - 1));
      if (j >= i) ++j;
      const double merged =
          (nodes[i].approximation + nodes[j].approximation) / 2.0;
      nodes[i].approximation = merged;
      nodes[j].approximation = merged;
    }
    benchmark::DoNotOptimize(nodes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StaticCycleAoS)->Arg(10000)->Arg(100000);

void BM_StaticCycleSoA(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(40);
  std::vector<double> initial(n);
  for (double& x : initial) x = rng.normal();
  NodeStateStore store(1, initial);
  const std::vector<Combiner> combiners{Combiner::kAverage};
  std::vector<ExchangePair> pairs;
  pairs.reserve(n);
  for (auto _ : state) {
    pairs.clear();
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = step;
      std::size_t j = static_cast<std::size_t>(rng.uniform_u64(n - 1));
      if (j >= i) ++j;
      pairs.emplace_back(static_cast<NodeId>(i), static_cast<NodeId>(j));
    }
    store.apply_exchanges(combiners, pairs);
    benchmark::DoNotOptimize(store.approximations(0).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StaticCycleSoA)->Arg(10000)->Arg(100000);

/// Pre-refactor churn node: one heap vector pair per node (NodeState of the
/// PR 3 ChurnGossipImpl).
struct AosChurnNode {
  std::vector<double> attributes;
  std::vector<double> approximations;
  bool participating = false;
};

/// One churn event per cycle (leave + join) keeps the allocator honest: the
/// AoS layout re-allocates two heap vectors per joiner, the store reuses a
/// zeroed plane slot.
void BM_ChurnCycleAoS(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(41);
  std::vector<AosChurnNode> nodes(n);
  AliveSet participants;
  for (NodeId id = 0; id < n; ++id) {
    const double value = rng.normal();
    nodes[id] = AosChurnNode{{value}, {value}, true};
    participants.insert(id);
  }
  std::vector<NodeId> free_slots;
  std::vector<NodeId> scratch;
  for (auto _ : state) {
    const NodeId victim = participants.sample(rng);
    participants.erase(victim);
    free_slots.push_back(victim);
    const NodeId id = free_slots.back();
    free_slots.pop_back();
    const double value = rng.normal();
    nodes[id] = AosChurnNode{{value}, {value}, true};
    participants.insert(id);

    scratch = participants.members();
    for (const NodeId initiator : scratch) {
      const NodeId peer = participants.sample_other(initiator, rng);
      double& a = nodes[initiator].approximations[0];
      double& b = nodes[peer].approximations[0];
      const double merged = (a + b) / 2.0;
      a = merged;
      b = merged;
    }
    benchmark::DoNotOptimize(nodes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChurnCycleAoS)->Arg(10000)->Arg(100000);

void BM_ChurnCycleSoA(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(41);
  std::vector<double> initial(n);
  for (double& x : initial) x = rng.normal();
  NodeStateStore store(1, initial);
  const std::vector<Combiner> combiners{Combiner::kAverage};
  AliveSet participants;
  for (NodeId id = 0; id < n; ++id) {
    store.set_participating(id, true);
    participants.insert(id);
  }
  std::vector<NodeId> scratch;
  std::vector<ExchangePair> pairs;
  pairs.reserve(n);
  for (auto _ : state) {
    const NodeId victim = participants.sample(rng);
    participants.erase(victim);
    store.release(victim);
    const NodeId id = store.acquire();
    store.seed_node(id, rng.normal());
    store.set_participating(id, true);
    participants.insert(id);

    scratch = participants.members();
    pairs.clear();
    for (const NodeId initiator : scratch)
      pairs.emplace_back(initiator, participants.sample_other(initiator, rng));
    store.apply_exchanges(combiners, pairs);
    benchmark::DoNotOptimize(store.approximations(0).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChurnCycleSoA)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
