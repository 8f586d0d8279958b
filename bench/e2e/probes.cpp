#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/pair_selector.hpp"
#include "graph/topology.hpp"
#include "membership/newscast.hpp"
#include "protocol/size_estimation.hpp"
#include "sim/node_store.hpp"
#include "sim/observers.hpp"
#include "sim/sim_events.hpp"

namespace epiagg::e2e {
namespace {

// run.py takes the median batch of a probe, so one slow batch (a page
// fault, a preempted core) does not move the result.
constexpr std::size_t kMinBatches = 5;
constexpr std::size_t kMaxBatches = 2000;

/// The per-cycle observer pass of an observed cycle run calls this once per
/// exchange, through the Observer interface.
class ExchangeCounter final : public Observer {
public:
  void on_exchange(NodeId i, NodeId j) override { sum_ += i ^ j; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }

private:
  std::uint64_t sum_ = 0;
};

class Prober {
public:
  Prober(const ProbeShape& shape, std::uint64_t seed, double seconds,
         Tracer& tracer)
      : shape_(shape), seed_(seed), rng_(seed), seconds_(seconds),
        tracer_(tracer) {}

  /// GETPAIR_SEQ over the complete overlay, called through the interface
  /// the cycle engine holds.
  void pairs() {
    tracer_.begin("core.pair");
    const auto topology =
        std::make_shared<CompleteTopology>(static_cast<NodeId>(shape_.nodes));
    const std::unique_ptr<PairSelector> selector =
        make_pair_selector(PairStrategy::kSequential, topology);
    repeat([&] {
      selector->begin_cycle(rng_);
      for (std::size_t k = 0; k < shape_.nodes; ++k) {
        const auto [i, j] = selector->next_pair(rng_);
        sink_ += i ^ j;
      }
      return shape_.nodes;
    });
    tracer_.end();
  }

  /// NodeStateStore kernels on a store of the workload's size and plane
  /// count: exchanges, deliveries, slot churn and the epoch snapshot.
  void store() {
    const std::size_t n = shape_.nodes;
    const std::size_t planes = shape_.combiners.size();
    NodeStateStore store(planes, uniform_values(n));

    tracer_.begin("sim.store.exchange");
    const std::vector<ExchangePair> pairs = cycle_pairs(n, n);
    repeat([&] {
      store.apply_exchanges(shape_.combiners, pairs);
      return pairs.size() * planes;
    });
    tracer_.end();

    tracer_.begin("sim.store.delivery");
    std::vector<NodeId> targets(n);
    for (NodeId& t : targets) t = static_cast<NodeId>(rng_.uniform_u64(n));
    const std::vector<double> payload = uniform_values(n * planes);
    repeat([&] {
      store.apply_deliveries(shape_.combiners, targets, payload);
      return targets.size() * planes;
    });
    tracer_.end();

    tracer_.begin("sim.store.churn");
    // Releasing a fixed set of ids and acquiring as many hands the same ids
    // back (the free-list is LIFO), so every batch does the same work.
    const std::size_t churned = std::min<std::size_t>(1024, n / 2);
    const std::vector<std::uint64_t> victims =
        rng_.sample_without_replacement(n, churned);
    repeat([&] {
      for (const std::uint64_t id : victims) store.release(static_cast<NodeId>(id));
      for (std::size_t k = 0; k < churned; ++k) sink_ += store.acquire();
      return churned;
    });
    tracer_.end();

    tracer_.begin("sim.store.snapshot");
    repeat([&] {
      store.snapshot_all();
      return n;
    });
    tracer_.end();
    sink_ += static_cast<std::uint64_t>(store.approximation(0, 0) * 1024.0);
  }

  /// One virtual on_exchange per exchange plus a RunningStats pass over the
  /// estimates, per node.
  void observe() {
    tracer_.begin("sim.observe");
    const std::size_t n = shape_.nodes;
    const std::vector<double> values = uniform_values(n);
    const std::vector<ExchangePair> pairs = cycle_pairs(n, n);
    const auto counter = std::make_shared<ExchangeCounter>();
    const std::vector<std::shared_ptr<Observer>> observers{counter};
    repeat([&] {
      for (const auto& [i, j] : pairs)
        for (const auto& observer : observers) observer->on_exchange(i, j);
      RunningStats stats;
      for (const double x : values) stats.add(x);
      sink_ += static_cast<std::uint64_t>(stats.variance() * 1024.0);
      return n;
    });
    tracer_.end();
    sink_ += counter->sum();
  }

  /// One calendar-queue hold: pop the earliest record and push it back
  /// later by the workload's delay mix, one wake-up (+1, or Exp(1) under
  /// exponential waiting) per two latency-delayed messages.
  void queue() {
    tracer_.begin("sim.queue.hold");
    constexpr std::size_t kDelays = 4096;  // a power of two
    constexpr std::size_t kHolds = 1 << 16;
    std::vector<double> delays(kDelays);
    for (std::size_t k = 0; k < kDelays; ++k) {
      if (k % 3 == 0) {
        delays[k] = shape_.exponential_wait ? rng_.exponential(1.0) : 1.0;
      } else {
        delays[k] = rng_.uniform(0.0, shape_.latency_hi);
      }
    }
    CalendarQueue<SimEventRecord> queue;
    std::uint64_t sequence = 0;
    const double horizon = 1.0 + shape_.latency_hi;
    for (std::size_t k = 0; k < shape_.pending; ++k) {
      SimEventRecord record;
      record.a = static_cast<NodeId>(k);
      queue.push(rng_.uniform() * horizon, sequence++, record);
    }
    const double never = std::numeric_limits<double>::infinity();
    CalendarQueue<SimEventRecord>::Entry entry{};
    repeat([&] {
      for (std::size_t k = 0; k < kHolds; ++k) {
        if (!queue.pop_min_if(never, entry)) break;
        sink_ += entry.payload.a;
        queue.push(entry.time + delays[k & (kDelays - 1)], sequence++,
                   entry.payload);
      }
      return kHolds;
    });
    tracer_.end();
  }

  /// Newscast through the PeerSamplingService interface: a membership
  /// cycle, view-peer draws, and one crash plus one join.
  void membership() {
    const std::size_t n = shape_.overlay_nodes;
    NewscastNetwork network(n, NewscastConfig{20}, seed_);
    PeerSamplingService& overlay = network;
    std::vector<NodeId> alive(n);
    for (std::size_t k = 0; k < n; ++k) alive[k] = static_cast<NodeId>(k);

    tracer_.begin("membership.cycle");
    repeat([&] {
      overlay.run_cycle();
      return overlay.alive_count();
    });
    tracer_.end();

    tracer_.begin("membership.peer");
    repeat([&] {
      for (const NodeId id : alive) sink_ += overlay.random_view_peer(id, rng_);
      return alive.size();
    });
    tracer_.end();

    tracer_.begin("membership.churn");
    constexpr std::size_t kSwaps = 256;
    repeat([&] {
      for (std::size_t k = 0; k < kSwaps; ++k) {
        const std::size_t slot = rng_.uniform_u64(alive.size());
        overlay.remove_node(alive[slot]);
        alive[slot] = overlay.add_node(alive[(slot + 1) % alive.size()]);
      }
      return kSwaps;
    });
    tracer_.end();
  }

  /// InstanceSet::merge_from between nodes that all know the workload's
  /// counting instances.
  void merge() {
    tracer_.begin("protocol.merge");
    constexpr std::size_t kSets = 1024;
    std::vector<InstanceSet> sets(kSets);
    for (std::size_t k = 0; k < shape_.instances; ++k)
      sets[k % kSets].lead(static_cast<InstanceId>(k + 1));
    for (const auto& [i, j] : cycle_pairs(kSets, 16 * kSets))
      InstanceSet::exchange(sets[i], sets[j]);
    const std::vector<ExchangePair> merges = cycle_pairs(kSets, 4 * kSets);
    repeat([&] {
      for (const auto& [i, j] : merges) sets[i].merge_from(sets[j]);
      return merges.size();
    });
    tracer_.end();
    sink_ += sets.front().instance_count();
  }

  /// combine() for each elementary combiner over one plane-sized run.
  void combine_kernel() {
    tracer_.begin("aggregate.combine");
    constexpr std::size_t kLen = 4096;
    constexpr Combiner kCombiners[] = {Combiner::kAverage, Combiner::kMax,
                                       Combiner::kMin};
    std::vector<double> x = uniform_values(kLen);
    const std::vector<double> y = uniform_values(kLen);
    repeat([&] {
      for (const Combiner c : kCombiners)
        for (std::size_t k = 0; k < kLen; ++k) x[k] = combine(c, x[k], y[k]);
      return kLen * std::size(kCombiners);
    });
    tracer_.end();
    sink_ += static_cast<std::uint64_t>(x.front() * 1024.0);
  }

  /// Workload evolution per node: a drift step (rate + jitter·N(0,1)) or a
  /// fresh draw from the workload's distribution.
  void workload() {
    tracer_.begin("workload.sample");
    constexpr std::size_t kBatch = 1 << 16;
    std::vector<double> values(kBatch, 0.5);
    repeat([&] {
      if (shape_.drift) {
        for (double& x : values) x += 0.01 + 0.002 * rng_.normal();
      } else {
        for (double& x : values) x = sample_value(shape_.distribution, rng_);
      }
      return kBatch;
    });
    tracer_.end();
    sink_ += static_cast<std::uint64_t>(std::abs(values.front()) * 1024.0);
  }

  /// The engines' draw mix, counted per draw: partner index, loss trial,
  /// exponential wait and uniform latency.
  void draws() {
    tracer_.begin("common.rng");
    constexpr std::size_t kGroups = 1 << 14;
    repeat([&] {
      double sum = 0.0;
      for (std::size_t k = 0; k < kGroups; ++k) {
        sum += static_cast<double>(rng_.uniform_u64(shape_.nodes));
        sum += rng_.bernoulli(0.01) ? 1.0 : 0.0;
        sum += rng_.exponential(1.0);
        sum += rng_.uniform(0.0, shape_.latency_hi);
      }
      sink_ += static_cast<std::uint64_t>(sum);
      return 4 * kGroups;
    });
    tracer_.end();
  }

  [[nodiscard]] double checksum() const {
    return static_cast<double>(sink_ % 1'000'003);
  }

private:
  /// Runs `batch`, which returns the operations it performed, in child
  /// spans until the probe's time is up and at least kMinBatches ran.
  template <typename Batch>
  void repeat(Batch&& batch) {
    const benchutil::wall_timer timer;
    for (std::size_t k = 0;
         k < kMinBatches || (k < kMaxBatches && timer.seconds() < seconds_);
         ++k) {
      tracer_.begin("batch");
      const std::size_t ops = batch();
      tracer_.end(ops);
    }
  }

  std::vector<double> uniform_values(std::size_t n) {
    std::vector<double> values(n);
    for (double& x : values) x = rng_.uniform();
    return values;
  }

  /// Pairs shaped like one cycle's draws: initiators in id order, each with
  /// a uniformly random other partner.
  std::vector<ExchangePair> cycle_pairs(std::size_t n, std::size_t count) {
    std::vector<ExchangePair> pairs(count);
    for (std::size_t k = 0; k < count; ++k) {
      const auto i = static_cast<NodeId>(k % n);
      auto j = static_cast<NodeId>(rng_.uniform_u64(n - 1));
      if (j >= i) ++j;
      pairs[k] = {i, j};
    }
    return pairs;
  }

  const ProbeShape& shape_;
  std::uint64_t seed_;
  Rng rng_;
  double seconds_;
  Tracer& tracer_;
  std::uint64_t sink_ = 0;
};

}  // namespace

double run_probes(const ProbeShape& shape, std::uint64_t seed,
                  double seconds_per_probe, Tracer& tracer) {
  Prober prober(shape, seed, seconds_per_probe, tracer);
  tracer.begin("probes");
  prober.pairs();
  prober.store();
  prober.observe();
  prober.queue();
  prober.membership();
  prober.merge();
  prober.combine_kernel();
  prober.workload();
  prober.draws();
  tracer.end();
  return prober.checksum();
}

}  // namespace epiagg::e2e
