// Internal implementation contract behind sim/simulation.hpp.
//
// Simulation is a pimpl over detail::SimulationImpl; the cycle-engine impls
// live in simulation.cpp and the event-engine impls (message-split
// exchanges, adaptive epochs, live overlays — see simulation_event.cpp) in
// their own translation unit. This header carries the pieces both need: the
// impl base class, the shared epoch summarizers, and the factory functions
// the builder dispatches through. Not part of the public API.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary_runtime.hpp"
#include "common/stats.hpp"
#include "membership/peer_sampling.hpp"
#include "sim/node_store.hpp"
#include "sim/simulation.hpp"

namespace epiagg {
namespace detail {

[[noreturn]] void unsupported(const std::string& what);

// ===================================================================
// SimulationImpl — shared driver skeleton
// ===================================================================

class SimulationImpl {
public:
  SimulationImpl(std::shared_ptr<Rng> rng,
                 std::vector<std::shared_ptr<Observer>> observers,
                 std::size_t epoch_length)
      : rng_(std::move(rng)),
        observers_(std::move(observers)),
        epoch_length_(epoch_length) {}
  virtual ~SimulationImpl() = default;

  virtual void run_cycle() {
    unsupported("this configuration advances in simulated time; use run_time()");
  }

  void run_cycles(std::size_t cycles) {
    for (std::size_t c = 0; c < cycles; ++c) run_cycle();
  }

  EpochSummary run_epoch() {
    if (epoch_length_ == 0)
      unsupported(
          "no epochs configured; set .epoch_length(cycles) on the builder to "
          "enable §4 restarts");
    const std::size_t before = epochs_.size();
    while (epochs_.size() == before) run_cycle();
    return epochs_.back();
  }

  virtual void run_time(SimTime /*until*/) {
    unsupported("run_time() drives the event engine; this simulation is "
                "cycle-based — use run_cycle()/run_cycles()");
  }

  std::size_t cycle() const { return cycle_; }

  /// Draw-provenance ledger of the master stream (empty unless the build
  /// defines EPIAGG_RNG_AUDIT). Copies so callers can sort/diff freely.
  std::vector<RngDrawRecord> draw_ledger() const {
#ifdef EPIAGG_RNG_AUDIT
    return rng_->audit_ledger();
#else
    return {};
#endif
  }

  std::uint64_t total_draws() const {
#ifdef EPIAGG_RNG_AUDIT
    return rng_->audit_total_draws();
#else
    return 0;
#endif
  }

  virtual std::size_t population_size() const = 0;
  virtual std::size_t participant_count() const { return population_size(); }

  virtual const std::vector<double>& approximations() const {
    unsupported("this protocol keeps no dense approximation vector");
  }
  virtual const std::vector<double>& slot_approximations(std::size_t /*s*/) const {
    unsupported("this protocol has no aggregate slots");
  }
  virtual double variance() const {
    return empirical_variance(approximations());
  }
  virtual double mean() const { return epiagg::mean(approximations()); }

  virtual void set_value(NodeId /*id*/, double /*value*/) {
    unsupported("this protocol has no per-node attributes to update");
  }
  virtual void set_slot_value(NodeId /*id*/, std::size_t /*slot*/,
                              double /*value*/) {
    unsupported("this protocol has no aggregate slots");
  }

  const std::vector<EpochSummary>& epochs() const { return epochs_; }

  virtual double total_mass() const {
    unsupported("total_mass() is a size-estimation / push-sum diagnostic");
  }
  virtual std::shared_ptr<const Topology> topology() const {
    unsupported("this configuration samples peers from the live population; "
                "no fixed topology exists");
  }
  virtual const std::vector<AsyncSample>& samples() const {
    unsupported("samples() belongs to the event engine; use epochs() or "
                "observers on the cycle engine");
  }
  virtual std::uint64_t messages_sent() const {
    unsupported("message counters belong to the event engine");
  }
  virtual std::uint64_t messages_lost() const {
    unsupported("message counters belong to the event engine");
  }

  virtual const std::vector<AdaptiveEpochSample>& adaptive_samples() const {
    unsupported("adaptive_samples() reports per-node epoch completions; "
                "configure .adaptive_epochs(...) on the event engine");
  }
  virtual EpochId frontier_epoch() const {
    unsupported("frontier_epoch() belongs to the adaptive-epoch event path; "
                "configure .adaptive_epochs(...)");
  }
  virtual NodeId join(double /*value*/) {
    unsupported("join(value) injects a node into the adaptive-epoch event "
                "path; elsewhere drive churn through "
                "FailureSpec::with_churn(...)");
  }

protected:
  void notify_exchange(NodeId i, NodeId j) {
    for (const auto& observer : observers_) observer->on_exchange(i, j);
  }

  void notify_cycle(const CycleView& view) {
    for (const auto& observer : observers_) observer->on_cycle_end(view);
  }

  void record_epoch(const EpochSummary& summary) {
    epochs_.push_back(summary);
    for (const auto& observer : observers_) observer->on_epoch_end(summary);
  }

  bool observed() const { return !observers_.empty(); }

  /// True when at least one attached observer asked for per-cycle attack
  /// damage stats (computing them costs a state sweep; skipping the sweep
  /// when nobody listens keeps the observer pipeline RNG-neutral AND
  /// cost-neutral).
  bool want_attack_impact() const {
    return std::any_of(observers_.begin(), observers_.end(),
                       [](const std::shared_ptr<Observer>& o) {
                         return o->wants_attack_impact();
                       });
  }

  void notify_attack_impact(const AttackImpact& impact) {
    for (const auto& observer : observers_)
      if (observer->wants_attack_impact()) observer->on_attack_impact(impact);
  }

  /// True when at least one attached observer asked for per-cycle tracking
  /// errors (same opt-in contract as want_attack_impact(): the truth +
  /// estimate sweep runs only when somebody listens, keeping the pipeline
  /// RNG- and cost-neutral).
  bool want_tracking_error() const {
    return std::any_of(observers_.begin(), observers_.end(),
                       [](const std::shared_ptr<Observer>& o) {
                         return o->wants_tracking_error();
                       });
  }

  void notify_tracking_error(const TrackingError& sample) {
    for (const auto& observer : observers_)
      if (observer->wants_tracking_error())
        observer->on_tracking_error(sample);
  }

  /// Computes and fires one TrackingError record per aggregator instance
  /// (call only when want_tracking_error(); RNG-neutral). `ids` are the
  /// nodes whose state counts (the participants); the scratch vectors are
  /// caller-owned to avoid per-cycle allocation. Defined in simulation.cpp.
  void report_tracking_errors(const NodeStateStore& store,
                              const AggregatorPlan& plan, std::size_t cycle,
                              std::span<const NodeId> ids,
                              std::vector<double>& attr_scratch,
                              std::vector<double>& read_scratch);

  std::shared_ptr<Rng> rng_;
  std::vector<std::shared_ptr<Observer>> observers_;
  std::vector<EpochSummary> epochs_;
  std::size_t epoch_length_ = 0;
  std::size_t cycle_ = 0;
};

// ===================================================================
// Shared summarizers (cycle- and event-engine impls)
// ===================================================================

/// Exact answer a combiner converges to over a snapshot.
double exact_answer(Combiner combiner, std::span<const double> xs);

/// Participant moments under the rule summarize_counting_epoch applies —
/// "0 if none". Churn can crash every participant of an epoch while the
/// joiners wait for the next restart, so a moment that needs more samples
/// than remain (one for the mean, two for the variance) reads 0.
inline double mean_or_zero(const RunningStats& stats) {
  return stats.count() > 0 ? stats.mean() : 0.0;
}
inline double variance_or_zero(const RunningStats& stats) {
  return stats.count() > 1 ? stats.variance() : 0.0;
}

/// Fills the averaging-style epoch summary from accumulated approximation
/// statistics (moments of an empty or single-node set read 0).
EpochSummary summarize_participants(const RunningStats& stats,
                                    std::size_t end_cycle, EpochId epoch,
                                    std::size_t population_start,
                                    std::size_t population_end, double truth);

/// Scans the participants' counting instances, feeds converged estimates
/// back into the per-node size priors, and builds the §4 epoch summary.
/// Shared by the cycle- and event-engine size-estimation impls:
/// `instances_of(id)` yields the node's InstanceSet, `store_prior(id, v)`
/// persists its next size prior.
template <typename InstancesOf, typename StorePrior>
EpochSummary summarize_counting_epoch(const AliveSet& participants,
                                      InstancesOf&& instances_of,
                                      StorePrior&& store_prior,
                                      std::size_t end_cycle, EpochId epoch,
                                      std::size_t population_start,
                                      std::size_t population_end,
                                      std::size_t instances) {
  EpochSummary summary;
  summary.end_cycle = end_cycle;
  summary.epoch = epoch;
  summary.population_start = population_start;
  summary.population_end = population_end;
  summary.instances = instances;

  RunningStats stats;
  for (const NodeId id : participants.members()) {
    const auto estimate = instances_of(id).estimate();
    if (estimate.has_value()) {
      stats.add(*estimate);
      store_prior(id, std::max(1.0, *estimate));
    }
  }
  summary.reporting = stats.count();
  if (stats.count() > 0) {
    summary.est_min = stats.min();
    summary.est_mean = stats.mean();
    summary.est_max = stats.max();
    summary.truth = static_cast<double>(population_start);
  }
  return summary;
}

/// Push-sum's failure mode under message loss: every lost half takes its
/// weight along, so weights shrink until halving one yields 0 and the
/// estimate sum/weight reads 0/0. Both push-sum impls check every halved
/// weight and throw at the first 0 instead of reporting NaN.
inline void expect_push_sum_weight(double half_weight, NodeId id,
                                   std::size_t cycle) {
  if (half_weight > 0.0) return;
  unsupported("push-sum weight underflow: node " + std::to_string(id) +
              " halved its weight to 0 in cycle " + std::to_string(cycle) +
              "; lost messages drained the weight faster than deliveries "
              "refill it, so its estimate sum/weight would read 0/0 — lower "
              "the message loss or run fewer cycles");
}

/// Walks a live overlay's current graph and pushes the structural health
/// record through the observer pipeline (opt-in, RNG-neutral). Shared by the
/// cycle- and event-engine live-membership impls.
void report_overlay_health(const PeerSamplingService& overlay,
                           std::size_t cycle,
                           std::span<const std::shared_ptr<Observer>> observers);

// ===================================================================
// Aggregator-plan execution helpers (cycle- and event-engine impls)
// ===================================================================

/// Reads one aggregator instance's estimate at one node: gathers the
/// instance's (non-contiguous, slot-major) state planes into a stack
/// buffer and applies its read kernel. For width-1 kinds this is exactly
/// store.approximation(id, inst.offset).
[[nodiscard]] double read_instance(const NodeStateStore& store,
                                   const AggregatorInstance& inst, NodeId id);

/// Seeds the state of every instance wider than one plane — attribute AND
/// approximation planes of ids 0..initial.size()-1 — through its init
/// kernel. A store built from `initial` already holds the raw attribute in
/// every plane, and the init contract (state[0] == a) makes that exactly
/// the seeded state of every width-1 kind, decaying and windowed included,
/// so those instances are skipped rather than written a second time.
void seed_wide_instances(NodeStateStore& store, const AggregatorPlan& plan,
                         std::span<const double> initial);

/// Writes one instance's freshly initialized state into the ATTRIBUTE
/// planes only (callers snapshot / restart to surface it).
void seed_instance_attributes(NodeStateStore& store,
                              const AggregatorInstance& inst, NodeId id,
                              double a);

/// Re-seeds the ATTRIBUTE planes of every instance for node `id` from a
/// new scalar value, leaving approximations untouched (the set_value /
/// time-varying update: the network picks the change up through epoch
/// restarts, windows, or decay — not instantly).
void reseed_attributes(NodeStateStore& store, const AggregatorPlan& plan,
                       NodeId id, double a);

/// Once-per-cycle decay/window pass (draws NO randomness — the lockstep
/// guarantee the determinism goldens rely on): runs every instance's decay
/// kernel over all materialized ids against their current attributes, and
/// re-snapshots windowed instances whose window length divides `cycle`.
/// No-op for plans without dynamics.
void apply_aggregate_dynamics(NodeStateStore& store, const AggregatorPlan& plan,
                              std::size_t cycle);

/// Evolves every listed node's scalar attribute one cycle under a
/// time-varying workload (kDrift / kStep / kSeasonal) and re-seeds the
/// instances' attribute planes. `t` is the 1-based cycle being run; ids
/// are walked in span order. Caller wraps the call in the "workload" RNG
/// audit scope.
void evolve_workload(NodeStateStore& store, const AggregatorPlan& plan,
                     const WorkloadSpec& workload, std::size_t t,
                     std::span<const NodeId> ids, Rng& rng);


// ===================================================================
// Event-engine factories (simulation_event.cpp)
// ===================================================================

/// Everything the event-engine impls share, resolved by the builder.
struct EventSpec {
  std::size_t epoch_length = 0;  ///< 0 = continuous (no restarts)
  bool adaptive = false;         ///< local per-node epoch clocks (§4 async)
  double clock_drift = 0.0;      ///< adaptive: period in [1 - d, 1 + d]
  WaitingTime waiting = WaitingTime::kConstant;
  double loss = 0.0;
  std::shared_ptr<const LatencyModel> latency;  ///< null = instant delivery
  std::shared_ptr<ChurnSchedule> churn;         ///< null = static population
  ValueDistribution joiner_distribution = ValueDistribution::kUniform;
  /// Full workload spec: carries the time-varying dynamics the averaging
  /// impl applies at every integer simulated time (static for all other
  /// configurations).
  WorkloadSpec workload;
  /// Shared adversary machinery (null = benign run; the impls then skip
  /// every adversarial branch and consume identical RNG).
  std::shared_ptr<AdversaryRuntime> adversary;
};

/// Push–pull averaging over any aggregate plan on the event engine.
/// Exactly one of the partner sources is used: a live `overlay`, a fixed
/// `topology`, or — when both are null — uniform sampling from the live
/// participant set (the complete, peer-sampled overlay).
std::unique_ptr<SimulationImpl> make_event_averaging(
    std::shared_ptr<Rng> rng, std::vector<std::shared_ptr<Observer>> observers,
    EventSpec spec, AggregatorPlan plan, std::vector<double> initial,
    std::unique_ptr<PeerSamplingService> overlay,
    std::shared_ptr<const Topology> topology);

/// §4 counting instances on the event engine. Gossips over the complete
/// overlay (`overlay == nullptr`) or a live membership co-run.
std::unique_ptr<SimulationImpl> make_event_size_estimation(
    std::shared_ptr<Rng> rng, std::vector<std::shared_ptr<Observer>> observers,
    EventSpec spec, std::size_t initial_size, double expected_leaders,
    std::unique_ptr<PeerSamplingService> overlay);

/// The Kempe–Dobra–Gehrke push-sum baseline on the event engine: push-only
/// messages whose (sum, weight) mass is genuinely in flight under latency.
std::unique_ptr<SimulationImpl> make_event_push_sum(
    std::shared_ptr<Rng> rng, std::vector<std::shared_ptr<Observer>> observers,
    EventSpec spec, std::vector<double> initial,
    std::shared_ptr<const Topology> topology);

}  // namespace detail
}  // namespace epiagg
