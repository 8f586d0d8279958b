#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/stats.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "membership/cyclon.hpp"
#include "membership/newscast.hpp"
#include "membership/peer_sampling.hpp"
#include "protocol/size_estimation.hpp"
#include "sim/node_store.hpp"
#include "sim/simulation_impl.hpp"

namespace epiagg {

std::string_view to_string(TopologySpec::Kind kind) {
  switch (kind) {
    case TopologySpec::Kind::kComplete: return "complete";
    case TopologySpec::Kind::kRandomOutView: return "random-out-view";
    case TopologySpec::Kind::kRandomRegular: return "random-regular";
    case TopologySpec::Kind::kRing: return "ring";
    case TopologySpec::Kind::kGrid: return "grid";
    case TopologySpec::Kind::kSmallWorld: return "small-world";
    case TopologySpec::Kind::kScaleFree: return "scale-free";
    case TopologySpec::Kind::kStar: return "star";
  }
  EPIAGG_UNREACHABLE();
}

std::string_view to_string(MembershipSpec::Kind kind) {
  switch (kind) {
    case MembershipSpec::Kind::kNone: return "none";
    case MembershipSpec::Kind::kNewscast: return "newscast";
    case MembershipSpec::Kind::kCyclon: return "cyclon";
  }
  EPIAGG_UNREACHABLE();
}

std::string_view to_string(MembershipSpec::Mode mode) {
  switch (mode) {
    case MembershipSpec::Mode::kLive: return "live";
    case MembershipSpec::Mode::kSnapshot: return "snapshot";
  }
  EPIAGG_UNREACHABLE();
}

std::string_view to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCycle: return "cycle";
    case EngineKind::kEvent: return "event";
  }
  EPIAGG_UNREACHABLE();
}

std::string_view to_string(ProtocolVariant variant) {
  switch (variant) {
    case ProtocolVariant::kPushPullAverage: return "push-pull-average";
    case ProtocolVariant::kPushSum: return "push-sum";
    case ProtocolVariant::kSizeEstimation: return "size-estimation";
  }
  EPIAGG_UNREACHABLE();
}

std::string_view to_string(WorkloadDynamics dynamics) {
  switch (dynamics) {
    case WorkloadDynamics::kStatic: return "static";
    case WorkloadDynamics::kDrift: return "drift";
    case WorkloadDynamics::kStep: return "step";
    case WorkloadDynamics::kSeasonal: return "seasonal";
  }
  EPIAGG_UNREACHABLE();
}

namespace detail {

[[noreturn]] void unsupported(const std::string& what) {
  throw ContractViolation("Simulation: " + what);
}

double exact_answer(Combiner combiner, std::span<const double> xs) {
  switch (combiner) {
    case Combiner::kAverage: return epiagg::mean(xs);
    case Combiner::kMax: return *std::max_element(xs.begin(), xs.end());
    case Combiner::kMin: return *std::min_element(xs.begin(), xs.end());
  }
  EPIAGG_UNREACHABLE();
}

EpochSummary summarize_participants(const RunningStats& stats,
                                    std::size_t end_cycle, EpochId epoch,
                                    std::size_t population_start,
                                    std::size_t population_end, double truth) {
  EpochSummary summary;
  summary.end_cycle = end_cycle;
  summary.epoch = epoch;
  summary.population_start = population_start;
  summary.population_end = population_end;
  summary.truth = truth;
  if (stats.count() > 0) {
    summary.est_mean = stats.mean();
    summary.est_min = stats.min();
    summary.est_max = stats.max();
  }
  summary.variance = variance_or_zero(stats);
  return summary;
}

void report_overlay_health(const PeerSamplingService& overlay,
                           std::size_t cycle,
                           std::span<const std::shared_ptr<Observer>> observers) {
  const Graph graph = overlay.overlay_graph();
  OverlayHealth health;
  health.cycle = cycle;
  health.population = graph.num_nodes();
  std::vector<int> in_degree(graph.num_nodes(), 0);
  std::size_t min_out = ~std::size_t{0};
  std::size_t max_out = 0;
  std::size_t total_out = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::size_t out = graph.neighbors(v).size();
    min_out = std::min(min_out, out);
    max_out = std::max(max_out, out);
    total_out += out;
    for (const NodeId u : graph.neighbors(v)) ++in_degree[u];
  }
  health.min_out = static_cast<double>(min_out);
  health.max_out = static_cast<double>(max_out);
  health.mean_out =
      static_cast<double>(total_out) / static_cast<double>(graph.num_nodes());
  health.max_in = *std::max_element(in_degree.begin(), in_degree.end());
  health.clustering = clustering_coefficient(graph);
  health.connected = is_connected(graph);
  for (const auto& observer : observers) observer->on_overlay_health(health);
}

// ===================================================================
// Aggregator-plan execution helpers
// ===================================================================

double read_instance(const NodeStateStore& store,
                     const AggregatorInstance& inst, NodeId id) {
  double state[kMaxAggregatorWidth];
  for (std::size_t k = 0; k < inst.def->width; ++k)
    state[k] = store.approximation(id, inst.offset + k);
  return inst.def->read(state);
}

void seed_instance_attributes(NodeStateStore& store,
                              const AggregatorInstance& inst, NodeId id,
                              double a) {
  double state[kMaxAggregatorWidth];
  inst.def->init(a, state);
  for (std::size_t k = 0; k < inst.def->width; ++k)
    store.set_attribute(id, inst.offset + k, state[k]);
}

void seed_wide_instances(NodeStateStore& store, const AggregatorPlan& plan,
                         std::span<const double> initial) {
  double state[kMaxAggregatorWidth];
  for (const AggregatorInstance& inst : plan.instances()) {
    if (inst.def->width == 1) continue;
    for (NodeId id = 0; id < initial.size(); ++id) {
      inst.def->init(initial[id], state);
      for (std::size_t k = 0; k < inst.def->width; ++k) {
        store.set_attribute(id, inst.offset + k, state[k]);
        store.set_approximation(id, inst.offset + k, state[k]);
      }
    }
  }
}

void reseed_attributes(NodeStateStore& store, const AggregatorPlan& plan,
                       NodeId id, double a) {
  for (const AggregatorInstance& inst : plan.instances())
    seed_instance_attributes(store, inst, id, a);
}

void apply_aggregate_dynamics(NodeStateStore& store, const AggregatorPlan& plan,
                              std::size_t cycle) {
  if (!plan.has_dynamics()) return;
  double state[kMaxAggregatorWidth];
  for (const AggregatorInstance& inst : plan.instances()) {
    if (inst.def->decay != nullptr) {
      for (NodeId id = 0; id < store.capacity(); ++id) {
        for (std::size_t k = 0; k < inst.def->width; ++k)
          state[k] = store.approximation(id, inst.offset + k);
        inst.def->decay(inst.param, store.attribute(id, inst.offset), state);
        for (std::size_t k = 0; k < inst.def->width; ++k)
          store.set_approximation(id, inst.offset + k, state[k]);
      }
    }
    if (inst.def->windowed) {
      const auto window = static_cast<std::size_t>(inst.param);
      // A window is the instance's PRIVATE epoch: only its own planes
      // re-snapshot, everyone else keeps converging undisturbed.
      if (cycle > 0 && cycle % window == 0)
        for (std::size_t k = 0; k < inst.def->width; ++k)
          store.snapshot_slot(inst.offset + k);
    }
  }
}

void evolve_workload(NodeStateStore& store, const AggregatorPlan& plan,
                     const WorkloadSpec& workload, std::size_t t,
                     std::span<const NodeId> ids, Rng& rng) {
  switch (workload.dynamics) {
    case WorkloadDynamics::kStatic:
      return;
    case WorkloadDynamics::kDrift:
      for (const NodeId id : ids) {
        double a = store.attribute(id, 0) + workload.rate;
        // Jitter is config-constant: a run draws per node per cycle or
        // never. epiagg-lint: fixed-draw-count
        if (workload.jitter > 0.0) a += workload.jitter * rng.normal();
        reseed_attributes(store, plan, id, a);
      }
      return;
    case WorkloadDynamics::kStep: {
      // Re-draw interval is config-constant: off-grid cycles draw nothing.
      // epiagg-lint: fixed-draw-count
      const auto period = static_cast<std::size_t>(workload.period);
      if (t % period != 0) return;
      for (const NodeId id : ids)
        reseed_attributes(store, plan, id,
                          sample_value(workload.distribution, rng));
      return;
    }
    case WorkloadDynamics::kSeasonal: {
      // Incremental form of a = a0 + rate·sin(2πt/p): adding the sine's
      // per-cycle increment needs no per-node baseline storage.
      constexpr double kTwoPi = 6.283185307179586476925286766559;
      const double phase = kTwoPi / workload.period;
      const double delta =
          workload.rate * (std::sin(phase * static_cast<double>(t)) -
                           std::sin(phase * static_cast<double>(t - 1)));
      for (const NodeId id : ids) {
        double a = store.attribute(id, 0) + delta;
        // epiagg-lint: fixed-draw-count (config-constant jitter, as above)
        if (workload.jitter > 0.0) a += workload.jitter * rng.normal();
        reseed_attributes(store, plan, id, a);
      }
      return;
    }
  }
  EPIAGG_UNREACHABLE();
}

void SimulationImpl::report_tracking_errors(const NodeStateStore& store,
                                            const AggregatorPlan& plan,
                                            std::size_t cycle,
                                            std::span<const NodeId> ids,
                                            std::vector<double>& attr_scratch,
                                            std::vector<double>& read_scratch) {
  if (ids.empty()) return;  // between epochs nobody participates yet
  for (std::size_t i = 0; i < plan.instances().size(); ++i) {
    const AggregatorInstance& inst = plan.instances()[i];
    attr_scratch.clear();
    read_scratch.clear();
    for (const NodeId id : ids) {
      attr_scratch.push_back(store.attribute(id, inst.offset));
      read_scratch.push_back(read_instance(store, inst, id));
    }
    TrackingError sample;
    sample.cycle = cycle;
    sample.aggregate = i;
    sample.truth = inst.def->exact(attr_scratch);
    sample.estimate = epiagg::mean(read_scratch);
    sample.error = std::abs(sample.estimate - sample.truth);
    notify_tracking_error(sample);
  }
}

namespace {

// ===================================================================
// CycleAveragingImpl — averaging / multi-aggregate on the cycle engine
// ===================================================================
//
// The paper's protocol is one skeleton: each cycle a node gets a neighbour,
// exchanges with it, and updates. Only the PARTNER SOURCE differs between
// configurations, chosen once at build time; the population policy follows
// from it:
//
//  - kSelector: a GETPAIR PairSelector over a fixed topology (§3) on the
//    fixed ids 0..n-1, reproducing AvgModel::run_cycle /
//    run_multi_gossip_cycle draw-for-draw. Restarts re-copy whole planes and
//    no AliveSet is ever built.
//  - kUniform: a uniform fellow participant over the complete, peer-sampled
//    overlay under churn. Leavers crash with their state, their slot ids
//    recycle through the store's free-list, and joiners draw fresh
//    attributes and wait for the next epoch.
//  - kOverlay: a sample from the node's current view of a live
//    PeerSamplingService (§4 runs averaging ON TOP OF NEWSCAST). The
//    membership protocol advances one cycle per aggregation cycle, churn
//    propagates into the overlay itself — joiners bootstrap through a random
//    alive contact, crashers vanish with their view — and the overlay
//    allocates the (recycled) slot ids the store follows. MembershipSpec
//    snapshot mode instead freezes the warmed overlay into a topology and
//    runs as kSelector.
//
// Per-node state is slot-major in the NodeStateStore. Churn fires only at
// cycle boundaries and views change only in the overlay's own cycle, so each
// cycle batches every partner/loss draw first — the RNG consumption order of
// the historical fused loop, since nothing drawn between pairs depends on
// merged values — and then applies the merges plane by plane.
class CycleAveragingImpl final : public SimulationImpl {
public:
  /// Exactly one partner source is set: a `selector` over the fixed
  /// `topology`, a live `overlay`, or — when both are null — uniform
  /// sampling from the live participants. `churn` is null for a static
  /// population.
  CycleAveragingImpl(std::shared_ptr<Rng> rng,
                     std::vector<std::shared_ptr<Observer>> observers,
                     std::size_t epoch_length, AggregatorPlan plan,
                     WorkloadSpec workload, std::vector<double> initial,
                     double loss, std::shared_ptr<AdversaryRuntime> adversary,
                     std::unique_ptr<PairSelector> selector,
                     std::shared_ptr<const Topology> topology,
                     std::unique_ptr<PeerSamplingService> overlay,
                     std::shared_ptr<ChurnSchedule> churn,
                     ActivationOrder order)
      : SimulationImpl(std::move(rng), std::move(observers), epoch_length),
        source_(selector != nullptr  ? Source::kSelector
                : overlay != nullptr ? Source::kOverlay
                                     : Source::kUniform),
        topology_(std::move(topology)),
        selector_(std::move(selector)),
        overlay_(std::move(overlay)),
        churn_(std::move(churn)),
        order_(order),
        plan_(std::move(plan)),
        workload_(std::move(workload)),
        combiners_(plan_.plane_combiners()),
        store_(combiners_.size(), initial),
        loss_(loss),
        adversary_(std::move(adversary)) {
    seed_wide_instances(store_, plan_, initial);
    want_impact_ = adversary_ != nullptr && want_attack_impact();
    want_tracking_ = want_tracking_error();
    for (const auto& observer : observers_)
      want_health_ = want_health_ || observer->wants_overlay_health();
    if (fixed()) {
      if (workload_.is_time_varying() || want_tracking_ || want_impact_) {
        all_ids_.resize(store_.capacity());
        for (NodeId id = 0; id < all_ids_.size(); ++id) all_ids_[id] = id;
      }
      return;
    }
    for (NodeId id = 0; id < initial.size(); ++id) alive_.insert(id);
    if (epoch_length_ == 0) {
      // Continuous run (no churn by construction): everyone participates
      // from cycle 0.
      for (const NodeId id : alive_.members()) {
        store_.set_participating(id, true);
        participants_.insert(id);
      }
    }
  }

  void run_cycle() override {
    if (epoch_length_ > 0 && cycle_ % epoch_length_ == 0) start_epoch();
    if (churn_ != nullptr) apply_churn();
    // A time-varying workload evolves the alive nodes BEFORE this cycle's
    // exchanges (joiners just drew fresh values inside apply_churn) — the
    // estimators chase a target that moved under them. The flag is
    // config-constant, so static runs never enter the scope.
    // epiagg-lint: fixed-draw-count
    if (workload_.is_time_varying()) {
      RngAuditScope audit(*rng_, "workload");
      evolve_workload(store_, plan_, workload_, cycle_ + 1, alive_ids(), *rng_);
    }
    apply_aggregate_dynamics(store_, plan_, cycle_);
    if (overlay_ != nullptr) {
      // The membership gossip advances first — "the overlay network is
      // continuously changing" under the aggregation — so exchanges of this
      // cycle see freshly merged (dead-purged, re-randomized) views.
      overlay_->run_cycle();
      // Poisoners strike right after the membership merge: their planted
      // entries are the freshest in the victims' views when partners
      // resolve. Adversary presence and its poisoning flag are
      // config-constant, so the poison draws fire every cycle or never.
      // epiagg-lint: fixed-draw-count
      if (adversary_ != nullptr && adversary_->poisoning()) {
        RngAuditScope audit(*rng_, "adversary");
        adversary_->poison_overlay(*overlay_, alive_, *rng_);
      }
    }

    draw_exchanges();
    if (adversary_ != nullptr && adversary_->rewrites_exchanges()) {
      adversary_->apply_exchanges(store_, combiners_, pairs_, cycle_);
    } else {
      store_.apply_exchanges(combiners_, pairs_);
    }
    if (observed()) {
      for (const auto& [i, j] : pairs_) notify_exchange(i, j);
    }
    ++cycle_;

    if (observed()) {
      // One accumulation pass for both moments; the accessor pair
      // mean()/variance() would walk the state three times.
      const RunningStats stats = participant_stats();
      notify_cycle(CycleView{
          cycle_, population_size(), mean_or_zero(stats),
          variance_or_zero(stats),
          fixed() ? std::span<const double>(store_.approximations(0))
                  : std::span<const double>()});
    }
    if (want_health_) report_overlay_health(*overlay_, cycle_, observers_);
    if (want_impact_) report_impact();
    if (want_tracking_)
      report_tracking_errors(store_, plan_, cycle_, participant_ids(),
                             attr_scratch_, read_scratch_);
    if (epoch_length_ > 0 && cycle_ % epoch_length_ == 0) finish_epoch();
  }

  std::size_t population_size() const override {
    return fixed() ? store_.capacity() : alive_.size();
  }
  std::size_t participant_count() const override {
    return fixed() ? population_size() : participants_.size();
  }

  const std::vector<double>& approximations() const override {
    return slot_approximations(0);
  }

  const std::vector<double>& slot_approximations(std::size_t s) const override {
    EPIAGG_EXPECTS(s < store_.slot_count(), "slot index out of range");
    if (churn_ != nullptr)
      unsupported("node ids are recycled under churn; read variance()/mean() "
                  "or epochs() instead of the raw planes");
    return store_.approximations(s);
  }

  double variance() const override {
    return fixed() ? SimulationImpl::variance()
                   : variance_or_zero(participant_stats());
  }
  double mean() const override {
    return fixed() ? SimulationImpl::mean() : mean_or_zero(participant_stats());
  }

  std::shared_ptr<const Topology> topology() const override {
    return topology_ != nullptr ? topology_ : SimulationImpl::topology();
  }

  void set_value(NodeId id, double value) override { set_slot_value(id, 0, value); }

  void set_slot_value(NodeId id, std::size_t slot, double value) override {
    EPIAGG_EXPECTS(slot < plan_.instances().size(), "slot index out of range");
    EPIAGG_EXPECTS(id < store_.capacity() && (fixed() || alive_.contains(id)),
                   "node id is not alive");
    EPIAGG_EXPECTS(epoch_length_ > 0,
                   "attribute updates only surface through epoch restarts; "
                   "configure .epoch_length(cycles)");
    seed_instance_attributes(store_, plan_.instances()[slot], id, value);
  }

private:
  enum class Source { kSelector, kUniform, kOverlay };

  bool fixed() const { return source_ == Source::kSelector; }

  /// Nodes whose attributes evolve (fixed: every id; else the alive set).
  std::span<const NodeId> alive_ids() const {
    return fixed() ? std::span<const NodeId>(all_ids_) : alive_.members();
  }

  /// Nodes whose state counts this epoch (fixed: every id; else the
  /// participants — joiners wait for the next restart).
  std::span<const NodeId> participant_ids() const {
    return fixed() ? std::span<const NodeId>(all_ids_) : participants_.members();
  }

  RunningStats participant_stats() const {
    RunningStats stats;
    if (fixed()) {
      for (const double x : store_.approximations(0)) stats.add(x);
    } else {
      for (const NodeId id : participants_.members())
        stats.add(store_.approximation(id, 0));
    }
    return stats;
  }

  /// One cycle's partner sweep. The source is dispatched once per cycle;
  /// inside each loop the only indirect call is the selector's next_pair.
  void draw_exchanges() {
    // Loss draws ride inside the pair loop, so on the cycle engine they are
    // charged to the partner-draw phase (the event engine splits them out).
    RngAuditScope audit(*rng_, "partner-draw");
    pairs_.clear();
    switch (source_) {
      case Source::kSelector: {
        selector_->begin_cycle(*rng_);
        const std::size_t n = store_.capacity();
        for (std::size_t step = 0; step < n; ++step) {
          const auto [i, j] = selector_->next_pair(*rng_);
          EPIAGG_ASSERT(i != j, "GETPAIR returned a self-pair");
          offer(i, j);
        }
        return;
      }
      case Source::kUniform:
        for (const NodeId id : activation_order()) {
          if (participants_.size() < 2) break;
          offer(id, participants_.sample_other(id, *rng_));
        }
        return;
      case Source::kOverlay:
        for (const NodeId id : activation_order()) {
          const NodeId peer = overlay_->random_view_peer(id, *rng_);
          // No live contact this cycle, or a joiner that waits for the next
          // epoch restart before it carries protocol state (exchanging with
          // it would corrupt the running estimate).
          if (peer == kInvalidNode || !store_.participating(peer)) continue;
          offer(id, peer);
        }
        return;
    }
  }

  /// The participants in this cycle's activation order.
  const std::vector<NodeId>& activation_order() {
    scratch_ = participants_.members();
    // Config-constant activation order (always or never shuffles for a
    // given run). epiagg-lint: fixed-draw-count
    if (order_ == ActivationOrder::kShuffled) rng_->shuffle(scratch_);
    return scratch_;
  }

  /// Queues the exchange (i, j) unless the link is cut or the push is lost.
  void offer(NodeId i, NodeId j) {
    // A partition swallows cross-side exchanges BEFORE the loss draw is even
    // attempted (the link does not exist).
    if (adversary_ != nullptr && adversary_->blocks(i, j, cycle_)) return;
    // Lost push: the exchange silently never happens. Only drawn when loss
    // is configured, so loss-free runs keep the canonical RNG stream.
    if (loss_ > 0.0 && rng_->bernoulli(loss_)) return;
    pairs_.emplace_back(i, j);
  }

  void apply_churn() {
    RngAuditScope audit(*rng_, "churn");
    const ChurnAction action = churn_->at_cycle(cycle_, alive_.size());
    // ChurnModel::at_cycle is a pure function of (cycle, population), and the
    // population itself evolves only through this stream, so the leave count —
    // and the guard's clamp — is seed-determined. epiagg-lint: fixed-draw-count
    for (std::size_t k = 0; k < action.leaves && alive_.size() > 2; ++k) {
      const NodeId victim = alive_.sample(*rng_);
      if (store_.participating(victim)) participants_.erase(victim);
      alive_.erase(victim);
      // Crashers take their state along. An overlay owns its slot ids (the
      // store just zeroes the slot); otherwise the store recycles the id.
      if (overlay_ != nullptr) {
        overlay_->remove_node(victim);
        store_.reset(victim);
      } else {
        store_.release(victim);
      }
      // The recycled slot belongs to a fresh, honest joiner from here on.
      if (adversary_ != nullptr) adversary_->clear_role(victim);
    }
    for (std::size_t k = 0; k < action.joins; ++k) {
      NodeId id = kInvalidNode;
      // Config-constant partner source: the overlay arm draws one bootstrap
      // contact per join on every cycle. epiagg-lint: fixed-draw-count
      if (overlay_ != nullptr) {
        // The overlay allocates the slot id (possibly recycling a crashed
        // one); the store just follows its numbering.
        id = overlay_->add_node(alive_.sample(*rng_));
        store_.ensure(id);
      } else {
        id = store_.acquire();
      }
      // Joiner attribute values are workload draws, not churn draws. One
      // draw per INSTANCE (for width-1 plans: per plane, as always).
      RngAuditScope workload(*rng_, "workload");
      for (const AggregatorInstance& inst : plan_.instances())
        seed_instance_attributes(
            store_, inst, id,
            generate_values(workload_.distribution, 1, *rng_)[0]);
      store_.snapshot(id);  // the joiner's estimate starts at its attributes
      alive_.insert(id);
    }
  }

  /// Epoch restart (§4). Consumes no randomness, so restarts never perturb
  /// the pair stream.
  void start_epoch() {
    if (fixed()) {
      // Every plane re-snapshots the current attributes.
      store_.snapshot_all();
      truth_ = exact_answer(combiners_.front(), store_.attributes(0));
    } else {
      // Every alive node, joiners included, (re-)enters with its attributes.
      for (const NodeId id : alive_.members()) {
        store_.snapshot(id);
        if (!store_.participating(id)) {
          store_.set_participating(id, true);
          participants_.insert(id);
        }
      }
      snapshot_.clear();
      for (const NodeId id : participants_.members())
        snapshot_.push_back(store_.attribute(id, 0));
      truth_ = exact_answer(combiners_.front(), snapshot_);
    }
    epoch_start_size_ = population_size();
    if (adversary_ != nullptr) adversary_->reset_windows();
  }

  void finish_epoch() {
    record_epoch(summarize_participants(participant_stats(), cycle_,
                                        epoch_id_++, epoch_start_size_,
                                        population_size(), truth_));
  }

  void report_impact() {
    AttackImpact impact = adversary_->measure_impact(
        cycle_, participant_ids(),
        [this](NodeId id) { return store_.approximation(id, 0); },
        [this](NodeId id) { return store_.attribute(id, 0); });
    if (overlay_ != nullptr && adversary_->poisoning())
      impact.capture_ratio = adversary_->capture_ratio(*overlay_, alive_.members());
    notify_attack_impact(impact);
  }

  Source source_;
  std::shared_ptr<const Topology> topology_;      // kSelector only
  std::unique_ptr<PairSelector> selector_;        // kSelector only
  std::unique_ptr<PeerSamplingService> overlay_;  // kOverlay only
  std::shared_ptr<ChurnSchedule> churn_;          // null = static population
  ActivationOrder order_;
  AggregatorPlan plan_;
  WorkloadSpec workload_;
  std::vector<Combiner> combiners_;  // = plan_.plane_combiners(): the flat
                                     // vector the batched store kernels run
  NodeStateStore store_;
  double loss_ = 0.0;
  std::shared_ptr<AdversaryRuntime> adversary_;
  bool want_impact_ = false;
  bool want_health_ = false;
  bool want_tracking_ = false;
  AliveSet alive_;         // dynamic sources only
  AliveSet participants_;  // dynamic sources only
  std::vector<NodeId> all_ids_;  // fixed: 0..n-1, built only when a sweep
                                 // (evolution, impact, tracking) needs it
  std::vector<NodeId> scratch_;      // per-cycle activation order
  std::vector<ExchangePair> pairs_;  // per-cycle scratch
  std::vector<double> snapshot_;      // epoch-start participant attributes
  std::vector<double> attr_scratch_;  // tracking: raw attributes
  std::vector<double> read_scratch_;  // tracking: per-node estimates
  double truth_ = 0.0;
  EpochId epoch_id_ = 0;
  std::size_t epoch_start_size_ = 0;
};

// ===================================================================
// SizeEstimationImpl — §4 counting instances with epoch restarts
// ===================================================================
//
// The Fig. 4 machinery: each cycle runs churn (when a schedule is set), the
// exchanges, then the epoch-boundary restart. The NodeStateStore carries the
// per-node persistent state — the size prior lives in the (single)
// attribute plane, participation in the packed bitmap — and manages slot id
// recycling; the InstanceSets stay in a parallel array (they are growable
// protocol state, not a value plane).
// Unlike the averaging impl there is no plane-wise merge to batch draws
// for — InstanceSet exchanges are growable-set merges — so the sweep stays
// the historical fused draw-and-exchange loop.
class SizeEstimationImpl final : public SimulationImpl {
public:
  SizeEstimationImpl(std::shared_ptr<Rng> rng,
                     std::vector<std::shared_ptr<Observer>> observers,
                     std::size_t initial_size, std::size_t epoch_length,
                     double expected_leaders, ActivationOrder order,
                     std::shared_ptr<ChurnSchedule> churn, double loss,
                     std::unique_ptr<PeerSamplingService> overlay = nullptr,
                     std::shared_ptr<AdversaryRuntime> adversary = nullptr)
      : SimulationImpl(std::move(rng), std::move(observers), epoch_length),
        expected_leaders_(expected_leaders),
        order_(order),
        churn_(std::move(churn)),
        overlay_(std::move(overlay)),
        store_(1),
        loss_(loss),
        adversary_(std::move(adversary)) {
    for (const auto& observer : observers_)
      want_health_ = want_health_ || observer->wants_overlay_health();
    const auto prior = static_cast<double>(initial_size);
    instances_.reserve(initial_size);
    for (std::size_t i = 0; i < initial_size; ++i) {
      const NodeId id = allocate_slot();
      set_prior(id, prior);
      alive_.insert(id);
    }
    start_epoch();
  }

  void run_cycle() override {
    if (churn_ != nullptr) apply_churn();
    // The live membership co-run (as in CycleAveragingImpl's overlay
    // source): the overlay gossips one cycle first, then partners resolve
    // from the evolving views instead of the complete participant set.
    if (overlay_ != nullptr) {
      overlay_->run_cycle();
      // Adversary presence and its poisoning flag are config-constant, so the
      // poison draws fire every cycle or never. epiagg-lint: fixed-draw-count
      if (adversary_ != nullptr && adversary_->poisoning()) {
        RngAuditScope audit(*rng_, "adversary");
        adversary_->poison_overlay(*overlay_, alive_, *rng_);
      }
    }
    const bool lie = adversary_ != nullptr && adversary_->lying();

    // One activation per participant (the SEQ schedule of the practical
    // protocol): exchange counting state with a random fellow participant.
    RngAuditScope partner_audit(*rng_, "partner-draw");
    scratch_ = participants_.members();
    // Config-constant activation order (always or never shuffles for a given
    // run). epiagg-lint: fixed-draw-count
    if (order_ == ActivationOrder::kShuffled) rng_->shuffle(scratch_);
    for (const NodeId id : scratch_) {
      NodeId peer = kInvalidNode;
      // Config-constant overlay dispatch: one bounded draw per activation on
      // either branch (the size<2 break is stream-derived population state).
      // epiagg-lint: fixed-draw-count
      if (overlay_ != nullptr) {
        peer = overlay_->random_view_peer(id, *rng_);
        if (peer == kInvalidNode) continue;       // temporarily isolated
        if (!store_.participating(peer)) continue;  // joiner awaits restart
      } else {
        if (participants_.size() < 2) break;
        peer = participants_.sample_other(id, *rng_);
      }
      if (adversary_ != nullptr && adversary_->blocks(id, peer, cycle_)) continue;
      if (loss_ > 0.0 && rng_->bernoulli(loss_)) continue;
      // A lying node rewrites its counting state right before the exchange,
      // so both the partner and its own ongoing averages carry the lie.
      if (lie) {
        for (const NodeId side : {id, peer}) {
          if (!adversary_->adversarial(side)) continue;
          instances_[side].transform_values([&](double value) {
            return adversary_->reported(side, value, cycle_);
          });
        }
      }
      InstanceSet::exchange(instances_[id], instances_[peer]);
      if (observed()) notify_exchange(id, peer);
    }

    ++cycle_;
    if (observed())
      notify_cycle(CycleView{cycle_, alive_.size(), 0.0, 0.0, {}});
    if (want_health_ && overlay_ != nullptr)
      report_overlay_health(*overlay_, cycle_, observers_);
    if (cycle_ % epoch_length_ == 0) {
      finish_epoch();
      start_epoch();
    }
  }

  std::size_t population_size() const override { return alive_.size(); }
  std::size_t participant_count() const override { return participants_.size(); }

  double total_mass() const override {
    double sum = 0.0;
    for (const NodeId id : participants_.members())
      sum += instances_[id].total_mass();
    return sum;
  }

private:
  double prior_of(NodeId id) const { return store_.attribute(id, 0); }
  void set_prior(NodeId id, double prior) { store_.set_attribute(id, 0, prior); }

  NodeId allocate_slot() {
    const NodeId id = store_.acquire();
    if (instances_.size() <= id) {
      instances_.resize(id + 1);
    } else {
      instances_[id].clear();
    }
    return id;
  }

  void apply_churn() {
    RngAuditScope audit(*rng_, "churn");
    const ChurnAction action = churn_->at_cycle(cycle_, alive_.size());

    // Crashes first: victims vanish with their mass (the paper's failure
    // model — no graceful handoff). ChurnModel::at_cycle is a pure function of
    // (cycle, population), so the trip count is seed-determined.
    // epiagg-lint: fixed-draw-count
    for (std::size_t k = 0; k < action.leaves && alive_.size() > 2; ++k) {
      const NodeId victim = alive_.sample(*rng_);
      if (store_.participating(victim)) participants_.erase(victim);
      alive_.erase(victim);
      if (overlay_ != nullptr) {
        // The overlay owns slot-id recycling here; the store just zeroes.
        overlay_->remove_node(victim);
        store_.reset(victim);
        instances_[victim].clear();
      } else {
        store_.release(victim);
      }
      // The recycled slot belongs to a fresh, honest joiner from here on.
      if (adversary_ != nullptr) adversary_->clear_role(victim);
    }

    // Joins: the newcomer contacts a random alive node out-of-band, inherits
    // its size prior, and waits for the next epoch before participating.
    for (std::size_t k = 0; k < action.joins; ++k) {
      const NodeId contact = alive_.sample(*rng_);
      const double prior = prior_of(contact);
      NodeId id = kInvalidNode;
      if (overlay_ != nullptr) {
        id = overlay_->add_node(contact);
        store_.ensure(id);
        if (instances_.size() <= id) {
          instances_.resize(id + 1);
        } else {
          instances_[id].clear();
        }
        store_.set_participating(id, false);
      } else {
        id = allocate_slot();
      }
      set_prior(id, prior);
      alive_.insert(id);
    }
  }

  void finish_epoch() {
    record_epoch(summarize_counting_epoch(
        participants_,
        [this](NodeId id) -> const InstanceSet& { return instances_[id]; },
        [this](NodeId id, double prior) { set_prior(id, prior); }, cycle_,
        epoch_id_++, epoch_start_size_, alive_.size(),
        instances_this_epoch_));
  }

  void start_epoch() {
    // Every alive node (including joiners that were waiting) enters the new
    // epoch; each may become a leader of a fresh counting instance with
    // probability E_leaders / previous-estimate.
    RngAuditScope audit(*rng_, "epoch-restart");
    instances_this_epoch_ = 0;
    for (const NodeId id : alive_.members()) {
      instances_[id].clear();
      if (!store_.participating(id)) {
        store_.set_participating(id, true);
        participants_.insert(id);
      }
      const double p = leader_probability(expected_leaders_, prior_of(id));
      if (rng_->bernoulli(p)) {
        // The slot id is unique among concurrent leaders (a node leads at
        // most one instance per epoch), mirroring "the address of the
        // leader".
        instances_[id].lead(static_cast<InstanceId>(id));
        ++instances_this_epoch_;
      }
    }
    epoch_start_size_ = alive_.size();
  }

  double expected_leaders_;
  ActivationOrder order_;
  std::shared_ptr<ChurnSchedule> churn_;          // null = static population
  std::unique_ptr<PeerSamplingService> overlay_;  // null = complete overlay
  NodeStateStore store_;  // attribute plane 0 = the §4 size prior
  std::vector<InstanceSet> instances_;
  double loss_ = 0.0;
  std::shared_ptr<AdversaryRuntime> adversary_;
  bool want_health_ = false;
  AliveSet alive_;
  AliveSet participants_;
  std::vector<NodeId> scratch_;
  EpochId epoch_id_ = 0;
  std::size_t epoch_start_size_ = 0;
  std::size_t instances_this_epoch_ = 0;
};

// ===================================================================
// PushSumImpl — the Kempe–Dobra–Gehrke baseline as a protocol variant
// ===================================================================
//
// Every node holds a (sum, weight) pair, initially (a_i, 1). Each round it
// halves both, keeps one half and ships the other to a uniformly random
// neighbour; received halves are added in after the sweep, and the estimate
// is sum/weight. Lossless rounds conserve Σsum and Σweight. A lost message
// removes sum AND weight together, so the surviving estimates stay (nearly)
// unbiased where push–pull under loss loses sum-mass only — the contrast
// bench/ablation_push_sum.cpp measures. Rounds draw from a private stream
// seeded once from the master stream at construction.
class PushSumImpl final : public SimulationImpl {
public:
  PushSumImpl(std::shared_ptr<Rng> rng,
              std::vector<std::shared_ptr<Observer>> observers,
              std::shared_ptr<const Topology> topology,
              std::vector<double> initial, double loss,
              std::shared_ptr<AdversaryRuntime> adversary = nullptr)
      : SimulationImpl(std::move(rng), std::move(observers), 0),
        topology_(std::move(topology)),
        round_rng_(rng_->next_u64()),
        sums_(std::move(initial)),
        weights_(sums_.size(), 1.0),
        inbox_sum_(sums_.size(), 0.0),
        inbox_weight_(sums_.size(), 0.0),
        estimates_(sums_),  // sum/weight at weight 1
        loss_(loss),
        adversary_(std::move(adversary)) {
    want_impact_ = adversary_ != nullptr && want_attack_impact();
    if (want_impact_) {
      attributes_ = sums_;
      impact_ids_.resize(sums_.size());
      for (NodeId id = 0; id < sums_.size(); ++id) impact_ids_[id] = id;
    }
  }

  void run_cycle() override {
    std::fill(inbox_sum_.begin(), inbox_sum_.end(), 0.0);
    std::fill(inbox_weight_.begin(), inbox_weight_.end(), 0.0);
    const bool lie = adversary_ != nullptr && adversary_->lying();
    for (NodeId i = 0; i < sums_.size(); ++i) {
      // A lying node pins its estimate right before halving, so the lie
      // ships with the node's real weight (the push-sum form of value-lying).
      if (lie && adversary_->adversarial(i)) {
        const double estimate = sums_[i] / weights_[i];
        sums_[i] = adversary_->reported(i, estimate, cycle_) * weights_[i];
      }
      const double half_sum = sums_[i] / 2.0;
      const double half_weight = weights_[i] / 2.0;
      expect_push_sum_weight(half_weight, i, cycle_);
      sums_[i] = half_sum;
      weights_[i] = half_weight;
      const NodeId target = topology_->random_neighbor(i, round_rng_);
      if (adversary_ != nullptr && adversary_->blocks(i, target, cycle_)) {
        // Partitioned: the sender keeps both halves so Σsum/Σweight hold.
        sums_[i] += half_sum;
        weights_[i] += half_weight;
        continue;
      }
      if (loss_ > 0.0 && round_rng_.bernoulli(loss_)) continue;
      inbox_sum_[target] += half_sum;
      inbox_weight_[target] += half_weight;
    }
    for (NodeId i = 0; i < sums_.size(); ++i) {
      sums_[i] += inbox_sum_[i];
      weights_[i] += inbox_weight_[i];
      estimates_[i] = sums_[i] / weights_[i];
    }
    ++cycle_;
    if (observed()) {
      notify_cycle(CycleView{cycle_, sums_.size(), epiagg::mean(estimates_),
                             empirical_variance(estimates_),
                             std::span<const double>(estimates_)});
    }
    if (want_impact_) {
      notify_attack_impact(adversary_->measure_impact(
          cycle_, impact_ids_,
          [this](NodeId id) { return estimates_[id]; },
          [this](NodeId id) { return attributes_[id]; }));
    }
  }

  std::size_t population_size() const override { return sums_.size(); }

  const std::vector<double>& approximations() const override {
    return estimates_;
  }

  double total_mass() const override { return kahan_total(sums_); }

  std::shared_ptr<const Topology> topology() const override { return topology_; }

private:
  std::shared_ptr<const Topology> topology_;
  Rng round_rng_;
  std::vector<double> sums_;
  std::vector<double> weights_;
  std::vector<double> inbox_sum_;     // per-round deliveries
  std::vector<double> inbox_weight_;
  std::vector<double> estimates_;     // sum/weight after the last round
  double loss_ = 0.0;
  std::shared_ptr<AdversaryRuntime> adversary_;
  bool want_impact_ = false;
  std::vector<double> attributes_;   // initial values (the honest truth)
  std::vector<NodeId> impact_ids_;
};

}  // namespace
}  // namespace detail

// ===================================================================
// Simulation — thin pimpl forwarding
// ===================================================================

Simulation::Simulation(std::unique_ptr<detail::SimulationImpl> impl)
    : impl_(std::move(impl)) {}
Simulation::~Simulation() = default;
Simulation::Simulation(Simulation&&) noexcept = default;
Simulation& Simulation::operator=(Simulation&&) noexcept = default;

void Simulation::run_cycle() { impl_->run_cycle(); }
void Simulation::run_cycles(std::size_t cycles) { impl_->run_cycles(cycles); }
EpochSummary Simulation::run_epoch() { return impl_->run_epoch(); }
void Simulation::run_time(SimTime until) { impl_->run_time(until); }
std::size_t Simulation::cycle() const { return impl_->cycle(); }
std::size_t Simulation::population_size() const { return impl_->population_size(); }
std::size_t Simulation::participant_count() const {
  return impl_->participant_count();
}
const std::vector<double>& Simulation::approximations() const {
  return impl_->approximations();
}
const std::vector<double>& Simulation::slot_approximations(std::size_t slot) const {
  return impl_->slot_approximations(slot);
}
double Simulation::variance() const { return impl_->variance(); }
double Simulation::mean() const { return impl_->mean(); }
void Simulation::set_value(NodeId id, double value) { impl_->set_value(id, value); }
void Simulation::set_slot_value(NodeId id, std::size_t slot, double value) {
  impl_->set_slot_value(id, slot, value);
}
const std::vector<EpochSummary>& Simulation::epochs() const {
  return impl_->epochs();
}
double Simulation::total_mass() const { return impl_->total_mass(); }
std::shared_ptr<const Topology> Simulation::topology() const {
  return impl_->topology();
}
const std::vector<AsyncSample>& Simulation::samples() const {
  return impl_->samples();
}
std::uint64_t Simulation::messages_sent() const { return impl_->messages_sent(); }
std::uint64_t Simulation::messages_lost() const { return impl_->messages_lost(); }
std::vector<RngDrawRecord> Simulation::draw_ledger() const {
  return impl_->draw_ledger();
}
std::uint64_t Simulation::total_draws() const { return impl_->total_draws(); }
const std::vector<AdaptiveEpochSample>& Simulation::adaptive_samples() const {
  return impl_->adaptive_samples();
}
EpochId Simulation::frontier_epoch() const { return impl_->frontier_epoch(); }
NodeId Simulation::join(double value) { return impl_->join(value); }

// ===================================================================
// SimulationBuilder
// ===================================================================

SimulationBuilder::SimulationBuilder() = default;

SimulationBuilder& SimulationBuilder::nodes(std::size_t n) {
  nodes_ = n;
  nodes_set_ = true;
  return *this;
}
SimulationBuilder& SimulationBuilder::topology(TopologySpec spec) {
  topology_ = spec;
  topology_set_ = true;
  return *this;
}
SimulationBuilder& SimulationBuilder::pairs(PairStrategy strategy) {
  pairs_ = strategy;
  pairs_set_ = true;
  return *this;
}
SimulationBuilder& SimulationBuilder::membership(MembershipSpec spec) {
  membership_ = spec;
  return *this;
}
SimulationBuilder& SimulationBuilder::engine(EngineKind kind) {
  engine_ = kind;
  return *this;
}
SimulationBuilder& SimulationBuilder::activation(ActivationOrder order) {
  activation_ = order;
  activation_set_ = true;
  return *this;
}
SimulationBuilder& SimulationBuilder::failures(FailureSpec spec) {
  failures_ = std::move(spec);
  return *this;
}
SimulationBuilder& SimulationBuilder::workload(WorkloadSpec spec) {
  workload_ = std::move(spec);
  workload_set_ = true;
  return *this;
}
SimulationBuilder& SimulationBuilder::protocol(ProtocolVariant variant) {
  protocol_ = variant;
  return *this;
}
SimulationBuilder& SimulationBuilder::epoch_length(std::size_t cycles) {
  epoch_length_ = cycles;
  epoch_length_set_ = true;
  return *this;
}
SimulationBuilder& SimulationBuilder::aggregates(
    std::vector<AggregatorSpec> specs) {
  aggregates_ = std::move(specs);
  return *this;
}
SimulationBuilder& SimulationBuilder::expected_leaders(double expected) {
  expected_leaders_ = expected;
  expected_leaders_set_ = true;
  return *this;
}
SimulationBuilder& SimulationBuilder::waiting(WaitingTime policy) {
  waiting_ = policy;
  waiting_set_ = true;
  return *this;
}
SimulationBuilder& SimulationBuilder::adaptive_epochs(double clock_drift) {
  adaptive_epochs_ = true;
  clock_drift_ = clock_drift;
  return *this;
}
SimulationBuilder& SimulationBuilder::latency(
    std::shared_ptr<const LatencyModel> model) {
  latency_ = std::move(model);
  return *this;
}
SimulationBuilder& SimulationBuilder::adversary(AdversarySpec spec) {
  adversary_ = spec;
  return *this;
}
SimulationBuilder& SimulationBuilder::mitigation(MitigationSpec spec) {
  mitigation_ = spec;
  return *this;
}
SimulationBuilder& SimulationBuilder::observe(std::shared_ptr<Observer> observer) {
  EPIAGG_EXPECTS(observer != nullptr, "observer must not be null");
  observers_.push_back(std::move(observer));
  return *this;
}
SimulationBuilder& SimulationBuilder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}
SimulationBuilder& SimulationBuilder::entropy(std::shared_ptr<Rng> rng) {
  EPIAGG_EXPECTS(rng != nullptr, "entropy stream must not be null");
  entropy_ = std::move(rng);
  return *this;
}

Simulation SimulationBuilder::build() {
  const bool averaging = protocol_ == ProtocolVariant::kPushPullAverage;
  const bool has_churn = failures_.churn != nullptr;
  const bool has_membership = membership_.kind != MembershipSpec::Kind::kNone;
  const bool live_membership =
      has_membership && membership_.mode == MembershipSpec::Mode::kLive;

  // ---- resolve the population size ----
  std::size_t n = nodes_;
  if (workload_.is_explicit()) {
    if (nodes_set_) {
      EPIAGG_EXPECTS(n == workload_.values.size(),
                     ".nodes(n) disagrees with the explicit workload vector "
                     "length; drop one of the two");
    } else {
      n = workload_.values.size();
    }
  } else {
    EPIAGG_EXPECTS(nodes_set_,
                   "population size unknown: call .nodes(n) or provide "
                   "WorkloadSpec::from_values(...)");
  }
  EPIAGG_EXPECTS(n >= 2, "a gossip network needs at least two nodes");
  EPIAGG_EXPECTS(failures_.message_loss >= 0.0 && failures_.message_loss <= 1.0,
                 "message loss probability must be in [0, 1]");

  // ---- engine-level conflicts ----
  // The event engine accepts every protocol variant: exchanges travel as
  // send/reply messages (latency-delayed, individually lossy), churn fires
  // at cycle-equivalent integer simulated times, and epochs restart on the
  // global simulated-time grid or on per-node adaptive clocks. What stays
  // cycle-only is the synchronous vocabulary itself: GETPAIR strategies and
  // per-cycle activation orders have no meaning when nodes wake on their own
  // GETWAITINGTIME clocks.
  if (engine_ == EngineKind::kEvent) {
    EPIAGG_EXPECTS(!activation_set_,
                   "the event engine has no global cycle to order: nodes "
                   "wake on their own GETWAITINGTIME clocks, so a per-cycle "
                   "activation order cannot apply — remove .activation(...) "
                   "or switch to EngineKind::kCycle");
    EPIAGG_EXPECTS(!pairs_set_,
                   "event-engine nodes sample a peer whenever they wake; "
                   "GETPAIR strategies describe the synchronous cycle model — "
                   "remove .pairs(...) or switch to EngineKind::kCycle");
  } else {
    EPIAGG_EXPECTS(!waiting_set_ && latency_ == nullptr,
                   "waiting-time and latency models describe asynchronous "
                   "execution; add .engine(EngineKind::kEvent) to use them");
    EPIAGG_EXPECTS(!adaptive_epochs_,
                   "adaptive epochs run each node's local, drifting clock in "
                   "simulated time; add .engine(EngineKind::kEvent) to use "
                   "them");
  }
  if (adaptive_epochs_) {
    EPIAGG_EXPECTS(averaging,
                   "adaptive epochs restart the averaging family only; "
                   "kSizeEstimation and kPushSum keep their own restart / "
                   "round structure — use kPushPullAverage");
    EPIAGG_EXPECTS(!waiting_set_ || waiting_ == WaitingTime::kConstant,
                   "adaptive epochs divide each node's local ΔT clock (a "
                   "constant period with bounded drift) into epochs; "
                   "WaitingTime::kExponential has no such clock — remove "
                   ".waiting(...) or .adaptive_epochs(...)");
    EPIAGG_EXPECTS(clock_drift_ >= 0.0 && clock_drift_ < 1.0,
                   "clock drift must be in [0, 1)");
    EPIAGG_EXPECTS(!topology_set_ ||
                       topology_.kind == TopologySpec::Kind::kComplete,
                   "adaptive epochs admit joiners into the live population "
                   "(the complete, peer-sampled overlay); a fixed sparse "
                   "topology cannot follow it — drop .topology(...)");
  }

  // ---- topology / membership conflicts ----
  EPIAGG_EXPECTS(!(has_membership && topology_set_),
                 "a membership overlay defines the gossip topology itself; "
                 "drop either .topology(...) or .membership(...)");
  const bool complete_overlay =
      !has_membership && topology_.kind == TopologySpec::Kind::kComplete;
  if (pairs_set_ && (pairs_ == PairStrategy::kPerfectMatching ||
                     pairs_ == PairStrategy::kPmRand)) {
    EPIAGG_EXPECTS(complete_overlay,
                   "GETPAIR_PM / GETPAIR_PMRAND need the global view of the "
                   "complete topology; use kSequential or kRandomEdge on "
                   "sparse overlays");
  }
  if (live_membership && pairs_set_) {
    EPIAGG_EXPECTS(pairs_ == PairStrategy::kSequential,
                   "a live membership overlay resolves each initiator's "
                   "partner from its evolving view (a sequential sweep); "
                   "other GETPAIR strategies need a fixed overlay — wrap the "
                   "spec in MembershipSpec::snapshot(...) or drop .pairs(...)");
  }
  for (const auto& observer : observers_) {
    if (observer->wants_overlay_health()) {
      EPIAGG_EXPECTS(live_membership,
                     "OverlayHealthObserver reports the evolving views of a "
                     "LIVE membership overlay; this configuration has none — "
                     "add a live .membership(...) or drop the observer");
    }
  }
  if (activation_set_ && pairs_set_ && engine_ == EngineKind::kCycle) {
    EPIAGG_EXPECTS(pairs_ == PairStrategy::kSequential,
                   "activation order shapes the sequential sweep only; "
                   "kRandomEdge/kPerfectMatching draw pairs globally — remove "
                   ".activation(...) or use PairStrategy::kSequential");
  }

  // ---- protocol-level conflicts ----
  const bool has_aggregates = !aggregates_.empty();
  switch (protocol_) {
    case ProtocolVariant::kPushPullAverage:
      break;
    case ProtocolVariant::kPushSum:
      EPIAGG_EXPECTS(!has_aggregates,
                     "push-sum estimates a single average; it has no "
                     "pluggable aggregates — remove .aggregates(...)");
      EPIAGG_EXPECTS(!live_membership,
                     "push-sum gossips over a fixed overlay; wrap the spec "
                     "in MembershipSpec::snapshot(...) or use an averaging "
                     "protocol for the live co-run");
      EPIAGG_EXPECTS(!pairs_set_,
                     "push-sum pushes to one uniformly random neighbor per "
                     "round; GETPAIR strategies do not apply — remove "
                     ".pairs(...)");
      EPIAGG_EXPECTS(!epoch_length_set_,
                     "push-sum has no epoch restart mechanism; remove "
                     ".epoch_length(...) or use kPushPullAverage");
      EPIAGG_EXPECTS(!has_churn,
                     "push-sum is a static baseline here; churn requires "
                     "kPushPullAverage or kSizeEstimation");
      EPIAGG_EXPECTS(!activation_set_,
                     "push-sum rounds activate every node once in storage "
                     "order; remove .activation(...)");
      EPIAGG_EXPECTS(failures_.message_loss < 1.0,
                     "push-sum at message loss 1.0 loses every half it "
                     "ships, so each weight halves every round until it "
                     "underflows to 0 and sum/weight reads 0/0 — use a loss "
                     "below 1.0");
      break;
    case ProtocolVariant::kSizeEstimation:
      EPIAGG_EXPECTS(!has_aggregates,
                     "size estimation has no aggregate instances; remove "
                     ".aggregates(...)");
      EPIAGG_EXPECTS(!workload_set_,
                     "size estimation seeds its own indicator values (one "
                     "leader holds 1, everyone else 0 — paper §4); remove "
                     ".workload(...)");
      EPIAGG_EXPECTS(!pairs_set_,
                     "size estimation exchanges with uniformly random fellow "
                     "participants; GETPAIR strategies do not apply — remove "
                     ".pairs(...)");
      // Both engines support the live membership co-run: partners resolve
      // from the evolving Newscast/Cyclon views instead of the complete
      // participant set.
      EPIAGG_EXPECTS(live_membership || (!has_membership && complete_overlay),
                     "size estimation runs over the complete overlay or a "
                     "LIVE membership overlay; frozen snapshots and fixed "
                     "topologies are not supported — drop .topology(...) or "
                     "use a live .membership(...)");
      EPIAGG_EXPECTS(expected_leaders_ > 0.0,
                     "expected leader count must be positive");
      break;
  }
  if (protocol_ != ProtocolVariant::kSizeEstimation) {
    EPIAGG_EXPECTS(!expected_leaders_set_,
                   "leader counts parameterize ProtocolVariant::kSizeEstimation "
                   "only; remove .expected_leaders(...)");
  }

  // ---- the aggregate plan ----
  // Validated specs flatten onto consecutive state planes; without
  // .aggregates(...) the plan is one width-1 average.
  AggregatorPlan plan;
  if (has_aggregates) {
    for (const AggregatorSpec& spec : aggregates_) {
      const AggregatorDef* def = find_aggregator(spec.kind);
      EPIAGG_EXPECTS(def != nullptr,
                     "unknown aggregator kind; register it with "
                     "register_aggregator(...) or pick a builtin — average / "
                     "maximum / minimum / sum-count / variance / "
                     "decaying-mean / windowed-mean");
      if (def->windowed) {
        EPIAGG_EXPECTS(
            spec.param >= 1.0 && spec.param == std::floor(spec.param),
            "a windowed aggregator needs an integral window length of at "
            "least one cycle; use AggregatorSpec::windowed_mean(label, W)");
      }
      if (spec.kind == "decaying-mean") {
        EPIAGG_EXPECTS(spec.param > 0.0 && spec.param <= 1.0,
                       "the decaying-mean weight beta must be in (0, 1]; use "
                       "AggregatorSpec::decaying_mean(label, beta)");
      }
    }
    plan = AggregatorPlan::from_specs(aggregates_);
  } else {
    const Combiner average[] = {Combiner::kAverage};
    plan = AggregatorPlan::from_combiners(average);
  }
  if (plan.has_dynamics() || workload_.is_time_varying()) {
    EPIAGG_EXPECTS(!adaptive_epochs_,
                   "windowed/decaying aggregators and time-varying workloads "
                   "advance on the shared integer-cycle grid; adaptive "
                   "per-node clocks have none — remove .adaptive_epochs(...)");
  }

  // ---- time-varying workload conflicts ----
  if (workload_.is_time_varying()) {
    EPIAGG_EXPECTS(averaging,
                   "time-varying workloads evolve the averaging family's "
                   "attributes each cycle; kPushSum and kSizeEstimation "
                   "snapshot their inputs once — use kPushPullAverage");
    EPIAGG_EXPECTS(!workload_.is_explicit(),
                   "a time-varying workload re-samples per-node attributes; "
                   "an explicit value vector cannot evolve — use "
                   "WorkloadSpec::time_varying(...)");
    EPIAGG_EXPECTS(workload_.dynamics != WorkloadDynamics::kStep ||
                       is_per_node(workload_.distribution),
                   "WorkloadDynamics::kStep re-draws one node's value at a "
                   "time; the base distribution must be per-node i.i.d. "
                   "(uniform / normal / pareto)");
    if (workload_.dynamics == WorkloadDynamics::kStep ||
        workload_.dynamics == WorkloadDynamics::kSeasonal) {
      EPIAGG_EXPECTS(workload_.period >= 1.0,
                     "kStep / kSeasonal dynamics need a period of at least "
                     "one cycle; set it in WorkloadSpec::time_varying(...)");
    }
  }

  // ---- epochs ----
  std::size_t epoch_length = epoch_length_;
  const bool needs_epochs = protocol_ == ProtocolVariant::kSizeEstimation ||
                            (averaging && has_churn) || adaptive_epochs_;
  if (needs_epochs && !epoch_length_set_) epoch_length = 30;  // the paper's ΔT
  if (epoch_length_set_)
    EPIAGG_EXPECTS(epoch_length >= 1,
                   "epoch length must be at least one cycle; use "
                   "kPushPullAverage without .epoch_length(...) for a "
                   "continuous run");
  if (needs_epochs)
    EPIAGG_EXPECTS(epoch_length >= 1,
                   "this protocol restarts via epochs; epoch length must be "
                   "at least one cycle");

  // ---- churn-mode restrictions for averaging ----
  if (averaging && has_churn) {
    EPIAGG_EXPECTS(complete_overlay || live_membership,
                   "a fixed overlay cannot follow churn; use the complete "
                   "overlay (the default) or a live .membership(...) — "
                   "MembershipSpec::snapshot freezes the views against a "
                   "changing population");
    EPIAGG_EXPECTS(!pairs_set_,
                   "under churn nodes exchange with uniformly random fellow "
                   "participants (or live view samples); GETPAIR strategies "
                   "assume a fixed population — remove .pairs(...)");
    EPIAGG_EXPECTS(!workload_.is_explicit(),
                   "joiners draw fresh attributes from the workload "
                   "distribution; an explicit value vector cannot cover them "
                   "— use WorkloadSpec::from_distribution(...)");
    EPIAGG_EXPECTS(workload_.distribution != ValueDistribution::kPeak &&
                       workload_.distribution != ValueDistribution::kIndicator &&
                       workload_.distribution != ValueDistribution::kLinear,
                   "churn workloads need per-node i.i.d. attributes; "
                   "kPeak/kIndicator/kLinear are whole-network shapes");
  }

  // ---- adversary / mitigation conflicts ----
  const bool has_adversary = adversary_.enabled();
  const bool has_mitigation = mitigation_.enabled();
  if (has_adversary || has_mitigation) {
    EPIAGG_EXPECTS(!has_aggregates,
                   "adversary and mitigation models rewrite the single "
                   "built-in average exchange; pluggable .aggregates(...) "
                   "are not supported — drop one of the two");
  }
  if (has_adversary) {
    using Kind = AdversarySpec::Kind;
    if (adversary_.kind == Kind::kValueLie ||
        adversary_.kind == Kind::kOverlayPoison) {
      EPIAGG_EXPECTS(adversary_.fraction > 0.0 && adversary_.fraction < 1.0,
                     "adversary fraction must be in (0, 1); use the "
                     "AdversarySpec factories");
    }
    if (adversary_.kind == Kind::kPartition) {
      EPIAGG_EXPECTS(adversary_.partition_length >= 1,
                     "a partition must last at least one cycle; use "
                     "AdversarySpec::partition(start, heal_after)");
    }
    EPIAGG_EXPECTS(adversary_.kind != Kind::kOverlayPoison || live_membership,
                   "overlay poisoning floods LIVE membership views; add a "
                   "live .membership(...) or pick a value-lie adversary");
    EPIAGG_EXPECTS(!adaptive_epochs_,
                   "adversary models assume the shared epoch grid; remove "
                   ".adaptive_epochs(...) or .adversary(...)");
  }
  if (has_mitigation) {
    EPIAGG_EXPECTS(protocol_ == ProtocolVariant::kPushPullAverage,
                   "robust combine policies replace the push-pull averaging "
                   "step; use ProtocolVariant::kPushPullAverage");
    EPIAGG_EXPECTS(!adaptive_epochs_,
                   "mitigation windows reset on the shared epoch grid; remove "
                   ".adaptive_epochs(...) or .mitigation(...)");
  }
  for (const auto& observer : observers_) {
    if (observer->wants_attack_impact()) {
      EPIAGG_EXPECTS(has_adversary || has_mitigation,
                     "AttackImpactObserver measures damage relative to the "
                     "honest population; configure .adversary(...) / "
                     ".mitigation(...) or drop the observer");
      EPIAGG_EXPECTS(protocol_ != ProtocolVariant::kSizeEstimation,
                     "attack impact reporting covers the averaging family and "
                     "push-sum; size estimation reports through epochs()");
      EPIAGG_EXPECTS(!adaptive_epochs_,
                     "attack impact reporting needs the shared cycle grid; "
                     "remove .adaptive_epochs(...) or the observer");
    }
  }
  for (const auto& observer : observers_) {
    if (!observer->wants_tracking_error()) continue;
    EPIAGG_EXPECTS(averaging,
                   "TrackingErrorObserver reads per-instance aggregator "
                   "estimates; kPushSum and kSizeEstimation have none — use "
                   "an averaging protocol or drop the observer");
    EPIAGG_EXPECTS(!adaptive_epochs_,
                   "tracking-error reporting needs the shared cycle grid; "
                   "remove .adaptive_epochs(...) or the observer");
  }

  // ---- assembly (RNG consumption order is part of the API contract:
  //      membership seed, then topology, then workload, then the
  //      adversary's role draw, then the run) ----
  std::shared_ptr<Rng> rng =
      entropy_ ? entropy_ : std::make_shared<Rng>(seed_);

  // Draws the adversarial roles — AFTER the workload so benign runs of the
  // same seed keep their historical streams, and exactly once per build so
  // both engines agree on who lies. Null when nothing is configured: every
  // impl then skips the adversarial branches and consumes identical RNG.
  auto make_runtime =
      [&](std::size_t population) -> std::shared_ptr<detail::AdversaryRuntime> {
    if (!has_adversary && !has_mitigation) return nullptr;
    return std::make_shared<detail::AdversaryRuntime>(adversary_, mitigation_,
                                                      population, *rng);
  };

  // Builds the warmed-up membership overlay (live co-run, or the snapshot
  // source about to be frozen). One code path for both engines, so the RNG
  // consumption order — overlay seed first, then warm-up, then workload —
  // stays bit-identical to the historical runs.
  auto build_overlay = [&]() -> std::unique_ptr<PeerSamplingService> {
    const NodeId count = static_cast<NodeId>(n);
    std::unique_ptr<PeerSamplingService> overlay;
    // One-shot build-time dispatch on the configured membership kind: either
    // arm seeds the overlay with exactly one draw. epiagg-lint: fixed-draw-count
    if (membership_.kind == MembershipSpec::Kind::kNewscast) {
      NewscastConfig config;
      config.view_size = membership_.view_size;
      overlay = std::make_unique<NewscastNetwork>(count, config, rng->next_u64());
    } else {
      CyclonConfig config;
      config.view_size = membership_.view_size;
      config.shuffle_size = membership_.shuffle_size;
      overlay = std::make_unique<CyclonNetwork>(count, config, rng->next_u64());
    }
    for (std::size_t c = 0; c < membership_.warmup_cycles; ++c)
      overlay->run_cycle();
    return overlay;
  };

  // Builds the fixed overlay static-population protocols gossip over: a
  // frozen membership snapshot or a synthetic TopologySpec graph.
  auto build_fixed_topology = [&]() -> std::shared_ptr<const Topology> {
    if (has_membership)
      return std::make_shared<GraphTopology>(build_overlay()->overlay_graph());
    const NodeId count = static_cast<NodeId>(n);
    const NodeId degree = static_cast<NodeId>(topology_.degree);
    switch (topology_.kind) {
      case TopologySpec::Kind::kComplete:
        return std::make_shared<CompleteTopology>(count);
      case TopologySpec::Kind::kRandomOutView:
        return std::make_shared<GraphTopology>(
            random_out_view(count, degree, *rng));
      case TopologySpec::Kind::kRandomRegular:
        return std::make_shared<GraphTopology>(
            random_regular(count, degree, *rng));
      case TopologySpec::Kind::kRing:
        return std::make_shared<GraphTopology>(ring_lattice(count, degree));
      case TopologySpec::Kind::kGrid: {
        NodeId side = 1;
        while (side * side < count) ++side;
        EPIAGG_EXPECTS(side * side == count,
                       "TopologySpec::grid() needs a square node count");
        return std::make_shared<GraphTopology>(torus_grid(side, side));
      }
      case TopologySpec::Kind::kSmallWorld:
        return std::make_shared<GraphTopology>(
            watts_strogatz(count, degree, topology_.beta, *rng));
      case TopologySpec::Kind::kScaleFree:
        return std::make_shared<GraphTopology>(
            barabasi_albert(count, degree, *rng));
      case TopologySpec::Kind::kStar:
        return std::make_shared<GraphTopology>(star_graph(count));
    }
    EPIAGG_UNREACHABLE();
  };

  // Everything below is one-shot build-time dispatch over the frozen builder
  // config: which arm runs — and therefore which pinned assembly draw sequence
  // executes — is fixed before the first draw. epiagg-lint: fixed-draw-count
  if (protocol_ == ProtocolVariant::kSizeEstimation) {
    if (engine_ == EngineKind::kEvent) {
      // Overlay first, mirroring the cycle dispatch below, so the assembly
      // draw order (overlay seed, warm-up, adversary) is engine-independent.
      std::unique_ptr<PeerSamplingService> event_overlay;
      if (live_membership) event_overlay = build_overlay();
      detail::EventSpec spec;
      spec.epoch_length = epoch_length;
      spec.waiting = waiting_;
      spec.loss = failures_.message_loss;
      spec.latency = latency_;
      spec.churn = failures_.churn;  // null = static population
      spec.adversary = make_runtime(n);
      return Simulation(detail::make_event_size_estimation(
          rng, observers_, std::move(spec), n, expected_leaders_,
          std::move(event_overlay)));
    }
    std::unique_ptr<PeerSamplingService> overlay;
    if (live_membership) overlay = build_overlay();
    auto runtime = make_runtime(n);
    return Simulation(std::make_unique<detail::SizeEstimationImpl>(
        rng, observers_, n, epoch_length, expected_leaders_, activation_,
        failures_.churn, failures_.message_loss, std::move(overlay),
        std::move(runtime)));
  }

  // Averaging family and push-sum. Partner source: a live membership
  // overlay, a fixed topology (static populations), or — under churn — the
  // complete, peer-sampled live population. Adaptive runs keep sampling the
  // live population even without churn: join(value) may grow it past any
  // frozen topology. Build-time config dispatch (see the note above).
  // epiagg-lint: fixed-draw-count
  std::unique_ptr<PeerSamplingService> overlay;
  std::shared_ptr<const Topology> topology;
  if (live_membership) {
    overlay = build_overlay();
  } else if (!has_churn && !adaptive_epochs_) {
    topology = build_fixed_topology();
  }
  std::vector<double> initial =
      workload_.is_explicit() ? workload_.values
                              : generate_values(workload_.distribution, n, *rng);
  auto runtime = make_runtime(n);

  // Build-time config dispatch (see the note above). epiagg-lint: fixed-draw-count
  if (engine_ == EngineKind::kEvent) {
    detail::EventSpec spec;
    spec.epoch_length = epoch_length;
    spec.adaptive = adaptive_epochs_;
    spec.clock_drift = clock_drift_;
    spec.waiting = waiting_;
    spec.loss = failures_.message_loss;
    spec.latency = latency_;
    spec.churn = failures_.churn;  // null = static population
    spec.joiner_distribution = workload_.distribution;
    spec.workload = workload_;
    spec.adversary = std::move(runtime);

    if (protocol_ == ProtocolVariant::kPushSum) {
      return Simulation(detail::make_event_push_sum(
          rng, observers_, std::move(spec), std::move(initial),
          std::move(topology)));
    }
    return Simulation(detail::make_event_averaging(
        rng, observers_, std::move(spec), std::move(plan), std::move(initial),
        std::move(overlay), std::move(topology)));
  }

  // Push-sum gossips over a fixed topology only (live overlays and churn
  // were rejected above).
  if (protocol_ == ProtocolVariant::kPushSum) {
    return Simulation(std::make_unique<detail::PushSumImpl>(
        rng, observers_, std::move(topology), std::move(initial),
        failures_.message_loss, std::move(runtime)));
  }

  std::unique_ptr<PairSelector> selector;
  if (topology != nullptr) {
    if (pairs_ == PairStrategy::kSequential) {
      selector = std::make_unique<SequentialSelector>(
          topology, activation_ == ActivationOrder::kShuffled);
    } else {
      selector = make_pair_selector(pairs_, topology);
    }
  }
  return Simulation(std::make_unique<detail::CycleAveragingImpl>(
      rng, observers_, epoch_length, std::move(plan), workload_,
      std::move(initial), failures_.message_loss, std::move(runtime),
      std::move(selector), std::move(topology), std::move(overlay),
      failures_.churn, activation_));
}

}  // namespace epiagg
