// Event-engine simulation impls: the §4 protocol family executed as a real
// asynchronous message-passing system.
//
// Every exchange is split into a push and a reply message. Each message
// carries its payload (slot values, counting instances, or push-sum mass), a
// latency sampled from the configured LatencyModel (zero when none), an
// epoch tag, and the generation of its addressee. Loss and churn therefore
// strike *mid-exchange* — the paper's actual failure model:
//
//  * a lost push cancels the exchange with no state change;
//  * a lost reply leaves the passive side updated but not the initiator
//    (asymmetric update — the mean drifts);
//  * a crash between push and reply orphans the in-flight message: the
//    generation check at delivery silently drops it, so a recycled slot
//    never receives its predecessor's traffic and a mid-exchange crash
//    loses at most one node's mass (tests/sim/test_event_async.cpp).
//
// Messages and wake-ups are typed SimEventRecords (sim/sim_events.hpp)
// dispatched through one switch per impl — no per-message heap allocation.
// Payloads ride inline in the record (single plane, push-sum halves) or in
// a recycled arena slot (sim/payload_arena.hpp) released when the record
// pops, delivered or not, so orphaned traffic recycles like delivered
// traffic. Each delivery merges into its target as it pops, so every node's
// merge order is the pop order.
//
// Three impls cover the protocol family:
//
//  * EventAveragingImpl — push–pull averaging of any aggregate plan, over the
//    complete overlay, a fixed topology, or a LIVE membership overlay whose
//    per-node gossip wake-ups interleave with the aggregation wake-ups in
//    simulated time. A run without epochs gossips continuously; otherwise
//    epochs restart either on the global simulated-time grid (multiples of
//    the epoch length, churn fired at integer times) or adaptively — each
//    node runs a local, possibly drifting ΔT clock and adopts newer epoch
//    ids epidemically from message tags (the fully asynchronous §4 scheme).
//  * EventCountingImpl — §4 size estimation: counting instances spread by
//    push/reply messages between autonomous participants.
//  * EventPushSumImpl — the Kempe–Dobra–Gehrke baseline: push-only messages
//    whose (sum, weight) mass is genuinely in flight under latency.
//
// Per-node state lives in the slot-major NodeStateStore (value planes +
// participation bitmap), exactly like the cycle-engine impls.
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "protocol/epoch.hpp"
#include "protocol/size_estimation.hpp"
#include "sim/node_store.hpp"
#include "sim/payload_arena.hpp"
#include "sim/sim_events.hpp"
#include "sim/simulation_impl.hpp"
#include "workload/values.hpp"

namespace epiagg {
namespace detail {
namespace {

// ===================================================================
// EventMessagingImpl — shared machinery of the message-based impls
// ===================================================================
//
// Generation-guarded slots, the integer-time clock driver (churn at
// cycle-equivalent times, global epoch boundaries, per-cycle sampling), the
// waiting/latency/loss helpers, the live-membership co-run (overlay gossip
// wake-ups, the overlay clock, poisoning, health reporting), and the
// typed-record dispatch loop. Derived impls own their payloads and message
// flows; any of them may gossip over a live overlay by populating overlay_.
class EventMessagingImpl : public SimulationImpl {
public:
  EventMessagingImpl(std::shared_ptr<Rng> rng,
                     std::vector<std::shared_ptr<Observer>> observers,
                     EventSpec spec)
      : SimulationImpl(std::move(rng), std::move(observers), spec.epoch_length),
        spec_(std::move(spec)) {
    for (const auto& observer : observers_)
      want_health_ = want_health_ || observer->wants_overlay_health();
  }

  void run_time(SimTime until) override {
    EPIAGG_EXPECTS(until >= engine_.now(), "cannot run into the past");
    engine_.run_until(until,
                      [this](SimEventRecord& event) { handle(event); });
  }

  std::size_t population_size() const override { return alive_.size(); }
  std::size_t participant_count() const override { return participants_.size(); }
  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t messages_lost() const override { return messages_lost_; }

protected:
  /// The typed-event switch: the shared wake-up and clock kinds live here,
  /// derived impls extend it with their message kinds and delegate the rest.
  virtual void handle(SimEventRecord& event) {
    switch (event.kind) {
      case EvKind::kWake:
        // The generation-guarded GETWAITINGTIME loop: one initiate() per
        // wake, dying silently when the slot's occupant crashed.
        if (event.gen_a != generations_[event.a]) return;
        initiate(event.a);
        schedule_activation(event.a, /*initial=*/false);
        return;
      case EvKind::kTick:
        tick(static_cast<std::size_t>(event.tag));
        return;
      case EvKind::kMembershipWake:
        if (event.gen_a != generations_[event.a]) return;
        overlay_->initiate_gossip(event.a);
        schedule_membership(event.a, /*initial=*/false);
        return;
      default:
        EPIAGG_ASSERT(false, "event kind not handled by this impl");
    }
  }

  /// Samples one one-way message delay.
  SimTime delay() {
    if (spec_.latency == nullptr) return 0.0;
    RngAuditScope audit(*rng_, "latency");
    return spec_.latency->sample(*rng_);
  }

  /// One GETWAITINGTIME draw: constant period 1 with a uniform phase on the
  /// very first activation, or i.i.d. Exponential(mean 1) waits.
  SimTime draw_wait(bool initial) {
    RngAuditScope audit(*rng_, "waiting");
    switch (spec_.waiting) {
      case WaitingTime::kConstant:
        return initial ? rng_->uniform() : 1.0;
      case WaitingTime::kExponential:
        return rng_->exponential(1.0);
    }
    EPIAGG_UNREACHABLE();
  }

  /// Schedules the next generation-guarded wake-up of `id`.
  void schedule_activation(NodeId id, bool initial) {
    SimEventRecord wake;
    wake.kind = EvKind::kWake;
    wake.a = id;
    wake.gen_a = generations_[id];
    engine_.schedule_after(draw_wait(initial), wake);
  }

  /// One wake-up of node `id`: start (at most) one exchange.
  virtual void initiate(NodeId id) = 0;

  /// Draws (and counts) the fate of one sent message. True = lost.
  bool message_lost() {
    ++messages_sent_;
    // Config-constant loss rate: lossless configs never draw here, lossy
    // configs draw exactly once per send or reply attempt.
    // epiagg-lint: fixed-draw-count
    if (spec_.loss > 0.0) {
      RngAuditScope audit(*rng_, "loss");
      if (rng_->bernoulli(spec_.loss)) {
        ++messages_lost_;
        return true;
      }
    }
    return false;
  }

  void ensure_generation(NodeId id) {
    if (generations_.size() <= id) generations_.resize(id + 1, 0);
  }

  /// The integer-time driver: fires at t = 0, 1, 2, ... mirroring one
  /// run_cycle of the cycle impls — (exchanges of the elapsed window
  /// happened as events) → per-cycle reporting → epoch boundary → churn of
  /// the window that now begins.
  void start_clock() { schedule_tick(0); }

  /// Per-cycle reporting at integer time t >= 1.
  virtual void on_integer_time(std::size_t t) = 0;
  /// Global epoch boundary (t % epoch_length == 0); adaptive impls keep
  /// their own per-node clocks and leave this empty.
  virtual void on_epoch_boundary() = 0;
  /// One churn admission (allocate + seed derived state + alive_.insert).
  virtual void join_one() = 0;
  /// One churn crash of `victim` (already generation-bumped and erased from
  /// alive_/participants_ by the caller; release derived state here).
  virtual void crash_one(NodeId victim) = 0;

  /// Schedules the next membership-gossip wake-up of `id` (live overlay
  /// runs only). Membership keeps the paper's constant Δt cadence
  /// regardless of the aggregation waiting policy.
  void schedule_membership(NodeId id, bool initial) {
    SimEventRecord wake;
    wake.kind = EvKind::kMembershipWake;
    wake.a = id;
    wake.gen_a = generations_[id];
    SimTime wait = 1.0;
    // One phase draw per node lifetime: `initial` is true exactly once per
    // allocation, on a call path that is itself a pure function of the stream.
    // epiagg-lint: fixed-draw-count
    if (initial) {
      // Fresh nodes desynchronize onto a random phase of the Δt grid.
      RngAuditScope audit(*rng_, "membership");
      wait = rng_->uniform();
    }
    engine_.schedule_after(wait, wake);
  }

  /// Run at every integer tick: the overlay clock, poisoning and health
  /// reporting of a live co-run. Override to extend (call through).
  virtual void on_tick(std::size_t t) {
    if (overlay_ == nullptr) return;
    overlay_->advance_clock();
    // Poisoners strike on the membership clock grid: their planted entries
    // are maximally fresh for the exchanges of the window that now begins.
    // Adversary presence and its poisoning flag are config-constant.
    // epiagg-lint: fixed-draw-count
    if (spec_.adversary != nullptr && spec_.adversary->poisoning()) {
      RngAuditScope audit(*rng_, "adversary");
      spec_.adversary->poison_overlay(*overlay_, alive_, *rng_);
    }
    if (want_health_ && t > 0) report_overlay_health(*overlay_, t, observers_);
  }
  /// True when global epoch boundaries apply (continuous and adaptive runs
  /// return false).
  virtual bool global_epochs() const { return epoch_length_ > 0; }

  EventSpec spec_;
  SimEventEngine engine_;
  AliveSet alive_;
  AliveSet participants_;
  std::vector<std::uint32_t> generations_;
  /// The live peer-sampling co-run; null when gossiping over a fixed
  /// topology or the omniscient live population.
  std::unique_ptr<PeerSamplingService> overlay_;
  EpochId epoch_id_ = 0;
  std::size_t epoch_start_size_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_lost_ = 0;
  bool want_health_ = false;

private:
  void schedule_tick(std::size_t t) {
    SimEventRecord record;
    record.kind = EvKind::kTick;
    record.tag = t;
    engine_.schedule_at(static_cast<SimTime>(t), record);
  }

  void tick(std::size_t t) {
    if (t > 0) {
      cycle_ = t;
      on_integer_time(t);
      if (global_epochs() && t % epoch_length_ == 0) on_epoch_boundary();
    }
    on_tick(t);
    if (spec_.churn != nullptr) apply_churn(t);
    schedule_tick(t + 1);
  }

  void apply_churn(std::size_t t) {
    RngAuditScope audit(*rng_, "churn");
    const ChurnAction action = spec_.churn->at_cycle(t, alive_.size());
    // ChurnSchedule::at_cycle is a pure function of (tick, population), and
    // the population evolves only through this stream, so the leave count —
    // and the guard's clamp — is seed-determined. epiagg-lint: fixed-draw-count
    for (std::size_t k = 0; k < action.leaves && alive_.size() > 2; ++k) {
      const NodeId victim = alive_.sample(*rng_);
      if (participants_.contains(victim)) participants_.erase(victim);
      alive_.erase(victim);
      ++generations_[victim];  // orphans pending wake-ups AND in-flight
                               // messages addressed to the victim
      crash_one(victim);
    }
    for (std::size_t k = 0; k < action.joins; ++k) join_one();
  }
};

// ===================================================================
// EventAveragingImpl — push–pull averaging, all epoch modes
// ===================================================================

class EventAveragingImpl final : public EventMessagingImpl {
public:
  EventAveragingImpl(std::shared_ptr<Rng> rng,
                     std::vector<std::shared_ptr<Observer>> observers,
                     EventSpec spec, AggregatorPlan plan,
                     std::vector<double> initial,
                     std::unique_ptr<PeerSamplingService> overlay,
                     std::shared_ptr<const Topology> topology)
      : EventMessagingImpl(std::move(rng), std::move(observers), std::move(spec)),
        plan_(std::move(plan)),
        combiners_(plan_.plane_combiners()),
        topology_(std::move(topology)),
        store_(combiners_.size(), initial),
        payloads_(combiners_.size()) {
    overlay_ = std::move(overlay);
    want_impact_ = spec_.adversary != nullptr && want_attack_impact();
    want_tracking_ = want_tracking_error();
    // Multi-width instances seed through their init kernels BEFORE any
    // snapshot below.
    seed_wide_instances(store_, plan_, initial);
    generations_.assign(initial.size(), 0);
    if (spec_.adaptive) nodes_.resize(initial.size());
    for (NodeId id = 0; id < initial.size(); ++id) alive_.insert(id);

    // Config-constant adaptive flag: a given run either draws the per-node
    // start phases at construction or never does. epiagg-lint: fixed-draw-count
    if (spec_.adaptive) {
      // Every initial node is active from time 0 with a random phase inside
      // its first (possibly drifting) cycle.
      for (const NodeId id : alive_.members()) {
        AdaptiveState& node = nodes_[id];
        node.clock = EpochClock(epoch_length_);
        node.period = draw_period();
        node.active = true;
        node.skip_age = false;
        enroll_participant(id);
        SimTime phase;
        {
          RngAuditScope audit(*rng_, "waiting");
          phase = rng_->uniform() * node.period;
        }
        engine_.schedule_after(phase, adaptive_wake_record(id));
      }
    } else if (epoch_length_ > 0) {
      start_epoch();
    } else {
      // Continuous run: everyone participates from time 0 and the truth is
      // the initial snapshot's exact answer.
      for (const NodeId id : alive_.members()) {
        enroll_participant(id);
        schedule_activation(id, /*initial=*/true);
      }
      truth_ = exact_answer(combiners_.front(), store_.attributes(0));
    }
    if (overlay_ != nullptr) {
      for (const NodeId id : alive_.members())
        schedule_membership(id, /*initial=*/true);
    }
    start_clock();
  }

  double variance() const override {
    return variance_or_zero(participant_stats());
  }
  double mean() const override { return mean_or_zero(participant_stats()); }

  const std::vector<double>& approximations() const override {
    return slot_approximations(0);
  }

  const std::vector<double>& slot_approximations(std::size_t s) const override {
    EPIAGG_EXPECTS(s < store_.slot_count(), "slot index out of range");
    if (spec_.churn != nullptr)
      unsupported("node ids are recycled under churn; read variance()/mean() "
                  "or epochs() instead of the raw planes");
    return store_.approximations(s);
  }

  void set_value(NodeId id, double value) override { set_slot_value(id, 0, value); }

  void set_slot_value(NodeId id, std::size_t slot, double value) override {
    EPIAGG_EXPECTS(slot < plan_.instances().size(), "slot index out of range");
    EPIAGG_EXPECTS(id < store_.capacity() && alive_.contains(id),
                   "node id is not alive");
    EPIAGG_EXPECTS(epoch_length_ > 0,
                   "attribute updates only surface through epoch restarts; "
                   "configure .epoch_length(cycles)");
    seed_instance_attributes(store_, plan_.instances()[slot], id, value);
  }

  const std::vector<AsyncSample>& samples() const override { return samples_; }

  std::shared_ptr<const Topology> topology() const override {
    if (topology_ == nullptr)
      unsupported("this configuration samples peers from the live "
                  "population; no fixed topology exists");
    return topology_;
  }

  const std::vector<AdaptiveEpochSample>& adaptive_samples() const override {
    if (!spec_.adaptive) return SimulationImpl::adaptive_samples();
    return adaptive_samples_;
  }

  EpochId frontier_epoch() const override {
    if (!spec_.adaptive) return SimulationImpl::frontier_epoch();
    return frontier_;
  }

  NodeId join(double value) override {
    if (!spec_.adaptive) return SimulationImpl::join(value);
    return admit_adaptive_joiner(value);
  }

protected:
  void handle(SimEventRecord& event) override {
    switch (event.kind) {
      case EvKind::kPush:
        deliver_push(event);
        release_payload(event);
        return;
      case EvKind::kReply:
        deliver_reply(event);
        release_payload(event);
        return;
      case EvKind::kAdaptiveWake:
        adaptive_wake(event.a, event.gen_a);
        return;
      case EvKind::kAdoptNotify:
        // The passive side's answer to a behind-the-times initiator: the
        // newer epoch id only (the epidemic epoch fast-forward).
        if (event.gen_a != generations_[event.a]) return;
        if (!nodes_[event.a].active) return;
        if (event.tag > nodes_[event.a].clock.epoch())
          adopt(event.a, event.tag);
        return;
      default:
        EventMessagingImpl::handle(event);
        return;
    }
  }

  void on_integer_time(std::size_t t) override {
    const RunningStats stats = participant_stats();
    const double est_mean = mean_or_zero(stats);
    const double est_variance = variance_or_zero(stats);
    samples_.emplace_back(static_cast<SimTime>(t), est_variance, est_mean);
    if (observed())
      notify_cycle(CycleView{t, alive_.size(), est_mean, est_variance, {}});
    if (want_impact_) {
      AttackImpact impact = spec_.adversary->measure_impact(
          t, participants_.members(),
          [this](NodeId id) { return store_.approximation(id, 0); },
          [this](NodeId id) { return store_.attribute(id, 0); });
      if (spec_.adversary->poisoning() && overlay_ != nullptr)
        impact.capture_ratio =
            spec_.adversary->capture_ratio(*overlay_, alive_.members());
      notify_attack_impact(impact);
    }
    if (want_tracking_) {
      report_tracking_errors(store_, plan_, t, participants_.members(),
                             attr_scratch_, read_scratch_);
    }
  }

  void on_epoch_boundary() override {
    finish_epoch();
    start_epoch();
  }

  bool global_epochs() const override {
    return epoch_length_ > 0 && !spec_.adaptive;
  }

  void on_tick(std::size_t t) override {
    EventMessagingImpl::on_tick(t);
    if (!spec_.workload.is_time_varying() && !plan_.has_dynamics()) return;
    // Time-varying attributes evolve once per integer time, for the
    // (t, t+1] window about to run — the event-engine mirror of the cycle
    // impls' start-of-cycle evolution. Config-constant dynamics flag: a
    // given run either evolves at every tick or never does.
    // epiagg-lint: fixed-draw-count
    if (spec_.workload.is_time_varying()) {
      RngAuditScope audit(*rng_, "workload");
      evolve_workload(store_, plan_, spec_.workload, t + 1, alive_.members(),
                      *rng_);
    }
    apply_aggregate_dynamics(store_, plan_, t);
  }

  void join_one() override {
    double attribute;
    {
      RngAuditScope audit(*rng_, "workload");
      attribute = generate_values(spec_.joiner_distribution, 1, *rng_)[0];
    }
    if (spec_.adaptive) {
      admit_adaptive_joiner(attribute);
      return;
    }
    const NodeId id = allocate(attribute);
    // A joiner waits for the next epoch restart before it carries protocol
    // state (start_epoch() enrolls it and starts its wake-up clock).
    store_.set_participating(id, false);
  }

  void crash_one(NodeId victim) override {
    if (overlay_ != nullptr) {
      overlay_->remove_node(victim);
      store_.reset(victim);  // the overlay owns slot allocation
    } else {
      store_.release(victim);
    }
    // The recycled slot belongs to a fresh, honest joiner from here on.
    if (spec_.adversary != nullptr) spec_.adversary->clear_role(victim);
    if (spec_.adaptive) nodes_[victim].active = false;
  }

private:
  struct AdaptiveState {
    EpochClock clock{1};
    double period = 1.0;          // local cycle length (clock drift)
    bool active = false;          // false while a joiner waits for its epoch
    bool skip_age = false;        // partial cycle right after an adoption
    SimTime activation_at = 0.0;  // when a pending joiner starts
  };

  double draw_period() {
    RngAuditScope audit(*rng_, "waiting");
    return spec_.clock_drift == 0.0
               ? 1.0
               : rng_->uniform(1.0 - spec_.clock_drift,
                               1.0 + spec_.clock_drift);
  }

  void enroll_participant(NodeId id) {
    store_.set_participating(id, true);
    participants_.insert(id);
  }

  /// Allocates a slot (through the overlay when one co-runs) and seeds every
  /// plane with `attribute`.
  NodeId allocate(double attribute) {
    NodeId id;
    // Config-constant overlay dispatch: with an overlay every allocation draws
    // exactly one bootstrap contact, without one it never draws.
    // epiagg-lint: fixed-draw-count
    if (overlay_ != nullptr) {
      NodeId contact;
      {
        RngAuditScope audit(*rng_, "membership");
        contact = alive_.sample(*rng_);
      }
      id = overlay_->add_node(contact);
      store_.ensure(id);
      // The overlay may mint a FRESH id past the historical peak; its
      // generation slot must exist before anything reads it.
      ensure_generation(id);
      schedule_membership(id, /*initial=*/true);
    } else {
      id = store_.acquire();
      ensure_generation(id);
    }
    // Per-instance init kernels; width-1 instances write exactly
    // `attribute` into their plane.
    reseed_attributes(store_, plan_, id, attribute);
    store_.snapshot(id);
    alive_.insert(id);
    return id;
  }

  RunningStats participant_stats() const {
    RunningStats stats;
    for (const NodeId id : participants_.members())
      stats.add(store_.approximation(id, 0));
    return stats;
  }

  // ---- global epochs ----

  void start_epoch() {
    for (const NodeId id : alive_.members()) {
      store_.snapshot(id);
      if (!store_.participating(id)) {
        enroll_participant(id);
        schedule_activation(id, /*initial=*/true);
      }
    }
    epoch_start_size_ = alive_.size();
    snapshot_.clear();
    for (const NodeId id : participants_.members())
      snapshot_.push_back(store_.attribute(id, 0));
    truth_ = exact_answer(combiners_.front(), snapshot_);
    if (spec_.adversary != nullptr) spec_.adversary->reset_windows();
  }

  void finish_epoch() {
    record_epoch(summarize_participants(participant_stats(), cycle_,
                                        epoch_id_, epoch_start_size_,
                                        alive_.size(), truth_));
    ++epoch_id_;  // in-flight messages tagged with the old id go stale
  }

  // ---- wake-ups ----

  SimEventRecord adaptive_wake_record(NodeId id) const {
    SimEventRecord wake;
    wake.kind = EvKind::kAdaptiveWake;
    wake.a = id;
    wake.gen_a = generations_[id];
    return wake;
  }

  void adaptive_wake(NodeId id, std::uint32_t generation) {
    if (generation != generations_[id]) return;
    AdaptiveState& node = nodes_[id];
    if (!node.active) {
      // Pending joiner reaching its promised epoch start.
      if (engine_.now() + 1e-12 >= node.activation_at) {
        node.active = true;
        enroll_participant(id);
        store_.snapshot(id);
        frontier_ = std::max(frontier_, node.clock.epoch());
      }
    } else {
      initiate(id);
      // --- local epoch clock ---
      if (node.skip_age) {
        node.skip_age = false;  // partial post-adoption cycle: not a full Δt
      } else if (node.clock.tick()) {
        record_adaptive_sample(id, node.clock.epoch() - 1);
        store_.snapshot(id);  // restart from the fresh snapshot
        frontier_ = std::max(frontier_, node.clock.epoch());
      }
    }
    engine_.schedule_after(node.period, adaptive_wake_record(id));
  }

  // ---- the message flow ----

  NodeId pick_peer(NodeId id) {
    RngAuditScope audit(*rng_, "partner-draw");
    // Config-constant partner-source dispatch (overlay / fixed topology /
    // live population): every arm consumes exactly one bounded draw, except
    // the size<2 guard, which is stream-derived population state.
    // epiagg-lint: fixed-draw-count
    if (overlay_ != nullptr) {
      const NodeId peer = overlay_->random_view_peer(id, *rng_);
      if (peer == kInvalidNode) return kInvalidNode;  // isolated right now
      // A joiner waits for the next epoch restart before it carries
      // protocol state; exchanging with it would corrupt the estimate.
      if (!store_.participating(peer)) return kInvalidNode;
      return peer;
    }
    // epiagg-lint: fixed-draw-count (same dispatch as above)
    if (topology_ != nullptr) return topology_->random_neighbor(id, *rng_);
    if (participants_.size() < 2) return kInvalidNode;
    return participants_.sample_other(id, *rng_);
  }

  EpochId epoch_tag(NodeId id) const {
    return spec_.adaptive ? nodes_[id].clock.epoch() : epoch_id_;
  }

  /// Stages what node `id` puts on the wire — its state, or its lie — into
  /// the record: inline for a single plane, in an arena row otherwise.
  void stage_outgoing(NodeId id, SimEventRecord& event) {
    const bool lie = spec_.adversary != nullptr && spec_.adversary->lying() &&
                     spec_.adversary->adversarial(id);
    if (combiners_.size() == 1) {
      event.v0 = wire_value(id, 0, lie);
    } else {
      event.slab = payloads_.acquire();
      const std::span<double> row = payloads_.at(event.slab);
      for (std::size_t s = 0; s < combiners_.size(); ++s)
        row[s] = wire_value(id, s, lie);
    }
  }

  double wire_value(NodeId id, std::size_t s, bool lie) const {
    const double value = store_.approximation(id, s);
    return lie ? spec_.adversary->reported(id, value, cycle_) : value;
  }

  std::span<const double> payload_view(const SimEventRecord& event) const {
    if (event.slab == kNoSlab) return {&event.v0, 1};
    return payloads_.at(event.slab);
  }

  void release_payload(const SimEventRecord& event) {
    // Released whether the message was delivered or dropped stale: orphaned
    // in-flight payloads recycle exactly like delivered ones.
    if (event.slab != kNoSlab) payloads_.release(event.slab);
  }

  /// Folds one delivery's values into node `id`, plane by plane.
  void merge(NodeId id, std::span<const double> values) {
    for (std::size_t s = 0; s < combiners_.size(); ++s) {
      if (s == 0 && spec_.adversary != nullptr && spec_.adversary->mitigating()) {
        store_.set_approximation(
            id, 0,
            spec_.adversary->mitigated_update(id, store_.approximation(id, 0),
                                              values[0]));
      } else {
        store_.set_approximation(
            id, s,
            combine(combiners_[s], store_.approximation(id, s), values[s]));
      }
    }
  }

  void initiate(NodeId id) override {
    const NodeId peer = pick_peer(id);
    if (peer == kInvalidNode) return;
    if (spec_.adversary != nullptr && spec_.adversary->blocks(id, peer, cycle_))
      return;  // partitioned: the push never leaves the island
    if (message_lost()) return;  // push lost: the exchange never happens
    SimEventRecord push;
    push.kind = EvKind::kPush;
    push.a = id;
    push.gen_a = generations_[id];
    push.b = peer;
    push.gen_b = generations_[peer];
    push.tag = epoch_tag(id);
    stage_outgoing(id, push);
    engine_.schedule_after(delay(), push);
  }

  void deliver_push(SimEventRecord& push) {
    const NodeId from = push.a;
    const NodeId to = push.b;
    if (push.gen_b != generations_[to]) return;  // crashed in flight
    if (!store_.participating(to)) return;
    if (spec_.adaptive) {
      AdaptiveState& node = nodes_[to];
      if (push.tag > node.clock.epoch()) {
        adopt(to, push.tag);
      } else if (node.clock.epoch() > push.tag) {
        // The initiator is behind: answer with the newer epoch id only —
        // this is how epoch starts spread "like an epidemic broadcast".
        if (message_lost()) return;
        SimEventRecord notify;
        notify.kind = EvKind::kAdoptNotify;
        notify.a = from;
        notify.gen_a = push.gen_a;
        notify.tag = node.clock.epoch();
        engine_.schedule_after(delay(), notify);
        return;
      }
    } else if (epoch_length_ > 0 && push.tag != epoch_id_) {
      return;  // a restart overtook the message; its state is stale
    }
    // Passive side (paper Fig. 1): reply with the pre-update state (or its
    // lie), then merge the pushed values.
    SimEventRecord reply;
    reply.kind = EvKind::kReply;
    reply.a = from;
    reply.gen_a = push.gen_a;
    reply.tag = push.tag;
    stage_outgoing(to, reply);
    merge(to, payload_view(push));
    if (observed()) notify_exchange(from, to);
    if (message_lost()) {
      release_payload(reply);
      return;  // reply lost: asymmetric update, mean drifts
    }
    engine_.schedule_after(delay(), reply);
  }

  void deliver_reply(SimEventRecord& reply) {
    const NodeId to = reply.a;
    if (reply.gen_a != generations_[to]) return;  // crashed mid-exchange
    if (!store_.participating(to)) return;
    if (spec_.adaptive) {
      if (nodes_[to].clock.epoch() != reply.tag) return;  // adopted newer epoch
    } else if (epoch_length_ > 0 && reply.tag != epoch_id_) {
      return;
    }
    merge(to, payload_view(reply));
  }

  // ---- adaptive epochs ----

  void adopt(NodeId id, EpochId epoch) {
    AdaptiveState& node = nodes_[id];
    // A node inside the FINAL cycle of its epoch that hears about the next
    // epoch has effectively finished (its approximation is converged to the
    // configured accuracy), so it reports before switching. Nodes genuinely
    // behind abandon their epoch unreported — the price of the epidemic
    // fast-forward.
    if (node.clock.age() + 1 >= epoch_length_)
      record_adaptive_sample(id, node.clock.epoch());
    node.clock.observe(epoch);
    store_.snapshot(id);  // restart from the fresh snapshot
    // The wake-up grid is hardware-driven; the fraction of a cycle remaining
    // on it at adoption time must not count as a whole new-epoch cycle.
    node.skip_age = true;
    frontier_ = std::max(frontier_, epoch);
  }

  void record_adaptive_sample(NodeId id, EpochId epoch) {
    adaptive_samples_.emplace_back(id, epoch, engine_.now(),
                                   store_.approximation(id, 0));
  }

  NodeId admit_adaptive_joiner(double value) {
    // Out-of-band contact: a random active member hands out the next epoch
    // id and the time remaining until it begins (on the member's clock).
    NodeId contact = kInvalidNode;
    {
      RngAuditScope audit(*rng_, "membership");
      for (int attempt = 0; attempt < 1000; ++attempt) {
        const NodeId candidate = alive_.sample(*rng_);
        if (nodes_[candidate].active) {
          contact = candidate;
          break;
        }
      }
    }
    EPIAGG_EXPECTS(contact != kInvalidNode, "no active member to bootstrap from");
    // Copy the member's epoch grid BEFORE allocating: the joiner's slot may
    // grow nodes_ and invalidate any reference into it.
    const std::size_t cycles_left = epoch_length_ - nodes_[contact].clock.age();
    const SimTime start_at =
        engine_.now() +
        static_cast<SimTime>(cycles_left) * nodes_[contact].period;
    const EpochId next_epoch = nodes_[contact].clock.epoch() + 1;

    const NodeId id = allocate(value);
    store_.set_participating(id, false);
    if (nodes_.size() <= id) nodes_.resize(id + 1);
    AdaptiveState& node = nodes_[id];
    node.clock = EpochClock(epoch_length_, next_epoch, 0);
    node.period = draw_period();
    node.active = false;
    node.skip_age = false;
    node.activation_at = start_at;
    // First wake-up exactly at the promised epoch start.
    engine_.schedule_at(start_at, adaptive_wake_record(id));
    return id;
  }

  AggregatorPlan plan_;
  std::vector<Combiner> combiners_;  // plan_'s flattened plane combiners
  std::shared_ptr<const Topology> topology_;
  NodeStateStore store_;
  SlabArena<double> payloads_;        // multi-plane in-flight messages
  std::vector<AdaptiveState> nodes_;  // adaptive mode only
  std::vector<AsyncSample> samples_;
  std::vector<AdaptiveEpochSample> adaptive_samples_;
  std::vector<double> snapshot_;  // epoch-start scratch
  EpochId frontier_ = 0;
  double truth_ = 0.0;
  bool want_impact_ = false;
  bool want_tracking_ = false;
  std::vector<double> attr_scratch_;  // report_tracking_errors scratch
  std::vector<double> read_scratch_;
};

// ===================================================================
// EventCountingImpl — §4 size estimation as real messages
// ===================================================================

class EventCountingImpl final : public EventMessagingImpl {
public:
  EventCountingImpl(std::shared_ptr<Rng> rng,
                    std::vector<std::shared_ptr<Observer>> observers,
                    EventSpec spec, std::size_t initial_size,
                    double expected_leaders,
                    std::unique_ptr<PeerSamplingService> overlay)
      : EventMessagingImpl(std::move(rng), std::move(observers), std::move(spec)),
        expected_leaders_(expected_leaders),
        store_(1) {
    overlay_ = std::move(overlay);
    EPIAGG_ASSERT(epoch_length_ >= 1,
                  "size estimation restarts via epochs");
    const auto prior = static_cast<double>(initial_size);
    instances_.reserve(initial_size);
    for (std::size_t i = 0; i < initial_size; ++i) {
      const NodeId id = allocate_slot();
      store_.set_attribute(id, 0, prior);  // plane 0 = the §4 size prior
      alive_.insert(id);
    }
    start_epoch();
    if (overlay_ != nullptr) {
      for (const NodeId id : alive_.members())
        schedule_membership(id, /*initial=*/true);
    }
    start_clock();
  }

  double total_mass() const override {
    double sum = 0.0;
    for (const NodeId id : participants_.members())
      sum += instances_[id].total_mass();
    return sum;
  }

protected:
  void handle(SimEventRecord& event) override {
    switch (event.kind) {
      case EvKind::kPush:
        deliver_push(event);
        payloads_.release(event.slab);
        return;
      case EvKind::kReply:
        deliver_reply(event);
        payloads_.release(event.slab);
        return;
      default:
        EventMessagingImpl::handle(event);
        return;
    }
  }

  void on_integer_time(std::size_t t) override {
    if (observed()) notify_cycle(CycleView{t, alive_.size(), 0.0, 0.0, {}});
  }

  void on_epoch_boundary() override {
    finish_epoch();
    start_epoch();
  }

  void join_one() override {
    // The newcomer contacts a random alive node out-of-band, inherits its
    // size prior, and waits for the next epoch before participating. With a
    // live overlay the same contact doubles as the bootstrap entry point.
    NodeId contact;
    {
      RngAuditScope audit(*rng_, "membership");
      contact = alive_.sample(*rng_);
    }
    const double prior = store_.attribute(contact, 0);
    NodeId id = kInvalidNode;
    // Config-constant overlay dispatch: one bootstrap contact either way.
    // epiagg-lint: fixed-draw-count
    if (overlay_ != nullptr) {
      id = overlay_->add_node(contact);
      store_.ensure(id);
      // The overlay may mint a FRESH id past the historical peak; its
      // generation slot and counting state must exist before anything
      // reads them.
      ensure_generation(id);
      if (instances_.size() <= id) {
        instances_.resize(id + 1);
      } else {
        instances_[id].clear();
      }
      store_.set_participating(id, false);
      schedule_membership(id, /*initial=*/true);
    } else {
      id = allocate_slot();
    }
    store_.set_attribute(id, 0, prior);
    alive_.insert(id);
  }

  void crash_one(NodeId victim) override {
    if (overlay_ != nullptr) {
      // The overlay owns slot-id recycling here; the store just zeroes.
      overlay_->remove_node(victim);
      store_.reset(victim);
      instances_[victim].clear();
    } else {
      store_.release(victim);
    }
    if (spec_.adversary != nullptr) spec_.adversary->clear_role(victim);
  }

private:
  NodeId allocate_slot() {
    const NodeId id = store_.acquire();
    ensure_generation(id);
    if (instances_.size() <= id) {
      instances_.resize(id + 1);
    } else {
      instances_[id].clear();
    }
    return id;
  }

  void start_epoch() {
    // Every alive node (including joiners that were waiting) enters the new
    // epoch; each may become a leader of a fresh counting instance with
    // probability E_leaders / previous-estimate.
    instances_this_epoch_ = 0;
    RngAuditScope audit(*rng_, "epoch-restart");
    for (const NodeId id : alive_.members()) {
      instances_[id].clear();
      if (!store_.participating(id)) {
        store_.set_participating(id, true);
        participants_.insert(id);
        schedule_activation(id, /*initial=*/true);
      }
      const double p =
          leader_probability(expected_leaders_, store_.attribute(id, 0));
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

  void finish_epoch() {
    record_epoch(summarize_counting_epoch(
        participants_,
        [this](NodeId id) -> const InstanceSet& { return instances_[id]; },
        [this](NodeId id, double prior) { store_.set_attribute(id, 0, prior); },
        cycle_, epoch_id_, epoch_start_size_, alive_.size(),
        instances_this_epoch_));
    ++epoch_id_;  // in-flight messages tagged with the old id go stale
  }

  /// Stages node `id`'s counting state — or its lie — into a recycled arena
  /// slot (the copy-assign reuses the slot's internal buffers).
  std::uint32_t stage_outgoing(NodeId id) {
    const std::uint32_t slot = payloads_.acquire();
    InstanceSet& wire = payloads_.at(slot);
    wire = instances_[id];
    if (spec_.adversary != nullptr && spec_.adversary->lying() &&
        spec_.adversary->adversarial(id)) {
      wire.transform_values([&](double value) {
        return spec_.adversary->reported(id, value, cycle_);
      });
    }
    return slot;
  }

  void initiate(NodeId id) override {
    if (!store_.participating(id)) return;
    if (overlay_ == nullptr && participants_.size() < 2) return;
    NodeId peer;
    {
      RngAuditScope audit(*rng_, "partner-draw");
      // Config-constant overlay dispatch: one bounded draw per activation on
      // either branch (the guards above are stream-derived population state).
      // epiagg-lint: fixed-draw-count
      if (overlay_ != nullptr) {
        peer = overlay_->random_view_peer(id, *rng_);
        if (peer == kInvalidNode) return;           // temporarily isolated
        if (!store_.participating(peer)) return;    // joiner awaits restart
      } else {
        peer = participants_.sample_other(id, *rng_);
      }
    }
    if (spec_.adversary != nullptr && spec_.adversary->blocks(id, peer, cycle_))
      return;  // partitioned: the push never leaves the island
    if (message_lost()) return;
    SimEventRecord push;
    push.kind = EvKind::kPush;
    push.a = id;
    push.gen_a = generations_[id];
    push.b = peer;
    push.gen_b = generations_[peer];
    push.tag = epoch_id_;
    push.slab = stage_outgoing(id);
    engine_.schedule_after(delay(), push);
  }

  void deliver_push(SimEventRecord& push) {
    const NodeId to = push.b;
    if (push.gen_b != generations_[to]) return;  // crashed in flight
    if (!store_.participating(to)) return;
    if (push.tag != epoch_id_) return;  // a restart overtook the message
    SimEventRecord reply;
    reply.kind = EvKind::kReply;
    reply.a = push.a;
    reply.gen_a = push.gen_a;
    reply.tag = push.tag;
    reply.slab = stage_outgoing(to);  // pre-merge state (Fig. 1), or its lie
    instances_[to].merge_from(payloads_.at(push.slab));
    if (observed()) notify_exchange(push.a, to);
    if (message_lost()) {
      payloads_.release(reply.slab);
      return;  // reply lost: the initiator keeps its state
    }
    engine_.schedule_after(delay(), reply);
  }

  void deliver_reply(SimEventRecord& reply) {
    const NodeId to = reply.a;
    if (reply.gen_a != generations_[to]) return;
    if (!store_.participating(to)) return;
    if (reply.tag != epoch_id_) return;
    instances_[to].merge_from(payloads_.at(reply.slab));
  }

  double expected_leaders_;
  NodeStateStore store_;  // attribute plane 0 = the §4 size prior
  std::vector<InstanceSet> instances_;
  ObjectArena<InstanceSet> payloads_;  // in-flight counting messages
  std::size_t instances_this_epoch_ = 0;
};

// ===================================================================
// EventPushSumImpl — the push-sum baseline with mass in flight
// ===================================================================

class EventPushSumImpl final : public EventMessagingImpl {
public:
  EventPushSumImpl(std::shared_ptr<Rng> rng,
                   std::vector<std::shared_ptr<Observer>> observers,
                   EventSpec spec, std::vector<double> initial,
                   std::shared_ptr<const Topology> topology)
      : EventMessagingImpl(std::move(rng), std::move(observers), std::move(spec)),
        topology_(std::move(topology)),
        sums_(std::move(initial)),
        weights_(sums_.size(), 1.0),
        estimates_(sums_.size(), 0.0) {
    EPIAGG_ASSERT(spec_.churn == nullptr,
                  "push-sum is a static baseline: its wake-ups carry no "
                  "generation guard, so churn must never reach this impl");
    generations_.assign(sums_.size(), 0);
    want_impact_ = spec_.adversary != nullptr && want_attack_impact();
    if (want_impact_) {
      attributes_ = sums_;  // initial values = the honest truth (weights = 1)
      impact_ids_.resize(sums_.size());
      for (NodeId id = 0; id < sums_.size(); ++id) impact_ids_[id] = id;
    }
    for (NodeId id = 0; id < sums_.size(); ++id) {
      alive_.insert(id);
      participants_.insert(id);
      schedule_activation(id, /*initial=*/true);
    }
    refresh_estimates();
    start_clock();
  }

  double variance() const override {
    refresh_estimates();
    return empirical_variance(estimates_);
  }
  double mean() const override {
    refresh_estimates();
    return epiagg::mean(estimates_);
  }
  const std::vector<double>& approximations() const override {
    refresh_estimates();
    return estimates_;
  }

  /// Conserved exactly under latency (in-flight mass is tracked); drops only
  /// when a message is lost.
  double total_mass() const override {
    double sum = in_flight_sum_;
    for (const double s : sums_) sum += s;
    return sum;
  }

  std::shared_ptr<const Topology> topology() const override { return topology_; }

  const std::vector<AsyncSample>& samples() const override { return samples_; }

protected:
  void handle(SimEventRecord& event) override {
    if (event.kind == EvKind::kPushSumDeliver) {
      in_flight_sum_ -= event.v0;
      sums_[event.b] += event.v0;
      weights_[event.b] += event.v1;
      return;
    }
    EventMessagingImpl::handle(event);
  }

  void on_integer_time(std::size_t t) override {
    refresh_estimates();
    RunningStats stats;
    for (const double x : estimates_) stats.add(x);
    samples_.emplace_back(static_cast<SimTime>(t), stats.variance(), stats.mean());
    if (observed()) {
      notify_cycle(CycleView{t, sums_.size(), stats.mean(), stats.variance(),
                             std::span<const double>(estimates_)});
    }
    if (want_impact_) {
      notify_attack_impact(spec_.adversary->measure_impact(
          t, impact_ids_, [this](NodeId id) { return estimates_[id]; },
          [this](NodeId id) { return attributes_[id]; }));
    }
  }

  void on_epoch_boundary() override {}
  bool global_epochs() const override { return false; }
  void join_one() override {}
  void crash_one(NodeId /*victim*/) override {}

private:
  void refresh_estimates() const {
    for (std::size_t i = 0; i < sums_.size(); ++i)
      estimates_[i] = sums_[i] / weights_[i];
  }

  void initiate(NodeId id) override {
    // A lying node pins its estimate right before halving, so the lie ships
    // with the node's real weight (the push-sum form of value-lying).
    if (spec_.adversary != nullptr && spec_.adversary->lying() &&
        spec_.adversary->adversarial(id)) {
      const double estimate = sums_[id] / weights_[id];
      sums_[id] = spec_.adversary->reported(id, estimate, cycle_) * weights_[id];
    }
    // Kempe et al.: halve the local (sum, weight), ship one half to a random
    // neighbor, keep the other. No reply — push-sum is push-only.
    NodeId peer;
    {
      RngAuditScope audit(*rng_, "partner-draw");
      peer = topology_->random_neighbor(id, *rng_);
    }
    const double half_sum = sums_[id] / 2.0;
    const double half_weight = weights_[id] / 2.0;
    expect_push_sum_weight(half_weight, id, cycle_);
    sums_[id] = half_sum;
    weights_[id] = half_weight;
    if (spec_.adversary != nullptr && spec_.adversary->blocks(id, peer, cycle_)) {
      // Partitioned: the sender keeps both halves so Σsum/Σweight hold.
      sums_[id] += half_sum;
      weights_[id] += half_weight;
      return;
    }
    if (message_lost()) {
      // The shipped half evaporates: mass genuinely leaves the system (the
      // conservation break push-sum is known for under loss).
    } else {
      in_flight_sum_ += half_sum;
      SimEventRecord deliver;
      deliver.kind = EvKind::kPushSumDeliver;
      deliver.b = peer;
      deliver.v0 = half_sum;
      deliver.v1 = half_weight;
      engine_.schedule_after(delay(), deliver);
    }
  }

  std::shared_ptr<const Topology> topology_;
  std::vector<double> sums_;
  std::vector<double> weights_;
  mutable std::vector<double> estimates_;
  std::vector<AsyncSample> samples_;
  std::vector<double> attributes_;  // initial values (the honest truth)
  std::vector<NodeId> impact_ids_;
  bool want_impact_ = false;
  double in_flight_sum_ = 0.0;
};

}  // namespace

// ===================================================================
// Factories
// ===================================================================

std::unique_ptr<SimulationImpl> make_event_averaging(
    std::shared_ptr<Rng> rng, std::vector<std::shared_ptr<Observer>> observers,
    EventSpec spec, AggregatorPlan plan, std::vector<double> initial,
    std::unique_ptr<PeerSamplingService> overlay,
    std::shared_ptr<const Topology> topology) {
  return std::make_unique<EventAveragingImpl>(
      std::move(rng), std::move(observers), std::move(spec), std::move(plan),
      std::move(initial), std::move(overlay), std::move(topology));
}

std::unique_ptr<SimulationImpl> make_event_size_estimation(
    std::shared_ptr<Rng> rng, std::vector<std::shared_ptr<Observer>> observers,
    EventSpec spec, std::size_t initial_size, double expected_leaders,
    std::unique_ptr<PeerSamplingService> overlay) {
  return std::make_unique<EventCountingImpl>(
      std::move(rng), std::move(observers), std::move(spec), initial_size,
      expected_leaders, std::move(overlay));
}

std::unique_ptr<SimulationImpl> make_event_push_sum(
    std::shared_ptr<Rng> rng, std::vector<std::shared_ptr<Observer>> observers,
    EventSpec spec, std::vector<double> initial,
    std::shared_ptr<const Topology> topology) {
  return std::make_unique<EventPushSumImpl>(std::move(rng), std::move(observers),
                                            std::move(spec), std::move(initial),
                                            std::move(topology));
}

}  // namespace detail
}  // namespace epiagg
