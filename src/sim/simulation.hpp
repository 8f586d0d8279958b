// The one composable front door for every experiment in this repository.
//
// The paper's thesis is compositional: one anti-entropy averaging kernel,
// combined with interchangeable pair selection (§3.3), membership overlays,
// topologies, failure models and restart policies, covers a whole family of
// aggregation problems. SimulationBuilder makes that composition literal: a
// runnable Simulation is assembled from orthogonal specs —
//
//   SimulationBuilder()
//       .nodes(10'000)
//       .topology(TopologySpec::random_out_view(20))
//       .pairs(PairStrategy::kSequential)
//       .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal))
//       .seed(42)
//       .build();
//
// — all randomness flowing from a single 64-bit seed for bit-reproducible
// runs. Conflicting specs fail fast in build() with an actionable
// ContractViolation. Averaging, size estimation, adaptive epochs and the
// push-sum baseline are all builder chains; there are no other entry points.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "adversary/adversary.hpp"
#include "aggregate/aggregate.hpp"
#include "aggregate/aggregator.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/pair_selector.hpp"
#include "graph/topology.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/event_engine.hpp"
#include "sim/observers.hpp"
#include "workload/churn.hpp"
#include "workload/values.hpp"

namespace epiagg {

// ------------------------------------------------------------------ specs

/// Which overlay the protocol gossips over. Complete is the paper's analytic
/// setting; the generators cover the "more realistic topologies" territory.
struct TopologySpec {
  enum class Kind {
    kComplete,       ///< every node neighbors every other node (O(1) memory)
    kRandomOutView,  ///< each node links `degree` uniform peers (paper: 20)
    kRandomRegular,  ///< undirected random `degree`-regular graph
    kRing,           ///< ring lattice, `degree` neighbors per side
    kGrid,           ///< 2-D torus grid (degree 4; needs a square node count)
    kSmallWorld,     ///< Watts–Strogatz(k = degree, beta)
    kScaleFree,      ///< Barabási–Albert preferential attachment (m = degree)
    kStar,           ///< hub-and-spokes — the gossip worst case
  };

  Kind kind = Kind::kComplete;
  std::size_t degree = 20;
  double beta = 0.2;

  static TopologySpec complete() { return {}; }
  static TopologySpec random_out_view(std::size_t view_size) {
    return {Kind::kRandomOutView, view_size, 0.0};
  }
  static TopologySpec random_regular(std::size_t k) {
    return {Kind::kRandomRegular, k, 0.0};
  }
  static TopologySpec ring(std::size_t k = 2) { return {Kind::kRing, k, 0.0}; }
  static TopologySpec grid() { return {Kind::kGrid, 4, 0.0}; }
  static TopologySpec small_world(std::size_t k, double beta) {
    return {Kind::kSmallWorld, k, beta};
  }
  static TopologySpec scale_free(std::size_t m) {
    return {Kind::kScaleFree, m, 0.0};
  }
  static TopologySpec star() { return {Kind::kStar, 1, 0.0}; }
};

std::string_view to_string(TopologySpec::Kind kind);

/// Membership overlay maintenance: instead of a synthetic graph, run a peer
/// sampling protocol (the paper's lpbcast/SCAMP/Newscast assumption made
/// concrete). Two modes:
///
/// - kLive (default): the membership protocol is warmed up for
///   `warmup_cycles` and then CO-RUNS with aggregation — one membership
///   cycle per aggregation cycle, neighbors resolved from the evolving
///   views, and ChurnSchedule joins/leaves propagated into the overlay
///   itself (the paper's §4 dynamic regime). Composes with `.failures(...)`
///   churn and `.epoch_length(...)` on the cycle engine.
/// - kSnapshot: the overlay is warmed up and frozen into a fixed
///   GraphTopology which aggregation then gossips over (the historical
///   behavior, bit-identical RNG streams; quantifies the frozen-view
///   artifact — see bench/ablation_membership.cpp).
struct MembershipSpec {
  enum class Kind { kNone, kNewscast, kCyclon };
  enum class Mode { kLive, kSnapshot };

  Kind kind = Kind::kNone;
  Mode mode = Mode::kLive;
  std::size_t view_size = 20;
  std::size_t shuffle_size = 8;   ///< Cyclon only
  std::size_t warmup_cycles = 20;

  static MembershipSpec none() { return {}; }
  static MembershipSpec newscast(std::size_t view_size = 20,
                                 std::size_t warmup_cycles = 20) {
    return {Kind::kNewscast, Mode::kLive, view_size, 0, warmup_cycles};
  }
  static MembershipSpec cyclon(std::size_t view_size = 20,
                               std::size_t shuffle_size = 8,
                               std::size_t warmup_cycles = 20) {
    return {Kind::kCyclon, Mode::kLive, view_size, shuffle_size, warmup_cycles};
  }
  /// Freezes a live spec into the snapshot mode:
  /// `MembershipSpec::snapshot(MembershipSpec::newscast(20, 20))`.
  static MembershipSpec snapshot(MembershipSpec spec) {
    spec.mode = Mode::kSnapshot;
    return spec;
  }
};

std::string_view to_string(MembershipSpec::Kind kind);
std::string_view to_string(MembershipSpec::Mode mode);

/// Execution model: synchronous cycles (the paper's experiments) or the
/// discrete-event engine (autonomous nodes, latency, loss). The event engine
/// accepts every protocol variant: exchanges travel as real send/reply
/// messages (latency-delayed, individually lossy, and interruptible by a
/// mid-exchange crash), churn schedules fire at cycle-equivalent integer
/// simulated times, and epochs restart either on the global simulated-time
/// grid or on per-node adaptive clocks (.adaptive_epochs(...)).
enum class EngineKind {
  kCycle,
  kEvent,
};

std::string_view to_string(EngineKind kind);

/// Failure model: a churn schedule (crashes take state, joiners wait for the
/// next epoch) plus per-message loss. Churn runs on both engines: the cycle
/// engine applies the schedule at the start of every cycle; the event engine
/// fires it at the cycle-equivalent integer simulated times.
///
/// Loss semantics differ by execution model: cycle-engine paths draw
/// explicit pairs and treat a loss as a lost push that cancels the whole
/// exchange with no state change. Every event-engine path models push and
/// reply messages independently: a lost push cancels the exchange, a lost
/// reply leaves the passive side updated but not the active side (an
/// asymmetric update — the network mean drifts, see
/// bench/ablation_message_loss.cpp), and a crash between push and reply
/// strands the exchange halfway — the paper's actual failure model.
struct FailureSpec {
  std::shared_ptr<ChurnSchedule> churn;  ///< null means a static population
  double message_loss = 0.0;

  static FailureSpec none() { return {}; }
  static FailureSpec message_loss_only(double probability) {
    return {nullptr, probability};
  }
  static FailureSpec with_churn(std::shared_ptr<ChurnSchedule> schedule,
                                double loss = 0.0) {
    return {std::move(schedule), loss};
  }
};

/// How node attributes evolve over simulated time. kStatic is the paper's
/// setting (values frozen at cycle 0). The time-varying modes are the
/// continuous-monitoring regime (§1: "the values can change over time, and
/// the aggregate has to be followed"): at the start of every cycle each
/// node's scalar attribute is evolved inside a dedicated `workload` RNG
/// audit scope, and the aggregators then chase the moving target.
enum class WorkloadDynamics {
  kStatic,    ///< attributes never change after initialization
  kDrift,     ///< a += rate + jitter·N(0,1) per cycle (random walk w/ trend)
  kStep,      ///< every `period` cycles, a is re-drawn from the base
              ///< distribution (regime changes)
  kSeasonal,  ///< a follows rate·sin(2πt/period) around its start value,
              ///< plus jitter·N(0,1) noise per cycle
};

std::string_view to_string(WorkloadDynamics dynamics);

/// Node attributes: a named distribution or an explicit vector for the
/// initial values, plus optional dynamics evolving them every cycle.
struct WorkloadSpec {
  ValueDistribution distribution = ValueDistribution::kUniform;
  std::vector<double> values;  ///< non-empty overrides the distribution
  WorkloadDynamics dynamics = WorkloadDynamics::kStatic;
  double rate = 0.0;    ///< drift per cycle; seasonal amplitude
  double period = 0.0;  ///< step re-draw interval / seasonal period, cycles
  double jitter = 0.0;  ///< stddev of per-node per-cycle N(0,1) noise

  static WorkloadSpec from_distribution(ValueDistribution d) {
    WorkloadSpec spec;
    spec.distribution = d;
    return spec;
  }
  static WorkloadSpec from_values(std::vector<double> v) {
    WorkloadSpec spec;
    spec.values = std::move(v);
    return spec;
  }
  /// A time-varying workload: initial values from `base`, then evolved per
  /// cycle according to `dynamics`. `rate` is the per-cycle drift (kDrift)
  /// or the seasonal amplitude (kSeasonal); `period` is the re-draw
  /// interval (kStep) or the season length (kSeasonal) in cycles; `jitter`
  /// adds per-node N(0, jitter²) noise each cycle (kDrift/kSeasonal).
  static WorkloadSpec time_varying(WorkloadDynamics dynamics,
                                   ValueDistribution base, double rate,
                                   double period = 0.0, double jitter = 0.0) {
    WorkloadSpec spec;
    spec.distribution = base;
    spec.dynamics = dynamics;
    spec.rate = rate;
    spec.period = period;
    spec.jitter = jitter;
    return spec;
  }
  [[nodiscard]] bool is_explicit() const noexcept { return !values.empty(); }
  [[nodiscard]] bool is_time_varying() const noexcept {
    return dynamics != WorkloadDynamics::kStatic;
  }
};

/// Which protocol runs on top of the composed substrate.
enum class ProtocolVariant {
  kPushPullAverage,  ///< push–pull exchanges of paper Fig. 1; computes the
                     ///< .aggregates(...) list (default: one average)
  kPushSum,          ///< Kempe–Dobra–Gehrke push-sum baseline
  kSizeEstimation,   ///< §4: concurrent counting instances + epoch restarts
};

std::string_view to_string(ProtocolVariant variant);

/// GETWAITINGTIME policies of the event engine (paper §3.3.2).
enum class WaitingTime {
  kConstant,     ///< period Δt = 1 with a uniform random initial phase
  kExponential,  ///< i.i.d. Exponential(mean = 1) waits (the RAND-like regime)
};

/// Event engine: approximation quality at one integer simulated time.
struct AsyncSample {
  SimTime time = 0.0;
  double variance = 0.0;  ///< empirical variance of x (eq. 3)
  double mean = 0.0;      ///< mean of x — drifts only if messages are lost
};

/// One completed (local) epoch at one node under adaptive epochs — the §4
/// fully asynchronous restart scheme, where every node divides its own
/// drifting timeline into ΔT-cycle epochs and adopts newer epoch ids
/// epidemically from message tags.
struct AdaptiveEpochSample {
  NodeId node = 0;
  EpochId epoch = 0;
  SimTime completed_at = 0.0;
  double approximation = 0.0;
};

// ------------------------------------------------------------- simulation

namespace detail {
class SimulationImpl;
}

/// A runnable, fully assembled experiment. Construct through
/// SimulationBuilder::build(); move-only.
class Simulation {
public:
  ~Simulation();
  Simulation(Simulation&&) noexcept;
  Simulation& operator=(Simulation&&) noexcept;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // ---- driving (cycle engine) ----

  /// Runs one protocol cycle. Precondition: cycle engine.
  void run_cycle();

  /// Runs `cycles` protocol cycles. Precondition: cycle engine.
  void run_cycles(std::size_t cycles);

  /// Runs exactly one epoch (epoch_length cycles) and returns its summary.
  /// Precondition: cycle engine and epoch_length > 0.
  EpochSummary run_epoch();

  // ---- driving (event engine) ----

  /// Advances simulated time to `until`. Precondition: event engine.
  void run_time(SimTime until);

  // ---- state ----

  [[nodiscard]] std::size_t cycle() const;
  [[nodiscard]] std::size_t population_size() const;
  /// Nodes active in the current epoch (== population for static networks).
  [[nodiscard]] std::size_t participant_count() const;

  /// Plane-0 approximations x_i (the first aggregate's estimate), indexed
  /// by node id. Precondition: the protocol keeps a dense value vector —
  /// averaging or push-sum, on either engine, over a static population.
  /// Under churn node ids are recycled, so this throws; read variance(),
  /// mean() or epochs() instead.
  [[nodiscard]] const std::vector<double>& approximations() const;

  /// Approximations held in state PLANE `plane`, indexed by node id (same
  /// preconditions as approximations()). Planes are not aggregates: an
  /// aggregate of width w (2 for AggregatorSpec::sum_count) spans w
  /// consecutive planes, so the two indices agree only while every
  /// aggregate before `plane` has width 1.
  [[nodiscard]] const std::vector<double>& slot_approximations(
      std::size_t plane) const;

  /// Empirical variance / mean of the plane-0 approximations. For the event
  /// engine these read the live node states; under churn they read the
  /// current participants, and a moment with too few participants (none
  /// for the mean, fewer than two for the variance) reads 0.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double mean() const;

  /// Updates node `id`'s local attribute for the first aggregate
  /// (set_slot_value(id, 0, value)); takes effect at the next epoch restart.
  /// Precondition: epoch_length > 0 and the averaging protocol.
  void set_value(NodeId id, double value);

  /// Updates node `id`'s attribute for AGGREGATE `instance` only — the
  /// index into the .aggregates(...) list, not a plane index (see
  /// slot_approximations). Takes effect at the next epoch restart, with the
  /// preconditions of set_value.
  void set_slot_value(NodeId id, std::size_t instance, double value);

  /// All completed epoch summaries, oldest first.
  [[nodiscard]] const std::vector<EpochSummary>& epochs() const;

  /// Size estimation: total counting-instance mass over all participants.
  /// Push-sum: Σsum over all nodes (on the event engine including the
  /// halves in flight) — conserved without loss, shrinking with it.
  [[nodiscard]] double total_mass() const;

  /// The composed overlay topology. Precondition: the configuration gossips
  /// over a fixed topology (static averaging, push-sum, event engine) rather
  /// than sampling a live population.
  [[nodiscard]] std::shared_ptr<const Topology> topology() const;

  /// Event engine: variance/mean samples at integer times.
  [[nodiscard]] const std::vector<AsyncSample>& samples() const;
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t messages_lost() const;

  // ---- draw-provenance audit (EPIAGG_RNG_AUDIT builds) ----

  /// The master stream's draw ledger: one record per named phase scope
  /// (partner-draw, workload, churn, adversary, membership, …), in
  /// first-entry order. Empty unless built with -DEPIAGG_RNG_AUDIT=ON.
  /// See docs/static_analysis.md ("draw ledger") for how to read a diff.
  [[nodiscard]] std::vector<RngDrawRecord> draw_ledger() const;

  /// Total raw 64-bit draws consumed from the master stream since build()
  /// (0 when the audit is off).
  [[nodiscard]] std::uint64_t total_draws() const;

  // ---- adaptive epochs (event engine + .adaptive_epochs(...)) ----

  /// Per-node completed-epoch samples, ordered by completion time.
  [[nodiscard]] const std::vector<AdaptiveEpochSample>& adaptive_samples() const;

  /// The largest epoch id any node has entered.
  [[nodiscard]] EpochId frontier_epoch() const;

  /// Injects a joining node with attribute `value` at the current simulated
  /// time: it contacts a random active member out-of-band, learns the epoch
  /// grid (next epoch id and the time left until it begins, on the member's
  /// clock), and stays passive until then. Returns the node id.
  NodeId join(double value);

private:
  friend class SimulationBuilder;
  explicit Simulation(std::unique_ptr<detail::SimulationImpl> impl);
  std::unique_ptr<detail::SimulationImpl> impl_;
};

/// Fluent assembler for Simulation. Every setter overwrites the previous
/// value of its spec; build() validates the combination and either returns a
/// runnable Simulation or throws ContractViolation explaining the conflict
/// and how to fix it.
class SimulationBuilder {
public:
  SimulationBuilder();

  /// Population size. May be omitted when an explicit workload vector
  /// determines it.
  SimulationBuilder& nodes(std::size_t n);

  SimulationBuilder& topology(TopologySpec spec);
  SimulationBuilder& pairs(PairStrategy strategy);
  SimulationBuilder& membership(MembershipSpec spec);
  SimulationBuilder& engine(EngineKind kind);

  /// Per-cycle activation order (cycle engine only; the paper's SEQ default
  /// is kFixed).
  SimulationBuilder& activation(ActivationOrder order);

  SimulationBuilder& failures(FailureSpec spec);
  SimulationBuilder& workload(WorkloadSpec spec);
  SimulationBuilder& protocol(ProtocolVariant variant);

  /// Cycles per epoch restart (§4); must be >= 1 when called. Leaving it
  /// unset means a continuous run without epochs. On the event engine one
  /// cycle equals one Δt of simulated time, so epochs restart at every
  /// multiple of `cycles` in simulated time.
  SimulationBuilder& epoch_length(std::size_t cycles);

  /// The aggregates the run computes, as registry-backed AggregatorSpecs
  /// (see aggregate/aggregator.hpp), on kPushPullAverage. One spec per
  /// instance; instances share the pair sequence the way a real node
  /// piggybacks all its aggregation state in one message, e.g.
  /// `.aggregates({AggregatorSpec::average("avg"),
  /// AggregatorSpec::maximum("max")})`. Unset means one plain average.
  SimulationBuilder& aggregates(std::vector<AggregatorSpec> specs);

  /// Size estimation: target number of concurrent counting instances.
  SimulationBuilder& expected_leaders(double expected);

  /// Event engine: GETWAITINGTIME policy.
  SimulationBuilder& waiting(WaitingTime policy);

  /// Event engine: fully asynchronous §4 epochs. Instead of restarting every
  /// node on the global simulated-time grid, each node runs a local epoch
  /// clock of .epoch_length(...) cycles — with a per-node period drawn once
  /// from [1 - clock_drift, 1 + clock_drift] — tags its messages with its
  /// epoch id, and adopts newer epochs epidemically on receipt. Read results
  /// through adaptive_samples() / frontier_epoch(); inject joiners with
  /// join(value). Requires WaitingTime::kConstant (the local ΔT clock) and
  /// an averaging protocol.
  SimulationBuilder& adaptive_epochs(double clock_drift = 0.0);

  /// Event engine: one-way message latency model (null = zero latency).
  SimulationBuilder& latency(std::shared_ptr<const LatencyModel> model);

  /// Attack model the run executes (default: none, consuming zero RNG — an
  /// unconfigured run is bit-identical to one built without this call).
  /// Adversarial roles are drawn AFTER the workload, so honest trajectories
  /// of the same seed stay comparable across attack kinds.
  SimulationBuilder& adversary(AdversarySpec spec);

  /// Countermeasure honest nodes apply when folding peer reports (default:
  /// the paper's plain pairwise average). Usable with or without an
  /// adversary; requires kPushPullAverage.
  SimulationBuilder& mitigation(MitigationSpec spec);

  /// Appends an observer to the notification pipeline.
  SimulationBuilder& observe(std::shared_ptr<Observer> observer);

  /// Master seed; every random decision of the simulation derives from it.
  SimulationBuilder& seed(std::uint64_t seed);

  /// Advanced: drive the simulation from an external, shared RNG stream
  /// instead of a private seeded one. Lets a sweep thread one generator
  /// through many cells exactly like the hand-written benches did, so
  /// regenerated figures stay bit-identical. Overrides seed().
  SimulationBuilder& entropy(std::shared_ptr<Rng> rng);

  /// Validates the spec combination and assembles the Simulation.
  /// Throws ContractViolation with an actionable message on conflicts.
  [[nodiscard]] Simulation build();

private:
  std::size_t nodes_ = 0;
  bool nodes_set_ = false;
  TopologySpec topology_{};
  bool topology_set_ = false;
  PairStrategy pairs_ = PairStrategy::kSequential;
  bool pairs_set_ = false;
  MembershipSpec membership_{};
  EngineKind engine_ = EngineKind::kCycle;
  ActivationOrder activation_ = ActivationOrder::kFixed;
  bool activation_set_ = false;
  FailureSpec failures_{};
  WorkloadSpec workload_{};
  bool workload_set_ = false;
  ProtocolVariant protocol_ = ProtocolVariant::kPushPullAverage;
  std::size_t epoch_length_ = 0;
  bool epoch_length_set_ = false;
  std::vector<AggregatorSpec> aggregates_;
  double expected_leaders_ = 4.0;
  bool expected_leaders_set_ = false;
  WaitingTime waiting_ = WaitingTime::kConstant;
  bool waiting_set_ = false;
  bool adaptive_epochs_ = false;
  double clock_drift_ = 0.0;
  std::shared_ptr<const LatencyModel> latency_;
  AdversarySpec adversary_{};
  MitigationSpec mitigation_{};
  std::vector<std::shared_ptr<Observer>> observers_;
  std::uint64_t seed_ = 0x9E3779B97F4A7C15ULL;
  std::shared_ptr<Rng> entropy_;
};

}  // namespace epiagg
