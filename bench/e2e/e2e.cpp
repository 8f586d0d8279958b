// epiagg_e2e — one end-to-end benchmark workload per process.
//
//   epiagg_e2e --workload NAME --seed S [--reps R] [--seconds T] [--steps K]
//              [--trace FILE] [--quick]
//
// A workload is a batch job: build a Simulation, then run K steps, where a
// step is one run_cycle() on the cycle engine or one run_time(t + 1) (one
// Δt) on the event engine. Every step is timed on its own. Rep r builds
// with seed S + r; reps run one after another in this single thread.
//
// Timed mode (no --trace) runs reps until at least R reps are done and,
// when T > 0, T seconds of step time and at least 200 steps have been
// measured. Traced mode runs one rep of seed
// S untraced, replays the same seed with a span around build() and every
// step, then runs the layer probes (probes.hpp) and writes all spans to
// FILE. Both modes print one JSON document with the raw samples; run.py
// turns them into metrics. --quick runs N/10 nodes and K/5 steps (at least
// one epoch) for smoke tests.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "core/theory.hpp"
#include "probes.hpp"
#include "sim/simulation.hpp"
#include "trace.hpp"

namespace {

using namespace epiagg;
using e2e::SpanGuard;
using e2e::Tracer;

constexpr std::size_t kEpochLength = 30;  // the paper's Fig. 4 value
constexpr double kLatencyHi = 0.2;        // one-way latency ~ U(0, 0.2)
constexpr std::size_t kMaxReps = 64;
constexpr std::size_t kMinSteps = 200;
// Layers a workload does not run are probed at this size at most, which
// keeps the traced run of the 10^6-node workload short.
constexpr std::size_t kIdleLayerNodes = 10'000;

enum class Kind {
  kCycleStatic,
  kCycleChurn,
  kCycleOverlay,
  kEventPushPull,
  kEventSizeEst,
};

struct Workload {
  const char* name;
  Kind kind;
  std::size_t nodes;  // full scale
  std::size_t steps;  // per rep, full scale
};

constexpr Workload kWorkloads[] = {
    {"cycle-static", Kind::kCycleStatic, 1'000'000, 210},
    {"cycle-churn", Kind::kCycleChurn, 110'000, 300},
    {"cycle-overlay", Kind::kCycleOverlay, 10'000, 60},
    {"event-pushpull", Kind::kEventPushPull, 100'000, 60},
    {"event-sizeest", Kind::kEventSizeEst, 20'000, 120},
};

bool is_event(Kind kind) {
  return kind == Kind::kEventPushPull || kind == Kind::kEventSizeEst;
}

std::vector<AggregatorSpec> aggregates(Kind kind) {
  if (kind == Kind::kCycleChurn) {
    return {AggregatorSpec::average("average"),
            AggregatorSpec::decaying_mean("decaying", 0.1),
            AggregatorSpec::windowed_mean("windowed", 30.0)};
  }
  return {AggregatorSpec::average()};
}

Simulation build(Kind kind, std::size_t n, std::uint64_t seed) {
  SimulationBuilder builder;
  builder.nodes(n).epoch_length(kEpochLength).seed(seed);
  const auto uniform = WorkloadSpec::from_distribution(ValueDistribution::kUniform);
  switch (kind) {
    case Kind::kCycleStatic:
      builder.topology(TopologySpec::complete())
          .pairs(PairStrategy::kSequential)
          .workload(WorkloadSpec::from_distribution(ValueDistribution::kNormal));
      break;
    case Kind::kCycleChurn:
      // The Fig. 4 band: a triangle wave between 9/11·N and N (90k–110k at
      // full scale) plus N/1100 swaps per cycle.
      builder
          .failures(FailureSpec::with_churn(
              std::make_shared<OscillatingChurn>(n * 9 / 11, n, 200, n / 1100)))
          .workload(WorkloadSpec::time_varying(WorkloadDynamics::kDrift,
                                               ValueDistribution::kUniform,
                                               /*rate=*/0.01, /*period=*/0.0,
                                               /*jitter=*/0.002))
          .aggregates(aggregates(kind))
          .observe(std::make_shared<TrackingErrorObserver>());
      break;
    case Kind::kCycleOverlay:
      builder.membership(MembershipSpec::newscast(20, 20))
          .failures(FailureSpec::with_churn(
              std::make_shared<ConstantFluctuation>(n / 1000)))
          .workload(uniform);
      break;
    case Kind::kEventPushPull:
      builder.engine(EngineKind::kEvent)
          .waiting(WaitingTime::kConstant)
          .latency(std::make_shared<UniformLatency>(0.0, kLatencyHi))
          .failures(FailureSpec::message_loss_only(0.01))
          .workload(uniform);
      break;
    case Kind::kEventSizeEst:
      // N/1000 swaps per cycle: the paper's 0.1% background fluctuation.
      builder.engine(EngineKind::kEvent)
          .protocol(ProtocolVariant::kSizeEstimation)
          .expected_leaders(4.0)
          .waiting(WaitingTime::kExponential)
          .latency(std::make_shared<UniformLatency>(0.0, kLatencyHi))
          .failures(FailureSpec::with_churn(
              std::make_shared<ConstantFluctuation>(n / 1000)));
      break;
  }
  return builder.build();
}

long max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct Answer {
  double error = 0.0;
  bool ok = false;
};

struct RepResult {
  std::uint64_t seed = 0;
  double build_s = 0.0;
  long rss_build_kb = 0;
  std::vector<double> step_s;
  std::vector<double> population;  // after each step
  std::vector<double> messages;    // sent during each step
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::vector<EpochSummary> epochs;
  std::vector<Answer> answers;
  std::size_t owed = 0;  // answers the rep should have produced
  std::string error;     // what() of an exception that ended the rep
};

/// One answer per completed epoch, checked against the workload's truth;
/// NaN or inf always fails. Every planned epoch is owed an answer, except a
/// size-estimation epoch in which no node elected itself leader: the
/// protocol then reports nothing by design (§4 leader election is
/// probabilistic).
void check_answers(Kind kind, double var0, std::size_t planned_steps,
                   RepResult& rep) {
  rep.owed = planned_steps / kEpochLength;
  for (const EpochSummary& epoch : rep.epochs) {
    double error = 0.0;
    bool ok = true;
    switch (kind) {
      case Kind::kCycleStatic: {
        const double rate = std::pow(epoch.variance / var0,
                                     1.0 / static_cast<double>(kEpochLength));
        error = std::abs(rate - theory::rate_sequential()) /
                theory::rate_sequential();
        ok = error <= 0.10 &&
             std::abs(epoch.est_mean - epoch.truth) <= 1e-9 * std::sqrt(var0);
        break;
      }
      case Kind::kEventSizeEst: {
        if (epoch.instances == 0) {
          --rep.owed;
          continue;
        }
        // Overlapping exchanges under latency do not conserve counting
        // mass, so an epoch run by one or two instances can miss by half
        // (0.51x-1.82x over 392 epochs at full scale); a broken estimate
        // misses by far more.
        const auto truth = static_cast<double>(epoch.population_start);
        error = std::abs(epoch.est_mean - truth) / truth;
        ok = epoch.est_mean >= truth / 3.0 && epoch.est_mean <= 3.0 * truth;
        break;
      }
      default:
        error = std::abs(epoch.est_mean - epoch.truth) / std::abs(epoch.truth);
        ok = error <= 1e-2;
        break;
    }
    rep.answers.push_back(Answer{error, ok && std::isfinite(error)});
  }
}

RepResult run_rep(Kind kind, std::size_t n, std::size_t steps,
                  std::uint64_t seed, Tracer* tracer) {
  RepResult rep;
  rep.seed = seed;
  double var0 = 0.0;
  try {
    std::optional<Simulation> sim;
    {
      SpanGuard span(tracer, "build");
      const benchutil::wall_timer timer;
      sim.emplace(build(kind, n, seed));
      rep.build_s = timer.seconds();
    }
    rep.rss_build_kb = max_rss_kb();
    if (kind == Kind::kCycleStatic) var0 = sim->variance();
    const bool event = is_event(kind);
    std::uint64_t sent_before = 0;
    for (std::size_t k = 0; k < steps; ++k) {
      SpanGuard span(tracer, "step");
      const benchutil::wall_timer timer;
      if (event) {
        sim->run_time(static_cast<SimTime>(k + 1));
      } else {
        sim->run_cycle();
      }
      rep.step_s.push_back(timer.seconds());
      rep.population.push_back(static_cast<double>(sim->population_size()));
      if (event) {
        const std::uint64_t sent = sim->messages_sent();
        rep.messages.push_back(static_cast<double>(sent - sent_before));
        sent_before = sent;
      } else {
        // Every participant initiates one push-pull exchange per cycle: a
        // push and its reply.
        rep.messages.push_back(2.0 * static_cast<double>(sim->participant_count()));
      }
      span.ops = sim->population_size();
    }
    if (event) {
      rep.sent = sim->messages_sent();
      rep.lost = sim->messages_lost();
    } else {
      for (const double m : rep.messages) rep.sent += static_cast<std::uint64_t>(m);
    }
    rep.epochs = sim->epochs();
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  check_answers(kind, var0, steps, rep);
  return rep;
}

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

e2e::ProbeShape probe_shape(Kind kind, std::size_t n, const RepResult& rep) {
  e2e::ProbeShape shape;
  shape.nodes = n;
  shape.combiners = AggregatorPlan::from_specs(aggregates(kind)).plane_combiners();
  shape.latency_hi = kLatencyHi;
  shape.exponential_wait = kind == Kind::kEventSizeEst;
  // Pending events: one wake-up per node plus the messages in flight, each
  // alive for the mean latency.
  shape.pending =
      is_event(kind)
          ? static_cast<std::size_t>(mean_of(rep.population) +
                                     mean_of(rep.messages) * kLatencyHi / 2.0)
          : std::min(n, kIdleLayerNodes);
  shape.overlay_nodes =
      kind == Kind::kCycleOverlay ? n : std::min(n, kIdleLayerNodes);
  if (kind == Kind::kEventSizeEst && !rep.epochs.empty()) {
    double instances = 0.0;
    for (const EpochSummary& e : rep.epochs)
      instances += static_cast<double>(e.instances);
    shape.instances = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               instances / static_cast<double>(rep.epochs.size()))));
  }
  shape.drift = kind == Kind::kCycleChurn;
  shape.distribution = kind == Kind::kCycleStatic ? ValueDistribution::kNormal
                                                  : ValueDistribution::kUniform;
  return shape;
}

/// Operations each probed layer performs per step of `rep`, keyed by probe
/// span name; run.py multiplies them by the probes' cost per operation.
std::vector<std::pair<const char*, double>> ops_per_step(Kind kind,
                                                         std::size_t n,
                                                         std::size_t planes,
                                                         const RepResult& rep) {
  const double population = mean_of(rep.population);
  const double messages = mean_of(rep.messages);
  const double exchanges = messages / 2.0;
  const double steps = static_cast<double>(std::max<std::size_t>(1, rep.step_s.size()));
  const double plane_merges = exchanges * static_cast<double>(planes);
  switch (kind) {
    case Kind::kCycleStatic:
      return {{"core.pair", population}, {"sim.store.exchange", plane_merges}};
    case Kind::kCycleChurn:
      return {{"sim.store.exchange", plane_merges},
              {"sim.observe", exchanges},
              {"workload.sample", population}};
    case Kind::kCycleOverlay:
      return {{"sim.store.exchange", plane_merges},
              {"membership.cycle", population},
              {"membership.peer", exchanges},
              {"membership.churn", static_cast<double>(n / 1000)}};
    case Kind::kEventPushPull:
      return {{"sim.queue.hold", population + messages}};
    case Kind::kEventSizeEst:
      return {{"sim.queue.hold", population + messages},
              {"protocol.merge",
               messages - static_cast<double>(rep.lost) / steps}};
  }
  return {};
}

// ------------------------------------------------------------------ output

void print_number(double x) {
  if (std::isnan(x)) {
    std::printf("NaN");
  } else if (std::isinf(x)) {
    std::printf(x > 0 ? "Infinity" : "-Infinity");
  } else {
    std::printf("%.17g", x);
  }
}

void print_string(std::string_view s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", static_cast<unsigned>(c));
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_array(const std::vector<double>& xs) {
  std::putchar('[');
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (k > 0) std::putchar(',');
    print_number(xs[k]);
  }
  std::putchar(']');
}

void print_rep(const RepResult& rep) {
  std::printf("{\"seed\": %llu, \"build_s\": ",
              static_cast<unsigned long long>(rep.seed));
  print_number(rep.build_s);
  std::printf(", \"rss_build_kb\": %ld, \"step_s\": ", rep.rss_build_kb);
  print_array(rep.step_s);
  std::printf(", \"population\": ");
  print_array(rep.population);
  std::printf(", \"messages\": ");
  print_array(rep.messages);
  std::printf(", \"sent\": %llu, \"lost\": %llu, \"owed\": %zu, \"answers\": [",
              static_cast<unsigned long long>(rep.sent),
              static_cast<unsigned long long>(rep.lost), rep.owed);
  for (std::size_t k = 0; k < rep.answers.size(); ++k) {
    std::printf("%s{\"error\": ", k > 0 ? ", " : "");
    print_number(rep.answers[k].error);
    std::printf(", \"ok\": %s}", rep.answers[k].ok ? "true" : "false");
  }
  // Every EpochSummary field, at full precision: the traced and untraced
  // runs of one seed must agree on all of them.
  std::printf("], \"epochs\": [");
  for (std::size_t k = 0; k < rep.epochs.size(); ++k) {
    const EpochSummary& e = rep.epochs[k];
    std::printf("%s", k > 0 ? ", " : "");
    print_array({static_cast<double>(e.end_cycle), static_cast<double>(e.epoch),
                 static_cast<double>(e.population_start),
                 static_cast<double>(e.population_end),
                 static_cast<double>(e.instances),
                 static_cast<double>(e.reporting), e.truth, e.est_mean,
                 e.est_min, e.est_max, e.variance});
  }
  std::printf("], \"error\": ");
  print_string(rep.error);
  std::printf("}");
}

int usage(const char* message) {
  std::fprintf(stderr, "epiagg_e2e: %s\nworkloads:", message);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  const std::string name = args.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::int64_t min_reps = args.get_int("reps", 1);
  const double seconds = args.get_double("seconds", 0.0);
  const std::int64_t steps_flag = args.get_int("steps", 0);
  const std::string trace_path = args.get_string("trace", "");
  const bool quick = args.get_bool("quick", false);
  if (!args.unconsumed().empty())
    return usage(("unknown flag --" + args.unconsumed().front()).c_str());
  if (min_reps < 1 || seconds < 0.0 || steps_flag < 0)
    return usage("--reps must be >= 1, --seconds and --steps >= 0");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) workload = &w;
  if (workload == nullptr) return usage(("unknown workload '" + name + "'").c_str());

  const Kind kind = workload->kind;
  const std::size_t n = quick ? workload->nodes / 10 : workload->nodes;
  std::size_t steps = quick ? std::max(kEpochLength, workload->steps / 5)
                            : workload->steps;
  if (steps_flag > 0) steps = static_cast<std::size_t>(steps_flag);
  const std::size_t planes = AggregatorPlan::from_specs(aggregates(kind)).planes();

  std::vector<RepResult> reps;
  std::optional<RepResult> traced;
  Tracer tracer;
  double checksum = 0.0;
  long rss_peak_kb = 0;
  if (trace_path.empty()) {
    // A measured run also collects at least kMinSteps step samples, so that
    // ten or more lie beyond its p95.
    const std::size_t min_steps = seconds > 0.0 ? kMinSteps : 0;
    double measured = 0.0;
    std::size_t measured_steps = 0;
    while (reps.size() < static_cast<std::size_t>(min_reps) ||
           ((measured < seconds || measured_steps < min_steps) &&
            reps.size() < kMaxReps)) {
      reps.push_back(run_rep(kind, n, steps, seed + reps.size(), nullptr));
      if (!reps.back().error.empty()) break;
      for (const double s : reps.back().step_s) measured += s;
      measured_steps += reps.back().step_s.size();
    }
    rss_peak_kb = max_rss_kb();
  } else {
    reps.push_back(run_rep(kind, n, steps, seed, nullptr));
    rss_peak_kb = max_rss_kb();
    tracer.begin("replay");
    traced = run_rep(kind, n, steps, seed, &tracer);
    tracer.end();
    checksum = e2e::run_probes(probe_shape(kind, n, reps.front()), seed,
                               quick ? 0.01 : 0.15, tracer);
    if (!tracer.write(trace_path)) {
      std::fprintf(stderr, "epiagg_e2e: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\": ");
  print_string(workload->name);
  std::printf(", \"engine\": \"%s\", \"seed\": %llu, \"quick\": %s, "
              "\"nodes\": %zu, \"steps\": %zu, \"epoch_length\": %zu, "
              "\"planes\": %zu, \"rss_peak_kb\": %ld, \"reps\": [",
              is_event(kind) ? "event" : "cycle",
              static_cast<unsigned long long>(seed), quick ? "true" : "false", n,
              steps, kEpochLength, planes, rss_peak_kb);
  for (std::size_t k = 0; k < reps.size(); ++k) {
    if (k > 0) std::printf(",\n");
    print_rep(reps[k]);
  }
  std::printf("]");
  if (traced.has_value()) {
    std::printf(",\n\"traced\": ");
    print_rep(*traced);
    std::printf(",\n\"ops_per_step\": {");
    const auto ops = ops_per_step(kind, n, planes, reps.front());
    for (std::size_t k = 0; k < ops.size(); ++k) {
      std::printf("%s\"%s\": ", k > 0 ? ", " : "", ops[k].first);
      print_number(ops[k].second);
    }
    std::printf("}, \"probe_checksum\": ");
    print_number(checksum);
  }
  std::printf("}\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "epiagg_e2e: %s\n", e.what());
  return 1;
}
