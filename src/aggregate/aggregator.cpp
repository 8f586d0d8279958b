#include "aggregate/aggregator.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/contract.hpp"
#include "common/stats.hpp"

namespace epiagg {
namespace {

// ------------------------------------------------------------------
// Builtin kernels. The width-1 kinds MUST stay FP-identical to the
// pre-registry code paths: read is the identity on state[0] and exact
// reuses the very expressions exact_answer() always used, so legacy
// configurations produce byte-identical streams through the registry.
// ------------------------------------------------------------------

void init_scalar(double a, double* state) { state[0] = a; }
double read_scalar(const double* state) { return state[0]; }

double exact_mean(std::span<const double> attrs) { return mean(attrs); }
double exact_max(std::span<const double> attrs) {
  return *std::max_element(attrs.begin(), attrs.end());
}
double exact_min(std::span<const double> attrs) {
  return *std::min_element(attrs.begin(), attrs.end());
}

// Sum + count moment pair (paper §1.1: sum = average x size). Both planes
// gossip-average; the count plane starts at 1 on every node, so its
// average stays 1 and the ratio read is the mass-conserving way to carry
// "sum per node" through churn-free averaging. read() reports sum/count
// (== the mean); multiply by a size estimate for the sum itself.
void init_sum_count(double a, double* state) {
  state[0] = a;
  state[1] = 1.0;
}
double read_sum_count(const double* state) { return state[0] / state[1]; }

// Variance of the value set via the first two raw moments (§1.1).
void init_variance(double a, double* state) {
  state[0] = a;
  state[1] = a * a;
}
double read_variance(const double* state) {
  return variance_from_moments(state[0], state[1]);
}
double exact_variance(std::span<const double> attrs) {
  KahanSum squares;
  for (const double x : attrs) squares.add(x * x);
  return variance_from_moments(
      mean(attrs), squares.value() / static_cast<double>(attrs.size()));
}

// Exponentially decaying mean: once per cycle each node folds its CURRENT
// attribute back into its approximation with weight beta — continuous
// mass injection, so the gossip average tracks an EWMA of a moving
// target instead of the frozen cycle-0 snapshot.
void decay_ewma(double beta, double a, double* state) {
  state[0] = (1.0 - beta) * state[0] + beta * a;
}

struct Registry {
  std::map<std::string, AggregatorDef, std::less<>> defs;
};

Registry& registry() {
  static Registry instance = [] {
    Registry r;
    auto add = [&r](AggregatorDef def) {
      r.defs.emplace(def.name, std::move(def));
    };
    add({.name = "average",
         .width = 1,
         .plane_combiners = {Combiner::kAverage},
         .init = init_scalar,
         .read = read_scalar,
         .exact = exact_mean});
    add({.name = "maximum",
         .width = 1,
         .plane_combiners = {Combiner::kMax},
         .init = init_scalar,
         .read = read_scalar,
         .exact = exact_max});
    add({.name = "minimum",
         .width = 1,
         .plane_combiners = {Combiner::kMin},
         .init = init_scalar,
         .read = read_scalar,
         .exact = exact_min});
    add({.name = "sum-count",
         .width = 2,
         .plane_combiners = {Combiner::kAverage, Combiner::kAverage},
         .init = init_sum_count,
         .read = read_sum_count,
         .exact = exact_mean});
    add({.name = "variance",
         .width = 2,
         .plane_combiners = {Combiner::kAverage, Combiner::kAverage},
         .init = init_variance,
         .read = read_variance,
         .exact = exact_variance});
    add({.name = "decaying-mean",
         .width = 1,
         .plane_combiners = {Combiner::kAverage},
         .init = init_scalar,
         .read = read_scalar,
         .exact = exact_mean,
         .decay = decay_ewma});
    add({.name = "windowed-mean",
         .width = 1,
         .plane_combiners = {Combiner::kAverage},
         .init = init_scalar,
         .read = read_scalar,
         .exact = exact_mean,
         .windowed = true});
    return r;
  }();
  return instance;
}

[[nodiscard]] const char* builtin_name(Combiner combiner) {
  switch (combiner) {
    case Combiner::kAverage: return "average";
    case Combiner::kMax: return "maximum";
    case Combiner::kMin: return "minimum";
  }
  EPIAGG_UNREACHABLE();
}

}  // namespace

const AggregatorDef* find_aggregator(std::string_view name) {
  const auto& defs = registry().defs;
  const auto it = defs.find(name);
  return it == defs.end() ? nullptr : &it->second;
}

void register_aggregator(AggregatorDef def) {
  EPIAGG_EXPECTS(!def.name.empty(), "an aggregator needs a name");
  EPIAGG_EXPECTS(def.width >= 1 && def.width <= kMaxAggregatorWidth,
                 "aggregator width must be in [1, kMaxAggregatorWidth]");
  EPIAGG_EXPECTS(def.plane_combiners.size() == def.width,
                 "an aggregator needs one plane combiner per state plane");
  EPIAGG_EXPECTS(def.init != nullptr && def.read != nullptr &&
                     def.exact != nullptr,
                 "an aggregator needs init, read, and exact kernels");
  auto& defs = registry().defs;
  const auto [it, inserted] = defs.emplace(def.name, std::move(def));
  EPIAGG_EXPECTS(inserted, "aggregator kind is already registered");
}

std::vector<std::string> registered_aggregators() {
  std::vector<std::string> names;
  for (const auto& [name, def] : registry().defs) names.push_back(name);
  return names;  // std::map iterates in sorted order
}

AggregatorSpec AggregatorSpec::average(std::string label) {
  return {std::move(label), "average", 0.0};
}
AggregatorSpec AggregatorSpec::maximum(std::string label) {
  return {std::move(label), "maximum", 0.0};
}
AggregatorSpec AggregatorSpec::minimum(std::string label) {
  return {std::move(label), "minimum", 0.0};
}
AggregatorSpec AggregatorSpec::sum_count(std::string label) {
  return {std::move(label), "sum-count", 0.0};
}
AggregatorSpec AggregatorSpec::variance(std::string label) {
  return {std::move(label), "variance", 0.0};
}
AggregatorSpec AggregatorSpec::decaying_mean(std::string label, double beta) {
  return {std::move(label), "decaying-mean", beta};
}
AggregatorSpec AggregatorSpec::windowed_mean(std::string label,
                                             double window) {
  return {std::move(label), "windowed-mean", window};
}

AggregatorPlan AggregatorPlan::from_combiners(
    std::span<const Combiner> combiners) {
  AggregatorPlan plan;
  for (const Combiner combiner : combiners) {
    const AggregatorDef* def = find_aggregator(builtin_name(combiner));
    plan.instances_.push_back({def, 0.0, plan.plane_combiners_.size(),
                               std::string(to_string(combiner))});
    plan.plane_combiners_.push_back(combiner);
  }
  return plan;
}

AggregatorPlan AggregatorPlan::from_specs(
    std::span<const AggregatorSpec> specs) {
  AggregatorPlan plan;
  for (const AggregatorSpec& spec : specs) {
    const AggregatorDef* def = find_aggregator(spec.kind);
    EPIAGG_EXPECTS(def != nullptr, "unknown aggregator kind");
    plan.instances_.push_back(
        {def, spec.param, plan.plane_combiners_.size(),
         spec.label.empty() ? spec.kind : spec.label});
    plan.plane_combiners_.insert(plan.plane_combiners_.end(),
                                 def->plane_combiners.begin(),
                                 def->plane_combiners.end());
    if (def->decay != nullptr || def->windowed) plan.dynamics_ = true;
  }
  return plan;
}

}  // namespace epiagg
