// The aggregator registry: the open successor of the Combiner enum. These
// tests pin the registry contract (builtins present, validation on
// register, nullptr on unknown), the plan flattening (offsets, plane
// combiners, combiner aliasing), and — at the FP-expression level — the
// decay and window kernels the engines execute once per cycle.
#include "aggregate/aggregator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/contract.hpp"
#include "common/stats.hpp"

namespace epiagg {
namespace {

TEST(AggregatorRegistry, BuiltinsAreRegistered) {
  for (const char* name : {"average", "maximum", "minimum", "sum-count",
                           "variance", "decaying-mean", "windowed-mean"}) {
    const AggregatorDef* def = find_aggregator(name);
    ASSERT_NE(def, nullptr) << name;
    EXPECT_EQ(def->name, name);
    EXPECT_EQ(def->plane_combiners.size(), def->width);
    EXPECT_NE(def->init, nullptr);
    EXPECT_NE(def->read, nullptr);
    EXPECT_NE(def->exact, nullptr);
  }
  EXPECT_EQ(find_aggregator("no-such-kind"), nullptr);

  const auto names = registered_aggregators();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 7u);
}

TEST(AggregatorRegistry, InitContractStateZeroIsTheRawAttribute) {
  // CONTRACT: state[0] == a for every kind — plane `offset` of any
  // instance holds the unmodified attribute, which is what the
  // time-varying evolution and the canonical scalar reads rely on.
  const double a = 0.731;
  double state[kMaxAggregatorWidth];
  for (const std::string& name : registered_aggregators()) {
    const AggregatorDef* def = find_aggregator(name);
    def->init(a, state);
    EXPECT_EQ(state[0], a) << name;
  }
}

TEST(AggregatorRegistry, RegisterValidatesAndRejectsDuplicates) {
  const auto identity_init = [](double a, double* state) { state[0] = a; };
  const auto identity_read = [](const double* state) { return state[0]; };
  const auto exact_zero = [](std::span<const double>) { return 0.0; };

  AggregatorDef def;
  def.name = "test-kind";
  def.width = 1;
  def.plane_combiners = {Combiner::kAverage};
  def.init = identity_init;
  def.read = identity_read;
  def.exact = exact_zero;

  AggregatorDef nameless = def;
  nameless.name.clear();
  EXPECT_THROW(register_aggregator(nameless), ContractViolation);

  AggregatorDef mismatched = def;
  mismatched.width = 2;  // but only one plane combiner
  EXPECT_THROW(register_aggregator(mismatched), ContractViolation);

  AggregatorDef kernel_less = def;
  kernel_less.read = nullptr;
  EXPECT_THROW(register_aggregator(kernel_less), ContractViolation);

  AggregatorDef duplicate = def;
  duplicate.name = "average";  // a builtin
  EXPECT_THROW(register_aggregator(duplicate), ContractViolation);

  // A valid registration sticks and becomes spec-addressable.
  register_aggregator(def);
  ASSERT_NE(find_aggregator("test-kind"), nullptr);
  EXPECT_THROW(register_aggregator(def), ContractViolation);  // now a dup
}

TEST(AggregatorPlanTest, FromCombinersIsTheLegacyAlias) {
  const Combiner combiners[] = {Combiner::kAverage, Combiner::kMax,
                                Combiner::kMin};
  const AggregatorPlan plan = AggregatorPlan::from_combiners(combiners);
  EXPECT_FALSE(plan.has_dynamics());
  ASSERT_EQ(plan.instances().size(), 3u);
  ASSERT_EQ(plan.planes(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.plane_combiners()[i], combiners[i]);
    EXPECT_EQ(plan.instances()[i].offset, i);
    EXPECT_EQ(plan.instances()[i].def->width, 1u);
  }
}

TEST(AggregatorPlanTest, FromSpecsLaysInstancesOverConsecutivePlanes) {
  const std::vector<AggregatorSpec> specs = {
      AggregatorSpec::average("avg"), AggregatorSpec::variance("var"),
      AggregatorSpec::decaying_mean("ewma", 0.25),
      AggregatorSpec::windowed_mean("win", 8)};
  const AggregatorPlan plan = AggregatorPlan::from_specs(specs);
  EXPECT_TRUE(plan.has_dynamics());
  ASSERT_EQ(plan.instances().size(), 4u);
  EXPECT_EQ(plan.planes(), 5u);  // 1 + 2 + 1 + 1
  EXPECT_EQ(plan.instances()[0].offset, 0u);
  EXPECT_EQ(plan.instances()[1].offset, 1u);
  EXPECT_EQ(plan.instances()[2].offset, 3u);
  EXPECT_EQ(plan.instances()[3].offset, 4u);
  EXPECT_EQ(plan.instances()[2].param, 0.25);
  EXPECT_EQ(plan.instances()[3].param, 8.0);
  EXPECT_EQ(plan.instances()[1].label, "var");
  // Every plane combiner is the flattening of the defs' own vectors.
  const std::vector<Combiner> expected = {
      Combiner::kAverage, Combiner::kAverage, Combiner::kAverage,
      Combiner::kAverage, Combiner::kAverage};
  EXPECT_EQ(plan.plane_combiners(), expected);
}

TEST(AggregatorPlanTest, AllWidthOneStaticSpecsStayLegacy) {
  // average/max/min via specs alias the historical combiner vector
  // exactly.
  const std::vector<AggregatorSpec> specs = {AggregatorSpec::average("a"),
                                             AggregatorSpec::maximum("b"),
                                             AggregatorSpec::minimum("c")};
  const AggregatorPlan plan = AggregatorPlan::from_specs(specs);
  EXPECT_FALSE(plan.has_dynamics());
  const std::vector<Combiner> expected = {Combiner::kAverage, Combiner::kMax,
                                          Combiner::kMin};
  EXPECT_EQ(plan.plane_combiners(), expected);
}

// ------------------------------------------------------------------
// FP-expression-level kernel tests: the exact arithmetic the engines
// execute, pinned so refactors cannot silently change a rounding step.
// ------------------------------------------------------------------

TEST(AggregatorKernels, SumCountReadIsTheMomentRatio) {
  const AggregatorDef* def = find_aggregator("sum-count");
  double state[2];
  def->init(3.25, state);
  EXPECT_EQ(state[0], 3.25);
  EXPECT_EQ(state[1], 1.0);
  // After any sequence of avg-merges the count plane averages 1s, so the
  // ratio read equals the mean estimate — bit-for-bit the division below.
  state[0] = 1.75;
  state[1] = 0.5;
  EXPECT_EQ(def->read(state), 1.75 / 0.5);
}

TEST(AggregatorKernels, VarianceReadMatchesMomentFormula) {
  const AggregatorDef* def = find_aggregator("variance");
  double state[2];
  def->init(1.5, state);
  EXPECT_EQ(state[0], 1.5);
  EXPECT_EQ(state[1], 1.5 * 1.5);
  state[0] = 0.4;   // gossip-averaged first moment
  state[1] = 0.41;  // gossip-averaged second moment
  EXPECT_EQ(def->read(state), variance_from_moments(0.4, 0.41));
  // Clamped at zero when rounding pushes E[x^2] below E[x]^2.
  state[1] = 0.4 * 0.4 - 1e-18;
  EXPECT_EQ(def->read(state), 0.0);

  // exact() is the two-moment formula over the raw attributes.
  const std::vector<double> attrs = {0.0, 1.0, 2.0, 3.0};
  EXPECT_NEAR(def->exact(attrs), 1.25, 1e-12);
}

TEST(AggregatorKernels, DecayingMeanIsTheExactEwmaExpression) {
  const AggregatorDef* def = find_aggregator("decaying-mean");
  ASSERT_NE(def->decay, nullptr);
  EXPECT_FALSE(def->windowed);
  const double beta = 0.2;
  double state[1] = {0.5};
  def->decay(beta, 0.9, state);
  // The engine's per-cycle expression, bit-for-bit.
  EXPECT_EQ(state[0], (1.0 - beta) * 0.5 + beta * 0.9);
  // beta = 1 snaps to the current attribute exactly.
  def->decay(1.0, 0.125, state);
  EXPECT_EQ(state[0], 0.125);
  // A fixed point: state == attribute is unchanged (bit-exact for a
  // dyadic beta; general betas agree only to rounding).
  double fixed[1] = {0.75};
  def->decay(0.5, 0.75, fixed);
  EXPECT_EQ(fixed[0], 0.75);
  def->decay(0.3, 0.75, fixed);
  EXPECT_DOUBLE_EQ(fixed[0], 0.75);
}

TEST(AggregatorKernels, WindowedMeanHasNoDecayKernel) {
  // The window refresh is an engine-side plane snapshot, not a kernel:
  // the def only carries the flag (param = W validated by the builder).
  const AggregatorDef* def = find_aggregator("windowed-mean");
  EXPECT_TRUE(def->windowed);
  EXPECT_EQ(def->decay, nullptr);
  EXPECT_EQ(def->width, 1u);
}

}  // namespace
}  // namespace epiagg
