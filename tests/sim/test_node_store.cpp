// NodeStateStore's plane-by-plane one-sided merge kernel: apply_deliveries
// must equal the per-delivery combine() loop bit for bit.
#include "sim/node_store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "aggregate/aggregate.hpp"
#include "common/rng.hpp"

namespace epiagg {
namespace {

TEST(NodeStateStore, ApplyDeliveriesMatchesPerDeliveryCombine) {
  constexpr std::size_t kPlanes = 3;
  constexpr std::size_t kNodes = 8;
  // Repeated targets make the per-(plane, node) fold order observable:
  // averaging is not associative, so a reordered fold changes the bits.
  const std::vector<NodeId> targets = {3, 1, 3, 7, 3, 0, 1, 5, 3};
  const std::array<Combiner, kPlanes> kinds = {
      Combiner::kAverage, Combiner::kMax, Combiner::kMin};

  // Each rotation puts every combiner on every plane of the 3-plane stride.
  for (std::size_t rotation = 0; rotation < kPlanes; ++rotation) {
    SCOPED_TRACE(rotation);
    std::array<Combiner, kPlanes> combiners{};
    for (std::size_t s = 0; s < kPlanes; ++s)
      combiners[s] = kinds[(s + rotation) % kPlanes];

    Rng rng(1000 + rotation);
    NodeStateStore store(kPlanes, std::vector<double>(kNodes, 0.0));
    std::vector<std::vector<double>> expected(kPlanes,
                                              std::vector<double>(kNodes));
    for (std::size_t s = 0; s < kPlanes; ++s) {
      for (NodeId id = 0; id < kNodes; ++id) {
        const double x = rng.uniform(-10.0, 10.0);
        store.set_approximation(id, s, x);
        expected[s][id] = x;
      }
    }
    std::vector<double> values(targets.size() * kPlanes);  // delivery-major
    for (double& v : values) v = rng.uniform(-10.0, 10.0);

    for (std::size_t d = 0; d < targets.size(); ++d) {
      for (std::size_t s = 0; s < kPlanes; ++s) {
        double& x = expected[s][targets[d]];
        x = combine(combiners[s], x, values[d * kPlanes + s]);
      }
    }
    store.apply_deliveries(combiners, targets, values);

    for (std::size_t s = 0; s < kPlanes; ++s) {
      for (NodeId id = 0; id < kNodes; ++id) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(store.approximation(id, s)),
                  std::bit_cast<std::uint64_t>(expected[s][id]))
            << "plane " << s << " node " << id;
      }
    }
  }
}

}  // namespace
}  // namespace epiagg
