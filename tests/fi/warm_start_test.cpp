#include "arrestment/warm_start.hpp"

#include <gtest/gtest.h>

#include "arrestment/testcase.hpp"

namespace propane::arr {
namespace {

TEST(WarmStart, FireTickRoundsUpToNextMillisecond) {
  EXPECT_EQ(fi::injection_fire_ms(0), 0u);
  EXPECT_EQ(fi::injection_fire_ms(1), 1u);
  EXPECT_EQ(fi::injection_fire_ms(sim::kMillisecond), 1u);
  EXPECT_EQ(fi::injection_fire_ms(sim::kMillisecond + 1), 2u);
  EXPECT_EQ(fi::injection_fire_ms(2500 * sim::kMillisecond), 2500u);
}

TEST(ArrestmentSystem, SnapshotCopyResumesIdentically) {
  const TestCase test_case = grid_test_cases(1, 1)[0];
  RunOptions options;
  options.duration = 50 * sim::kMillisecond;
  options.rng_seed = 11;

  ArrestmentSystem reference(test_case);
  std::unique_ptr<ArrestmentSystem> copy;
  while (reference.now() < options.duration) {
    if (copy == nullptr && reference.current_ms() == 20) {
      copy = std::make_unique<ArrestmentSystem>(reference);
    }
    reference.tick(options);
  }
  ASSERT_NE(copy, nullptr);
  while (copy->now() < options.duration) copy->tick(options);

  EXPECT_EQ(copy->bus().snapshot(), reference.bus().snapshot());
  EXPECT_EQ(copy->environment().position_m(),
            reference.environment().position_m());
}

}  // namespace
}  // namespace propane::arr
