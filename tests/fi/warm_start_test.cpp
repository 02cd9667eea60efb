#include "arrestment/warm_start.hpp"

#include <gtest/gtest.h>

#include "arrestment/testcase.hpp"
#include "common/contracts.hpp"

namespace propane::arr {
namespace {

constexpr sim::SimTime kShortRun = 100 * sim::kMillisecond;

TEST(WarmStart, FireTickRoundsUpToNextMillisecond) {
  EXPECT_EQ(fi::injection_fire_ms(0), 0u);
  EXPECT_EQ(fi::injection_fire_ms(1), 1u);
  EXPECT_EQ(fi::injection_fire_ms(sim::kMillisecond), 1u);
  EXPECT_EQ(fi::injection_fire_ms(sim::kMillisecond + 1), 2u);
  EXPECT_EQ(fi::injection_fire_ms(2500 * sim::kMillisecond), 2500u);
}

/// Fire ticks 20 ms and 45 ms (rounded up from 44.5 ms), plus one at the
/// horizon, which never fires and plans no checkpoint.
fi::CampaignConfig two_tick_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.injections = {
      fi::InjectionSpec{0, 20 * sim::kMillisecond, fi::bit_flip(3)},
      fi::InjectionSpec{1, 44 * sim::kMillisecond + 500, fi::bit_flip(3)},
      fi::InjectionSpec{2, kShortRun, fi::bit_flip(3)},
  };
  return config;
}

::testing::AssertionResult same_state(const LaneState& a, const LaneState& b) {
  const auto& x = a.env;
  const auto& y = b.env;
  const bool same =
      a.bus == b.bus && x.mass_y == y.mass_y && x.mass_recip == y.mass_recip &&
      x.velocity == y.velocity && x.position == y.position &&
      x.pressure == y.pressure && x.pulse_accumulator == y.pulse_accumulator &&
      x.peak_decel == y.peak_decel &&
      a.dist_s.last_pacnt == b.dist_s.last_pacnt &&
      a.dist_s.no_pulse_ms == b.dist_s.no_pulse_ms &&
      a.v_reg_integrator == b.v_reg_integrator &&
      a.calc.seg_start_pulses == b.calc.seg_start_pulses &&
      a.calc.seg_start_ms == b.calc.seg_start_ms &&
      a.calc.seg_start_velocity == b.calc.seg_start_velocity &&
      a.calc.seg_set_value == b.calc.seg_set_value &&
      a.calc.gain == b.calc.gain;
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "lane states differ";
}

TEST(WarmStart, OriginAtTickZeroIsAFreshSystem) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  const WarmStartEngine engine(cases, two_tick_config(), kShortRun);
  for (std::uint32_t tc = 0; tc < cases.size(); ++tc) {
    EXPECT_TRUE(same_state(engine.origin(tc, 0),
                           lane_state(ArrestmentSystem(cases[tc]))))
        << "test case " << tc;
  }
}

TEST(WarmStart, OriginAfterTheGoldenRunIsTheScalarSystemAtThatTick) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  WarmStartEngine engine(cases, two_tick_config(), kShortRun);
  for (std::uint32_t tc = 0; tc < cases.size(); ++tc) {
    fi::RunRequest golden;
    golden.test_case = tc;
    engine.run(golden);
    ArrestmentSystem system(cases[tc]);
    for (const std::uint64_t ms : {0u, 20u, 45u}) {
      while (system.current_ms() < ms) system.tick(RunOptions{});
      EXPECT_TRUE(same_state(engine.origin(tc, ms), lane_state(system)))
          << "test case " << tc << " at " << ms << " ms";
    }
  }
}

TEST(WarmStart, UnplannedOrUncapturedTickIsRejected) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  WarmStartEngine engine(cases, two_tick_config(), kShortRun);
  // Planned, but test case 0's golden run has not executed yet.
  EXPECT_THROW(engine.origin(0, 20), ContractViolation);
  fi::RunRequest golden;
  engine.run(golden);
  EXPECT_NO_THROW(engine.origin(0, 20));
  EXPECT_THROW(engine.origin(1, 20), ContractViolation);
  // Never planned: between the fire ticks, and the never-firing horizon.
  EXPECT_THROW(engine.origin(0, 21), ContractViolation);
  EXPECT_THROW(engine.origin(0, sim::to_milliseconds(kShortRun)),
               ContractViolation);
}

}  // namespace
}  // namespace propane::arr
