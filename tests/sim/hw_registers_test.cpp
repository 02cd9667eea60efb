#include "sim/hw_registers.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace propane::sim {
namespace {

TEST(FreeRunningTimer, CountsAtConfiguredRate) {
  FreeRunningTimer timer(1);
  EXPECT_EQ(timer.read(0), 0u);
  EXPECT_EQ(timer.read(1000), 1000u);
  FreeRunningTimer fast(2);
  EXPECT_EQ(fast.read(1000), 2000u);
}

TEST(FreeRunningTimer, WrapsAt16Bits) {
  FreeRunningTimer timer(1);
  EXPECT_EQ(timer.read(65536), 0u);
  EXPECT_EQ(timer.read(65537), 1u);
  EXPECT_EQ(timer.read(2 * 65536 + 123), 123u);
}

TEST(FreeRunningTimer, RejectsZeroRate) {
  EXPECT_THROW(FreeRunningTimer(0), ContractViolation);
}

TEST(Adc, LinearQuantization) {
  Adc adc(0.0, 10.0);
  EXPECT_EQ(adc.quantize(0.0), 0u);
  EXPECT_EQ(adc.quantize(10.0), 65535u);
  EXPECT_NEAR(adc.quantize(5.0), 32768, 1);
}

TEST(Adc, ClampsToRails) {
  Adc adc(0.0, 10.0);
  EXPECT_EQ(adc.quantize(-3.0), 0u);
  EXPECT_EQ(adc.quantize(12.0), 65535u);
}

TEST(Adc, NonZeroBasedRange) {
  Adc adc(-5.0, 5.0);
  EXPECT_NEAR(adc.quantize(0.0), 32768, 1);
}

TEST(Adc, RejectsEmptyRange) {
  EXPECT_THROW(Adc(1.0, 1.0), ContractViolation);
  EXPECT_THROW(Adc(2.0, 1.0), ContractViolation);
}

TEST(Adc, QuantizationIsMonotone) {
  Adc adc(0.0, 1.0);
  std::uint16_t previous = 0;
  for (int i = 0; i <= 100; ++i) {
    const std::uint16_t counts = adc.quantize(static_cast<double>(i) / 100.0);
    EXPECT_GE(counts, previous);
    previous = counts;
  }
}

}  // namespace
}  // namespace propane::sim
