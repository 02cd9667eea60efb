#include "sim/hw_registers.hpp"

#include "common/contracts.hpp"

namespace propane::sim {

FreeRunningTimer::FreeRunningTimer(std::uint32_t ticks_per_microsecond)
    : rate_(ticks_per_microsecond) {
  PROPANE_REQUIRE(ticks_per_microsecond > 0);
}

std::uint16_t FreeRunningTimer::read(SimTime now) const {
  return static_cast<std::uint16_t>(now * rate_);
}

Adc::Adc(double phys_lo, double phys_hi) : lo_(phys_lo), hi_(phys_hi) {
  PROPANE_REQUIRE(phys_hi > phys_lo);
}

}  // namespace propane::sim
