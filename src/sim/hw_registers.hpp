// Simulated hardware registers (Section 7.1: "Glue software was developed
// to simulate registers for A/D-conversion, timers, counter registers etc.,
// accessed by the application").
//
// The registers mirror an HC11-style microcontroller timer subsystem,
// which matches the paper's signal names. The pulse accumulator (PACNT),
// input capture (TIC1) and output compare (TOC2) registers are plain bus
// values the environment updates in place (arrestment/environment.hpp);
// the two modelled here derive their value from time or a physical
// quantity:
//   TCNT  -- free-running 16-bit timer
//   ADC   -- analogue-to-digital converter sampling a physical quantity
//
// All registers are 16 bits wide, matching "the input signals were all 16
// bits wide" (Section 7.3). Registers wrap silently on overflow, as the
// real counters do -- the control software must handle the wrap.
#pragma once

#include <cstdint>

#include "sim/simtime.hpp"

namespace propane::sim {

/// Free-running 16-bit timer: counts at a fixed tick rate from simulation
/// start and wraps at 65536. Read-only for software.
class FreeRunningTimer {
 public:
  /// `ticks_per_microsecond` is the counting rate (HC11 E-clock style;
  /// 1 tick/us by default -> wraps every 65.536 ms).
  explicit FreeRunningTimer(std::uint32_t ticks_per_microsecond = 1);

  std::uint16_t read(SimTime now) const;
  std::uint32_t ticks_per_microsecond() const { return rate_; }

 private:
  std::uint32_t rate_;
};

/// Linear 16-bit A/D converter over a configurable physical range.
/// Values outside [phys_lo, phys_hi] clamp to the rail, like a real ADC.
class Adc {
 public:
  Adc(double phys_lo, double phys_hi);

  /// The sample the software reads for physical value `value`. Stateless
  /// and call-free (round-half-up instead of libm lround) so the batched
  /// environment's per-lane loop vectorizes.
  std::uint16_t quantize(double value) const {
    const double clamped = value < lo_ ? lo_ : (hi_ < value ? hi_ : value);
    const double scaled = (clamped - lo_) / (hi_ - lo_) * 65535.0;
    return static_cast<std::uint16_t>(scaled + 0.5);
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
};

}  // namespace propane::sim
