// Compiled with the batch kernel's own options (see CMakeLists.txt), so the
// predefined macros tested here are the ones src/arrestment/batch_system.cpp
// selects its divergence-screen tier from.
#include "isa_probe.hpp"

namespace perfbench {

const char* compiled_screen_tier() {
#if defined(PERFBENCH_TIER_UNKNOWN)
  return "unknown";
#elif defined(__AVX512BW__) && defined(__BMI2__)
  return "AVX-512BW+BMI2";
#elif defined(__AVX512BW__)
  return "AVX-512BW";
#elif defined(__AVX2__) && defined(__BMI2__)
  return "AVX2+BMI2";
#else
  return "scalar";
#endif
}

}  // namespace perfbench
