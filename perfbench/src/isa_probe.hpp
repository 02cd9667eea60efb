#pragma once

namespace perfbench {

/// Divergence-screen tier the batch kernel was compiled for:
/// "AVX-512BW+BMI2", "AVX-512BW", "AVX2+BMI2", "scalar", or
/// "unknown" when the kernel's options could not be read at configure time.
const char* compiled_screen_tier();

}  // namespace perfbench
