// Lockstep batched campaign runner: the arrestment-side binding of the
// campaign executor's batch planner (fi::BatchRunFunction) to the SoA
// batched kernel (BatchedArrestmentSystem) -- the one engine for
// arrestment injection runs. The cold campaign_runner (system.hpp) stays
// as the independent oracle it is checked against.
//
// A batch is whatever lane set the planner packed -- lanes may mix test
// cases (each distinct test case becomes a kernel segment with its own
// golden lane) and fire ticks (the batch starts at the earliest live fire
// tick; later lanes activate when their tick arrives). The runner restores
// every segment from its test case's golden-run checkpoint at that start
// tick when one exists (composing batching with prefix reuse: each shared
// golden prefix is simulated zero times, not N times), falls back to fresh
// t=0 origins otherwise (fire tick 0 has no prefix), and short-circuits
// never-firing lanes -- the injection time is at/after the horizon, so the
// run *is* the golden run -- to all-clear reports without simulating them
// at all. A settle request (fi::BatchRunRequest::settle) stops the kernel
// at its first convergence check and marks the lanes it has not decided
// as unsettled; never-firing lanes are always settled.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "arrestment/warm_start.hpp"

namespace propane::obs {
struct Telemetry;
}  // namespace propane::obs

namespace propane::arr {

/// Observability counters for the batched runner (shared with the caller;
/// updated from worker threads). `batches` counts kernel runs, settle and
/// finish alike; lane counts count each lane once, in the batch that made
/// its report final, so batched_lanes + never_fire_lanes is the number of
/// runs executed.
struct BatchRunStats {
  std::atomic<std::size_t> batches{0};
  std::atomic<std::size_t> batched_lanes{0};
  /// Lanes retired before the horizon because they provably re-converged
  /// with the golden lane / resolved every signal's first divergence.
  std::atomic<std::size_t> retired_converged{0};
  std::atomic<std::size_t> retired_exhausted{0};
  /// Lanes answered without simulation (injection never fires).
  std::atomic<std::size_t> never_fire_lanes{0};
  /// Kernel runs without the settle stop (the finish phase) and the lanes
  /// they carried; the other `batches` are settle runs over the plan.
  std::atomic<std::size_t> finish_batches{0};
  std::atomic<std::size_t> finish_lanes{0};
  /// Simulated lane-milliseconds avoided (early exit + never-fire).
  std::atomic<std::uint64_t> saved_lane_ms{0};
};

/// The campaign runner for the arrestment system: fi::run_campaign
/// dispatches packed lane sets to the SoA kernel through the
/// BatchRunFunction, while golden runs execute through the WarmStartEngine,
/// which captures the checkpoints the batches start from. Results, records
/// and journal CSVs are bit-identical to the cold oracle (campaign_runner)
/// for every batch size -- enforced by tests/fi/batch_equivalence_test.cpp.
///
/// `warm_stats` (optional) counts each final live lane once by the origin
/// of the batch that decided it -- checkpoint or t=0 -- and the prefix
/// milliseconds the checkpoints saved.
///
/// `telemetry` (optional, non-owning) turns on per-batch profiling:
///   batch.group.lanes      -- histogram, injection lanes per batch group;
///   batch.retire.ticks     -- histogram, ticks into the batch at which
///                             lanes retired (early-exit latency);
///   batch.kernel.ticks     -- counter, scheduler slots executed;
///   batch.kernel.lut_gathers / batch.kernel.exact_div_ops -- counters,
///     kernel work derived from ticks x lanes (the environment sweep does
///     one commanded-pressure LUT gather and four ExactDivisor divides per
///     lane per tick).
/// Handles resolve once here; each batch then costs a few relaxed
/// atomic adds *after* its kernel run -- the tick loop itself carries no
/// instrumentation, so null telemetry is exactly the old code path.
fi::CampaignRunner batched_campaign_runner(
    std::vector<TestCase> test_cases, const fi::CampaignConfig& config,
    sim::SimTime duration = kRunDuration,
    std::shared_ptr<WarmStartStats> warm_stats = nullptr,
    std::shared_ptr<BatchRunStats> batch_stats = nullptr,
    const obs::Telemetry* telemetry = nullptr);

}  // namespace propane::arr
