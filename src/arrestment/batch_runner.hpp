// Lockstep batched campaign runner: the arrestment-side binding of the
// campaign executor's chunks (fi::BatchRunFunction) to the SoA batched
// kernel (BatchedArrestmentSystem) -- the one engine for arrestment
// injection runs. The cold campaign_runner (system.hpp) stays as the
// independent oracle it is checked against.
//
// One call runs one chunk of plan-ordered lanes, in windows:
//   1. Never-firing lanes (injection at/after the horizon) *are* the golden
//      run: they are answered all-clear without simulation.
//   2. The live lanes are packed, in plan order, into batches of the
//      chunk's width. Lanes may mix test cases (each distinct test case
//      becomes a kernel segment with its own golden lane) and fire ticks
//      (a batch starts at its earliest fire tick; later lanes activate when
//      their tick arrives). Every lane is seated as an unfired lane on its
//      test case's golden-run checkpoint at that tick (WarmStartEngine;
//      tick 0 is a fresh system), so each shared golden prefix is
//      simulated zero times, not N times. The first window ends at the
//      batch's first convergence check, kConvergenceCheckPeriod ticks in,
//      by which time most masked errors have retired.
//   3. After it, batches advance in fixed windows whose boundaries are
//      absolute (multiples of the window), so batches that started at
//      different ticks meet at the same ones.
//   4. Wherever batches stop at the same tick they are compacted: a full
//      batch without retired lanes stays as it is; the live lanes of the
//      others are transplanted into ceil(live / width) dense batches --
//      built from lane states exactly like the plan batches, one golden
//      lane per test case per batch. A retired lane therefore stops
//      costing sweeps at the next boundary, and after every compaction the
//      lanes at that tick sit in exactly ceil(live / width) batches.
// Each lane is reported to the executor as soon as its report is final --
// it retired, or the horizon was reached -- so a killed campaign loses
// only the lanes in flight.
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

/// Window between two compactions, in simulated milliseconds. Short
/// enough that retired lanes stop costing sweeps soon, long enough that
/// transplanting the survivors stays a small fraction of the sweeps.
inline constexpr std::uint64_t kCompactionWindowMs = 256;

/// Observability counters for the batched runner (shared with the caller;
/// updated from worker threads). Every count is host-independent.
struct BatchRunStats {
  /// Kernel batches packed from the plan (each runs a first window) and
  /// the live lanes they carried: batched_lanes + never_fire_lanes is the
  /// number of runs executed.
  std::atomic<std::size_t> batches{0};
  std::atomic<std::size_t> batched_lanes{0};
  /// Compactions (the points where the batches at one tick were merged),
  /// the live lanes they held, and the batches holding those lanes after
  /// each compaction. compaction_surplus sums, over compactions, the
  /// batches beyond ceil(live / width): 0 when every compaction is dense.
  std::atomic<std::size_t> compactions{0};
  std::atomic<std::size_t> compacted_lanes{0};
  std::atomic<std::size_t> compacted_batches{0};
  std::atomic<std::size_t> compaction_surplus{0};
  /// Lanes retired before the horizon because they provably re-converged
  /// with the golden lane / resolved every reachable signal's first
  /// divergence / came to rest with nothing left to diverge on
  /// (batch_system.hpp). Each lane retires at most once, in whichever
  /// batch holds it then.
  std::atomic<std::size_t> retired_converged{0};
  std::atomic<std::size_t> retired_exhausted{0};
  std::atomic<std::size_t> retired_at_rest{0};
  /// Lanes answered without simulation (injection never fires).
  std::atomic<std::size_t> never_fire_lanes{0};
  /// Simulated lane-milliseconds avoided (early exit + never-fire + the
  /// golden prefixes checkpoints skip).
  std::atomic<std::uint64_t> saved_lane_ms{0};
};

/// The campaign runner for the arrestment system: fi::run_campaign hands
/// chunks of plan-ordered lanes to the SoA kernel through the
/// BatchRunFunction, while golden runs execute through the WarmStartEngine,
/// which captures the checkpoints the batches start from. Results, records
/// and journal CSVs are bit-identical to the cold oracle (campaign_runner)
/// for every batch size -- enforced by tests/fi/batch_equivalence_test.cpp.
/// `config.batch_size` may be at most kMaxBatchLanes (batch_system.hpp);
/// a wider one is a ContractViolation here, before any run.
///
/// `warm_stats` (optional) counts each live lane once by the tick of the
/// batch that started it -- a checkpoint after tick 0, or t=0 -- and the
/// prefix milliseconds the checkpoints saved.
///
/// `telemetry` (optional, non-owning) turns on kernel profiling:
///   batch.group.lanes      -- histogram, injection lanes per kernel batch
///                             (plan-packed and compacted alike);
///   batch.retire.ticks     -- histogram, ticks from a lane's fire tick to
///                             its retirement (early-exit latency);
///   batch.kernel.ticks     -- counter, ticks simulated, summed over
///                             kernel batches;
///   batch.kernel.lut_gathers -- counter, lane-ticks swept (ticks x
///                             lanes, goldens included: the environment
///                             sweep does one commanded-pressure LUT
///                             gather per lane per tick).
/// Handles resolve once here; each kernel batch then costs a few relaxed
/// atomic adds when it closes -- the tick loop itself carries no
/// instrumentation, so null telemetry is exactly the same code path.
fi::CampaignRunner batched_campaign_runner(
    std::vector<TestCase> test_cases, const fi::CampaignConfig& config,
    sim::SimTime duration = kRunDuration,
    std::shared_ptr<WarmStartStats> warm_stats = nullptr,
    std::shared_ptr<BatchRunStats> batch_stats = nullptr,
    const obs::Telemetry* telemetry = nullptr);

/// batched_campaign_runner with the compaction window as a parameter
/// (`window_ms` >= 1) -- the seam the equivalence tests use to prove that
/// any window, down to one tick and up past the horizon, yields the same
/// records. Campaigns use kCompactionWindowMs.
fi::CampaignRunner batched_campaign_runner_with_window(
    std::uint64_t window_ms, std::vector<TestCase> test_cases,
    const fi::CampaignConfig& config, sim::SimTime duration,
    std::shared_ptr<WarmStartStats> warm_stats,
    std::shared_ptr<BatchRunStats> batch_stats,
    const obs::Telemetry* telemetry);

}  // namespace propane::arr
