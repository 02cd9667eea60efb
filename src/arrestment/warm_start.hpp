// Golden-run checkpoints that feed the lockstep batch runner's origins
// (FastFlip-style prefix reuse).
//
// Every injection run of a campaign re-executes, deterministically and
// unchanged, the golden run's prefix up to the tick in which the injection
// fires. The engine keeps, per test case, the golden run's lane state
// (batch_system.hpp) at every distinct fire tick of the plan: tick 0 -- a
// fresh system -- from construction, the later ticks from the test case's
// golden run. The batch runner (batch_runner.hpp) seats every lane of a
// batch on the state at the batch's earliest fire tick instead of
// simulating from t=0.
//
// Per-run RNG streams are a pure function of (campaign seed, run identity)
// and are only consumed from the fire tick onward, and an unfired
// injection has no side effect on the simulation, so a run started from a
// checkpoint is bit-identical to a fresh one -- enforced against the cold
// oracle (campaign_runner) by tests/fi/batch_equivalence_test.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "arrestment/batch_system.hpp"

namespace propane::arr {

/// Origin counters of the batch runner (shared with the caller; updated
/// from worker threads). Each live lane counts once, by the tick of the
/// batch it started in, so warm_runs + cold_runs equals
/// BatchRunStats::batched_lanes.
struct WarmStartStats {
  /// Live lanes started from a golden-run checkpoint after tick 0.
  std::atomic<std::size_t> warm_runs{0};
  /// Live lanes started at tick 0.
  std::atomic<std::size_t> cold_runs{0};
  /// Simulated milliseconds *not* re-executed thanks to checkpoints.
  std::atomic<std::uint64_t> saved_ms{0};
};

/// Golden-run execution with checkpoint capture. Thread-safe; checkpoints
/// are kept for the engine's lifetime (memory is O(test_cases x distinct
/// fire ticks x lane state)).
class WarmStartEngine {
 public:
  /// Plans one checkpoint at tick 0 and one per distinct fire tick of
  /// `config.injections` before the horizon; fills in tick 0.
  WarmStartEngine(std::vector<TestCase> cases,
                  const fi::CampaignConfig& config, sim::SimTime duration);

  /// Executes one campaign run: golden runs capture checkpoints; an
  /// injection request runs the cold oracle from t=0 (the campaign sends
  /// injection runs to the batch runner, so this only serves out-of-band
  /// calls).
  fi::TraceSet run(const fi::RunRequest& request);

  /// `test_case`'s golden run at the start of tick `fire_ms`: the system
  /// after ticks 0..fire_ms-1. ContractViolation when the tick is not
  /// planned, or is after 0 and the test case's golden run has not
  /// executed yet.
  LaneState origin(std::uint32_t test_case, std::uint64_t fire_ms) const;

  const std::vector<TestCase>& cases() const { return cases_; }
  sim::SimTime duration() const { return duration_; }
  std::uint64_t duration_ms() const { return duration_ms_; }

 private:
  fi::TraceSet golden_run(const fi::RunRequest& request);

  std::vector<TestCase> cases_;
  sim::SimTime duration_;
  std::uint64_t duration_ms_;
  std::vector<std::uint64_t> checkpoint_ms_;  // ascending, unique, from 0
  /// states_[test_case][i] holds the checkpoint at checkpoint_ms_[i]: tick
  /// 0 alone until that test case's golden run captures them all. The
  /// mutex covers capture and origin for callers that overlap goldens with
  /// injections; fi::run_campaign's golden phase barrier already orders
  /// them.
  mutable std::mutex mutex_;
  std::vector<std::vector<LaneState>> states_;
};

}  // namespace propane::arr
