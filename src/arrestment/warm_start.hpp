// Golden-run checkpoints that feed the lockstep batch runner's origins
// (FastFlip-style prefix reuse).
//
// Every injection run of a campaign re-executes, deterministically and
// unchanged, the golden run's prefix up to the tick in which the injection
// fires. During each test case's golden run the engine snapshots the
// complete system state at every distinct fire tick of the plan; the
// batch runner (batch_runner.hpp) then starts all lanes of a batch from
// the snapshot at the batch's earliest fire tick instead of from t=0.
//
// Per-run RNG streams are a pure function of (campaign seed, run identity)
// and are only consumed from the fire tick onward, and an idle injection
// driver has no side effect on the simulation, so a run resumed from a
// checkpoint is bit-identical to a fresh one -- enforced against the cold
// oracle (campaign_runner) by tests/fi/batch_equivalence_test.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "arrestment/system.hpp"

namespace propane::arr {

/// Origin counters of the batch runner (shared with the caller; updated
/// from worker threads). Each live lane counts once, by the origin of the
/// batch it started in, so warm_runs + cold_runs equals
/// BatchRunStats::batched_lanes.
struct WarmStartStats {
  /// Live lanes started from a golden-run checkpoint.
  std::atomic<std::size_t> warm_runs{0};
  /// Live lanes started from a fresh t=0 origin.
  std::atomic<std::size_t> cold_runs{0};
  /// Simulated milliseconds *not* re-executed thanks to checkpoints.
  std::atomic<std::uint64_t> saved_ms{0};
};

/// Golden-run execution with checkpoint capture. Thread-safe; checkpoints
/// are kept for the engine's lifetime (memory is O(test_cases x distinct
/// fire times x system state)).
class WarmStartEngine {
 public:
  /// Run state frozen at the start of tick `ms`: the system after ticks
  /// 0..ms-1.
  struct Checkpoint {
    std::unique_ptr<ArrestmentSystem> system;
    std::uint64_t ms = 0;
  };

  /// Plans one checkpoint per distinct fire tick of `config.injections`.
  WarmStartEngine(std::vector<TestCase> cases,
                  const fi::CampaignConfig& config, sim::SimTime duration);

  /// Executes one campaign run: golden runs capture checkpoints; an
  /// injection request runs the cold oracle from t=0 (the campaign sends
  /// injection runs to the batch runner, so this only serves out-of-band
  /// calls).
  fi::TraceSet run(const fi::RunRequest& request);

  /// The checkpoint frozen at fire tick `fire_ms` of `test_case`, or null
  /// when none exists (not planned, or that golden has not executed yet).
  std::shared_ptr<const Checkpoint> lookup(std::uint32_t test_case,
                                           std::uint64_t fire_ms) const;

  const std::vector<TestCase>& cases() const { return cases_; }
  sim::SimTime duration() const { return duration_; }
  std::uint64_t duration_ms() const { return duration_ms_; }

 private:
  fi::TraceSet golden_run(const fi::RunRequest& request);
  void publish(
      std::uint32_t test_case,
      std::vector<std::pair<std::size_t, std::unique_ptr<ArrestmentSystem>>>
          snapshots);

  std::vector<TestCase> cases_;
  sim::SimTime duration_;
  std::uint64_t duration_ms_;
  std::vector<std::uint64_t> checkpoint_ms_;  // ascending, unique
  /// slots_[test_case][i] holds the checkpoint at checkpoint_ms_[i], set
  /// once during that test case's golden run. The mutex covers publish/
  /// lookup for callers that overlap goldens with injections;
  /// fi::run_campaign's golden phase barrier already orders them.
  mutable std::mutex mutex_;
  std::vector<std::vector<std::shared_ptr<const Checkpoint>>> slots_;
};

}  // namespace propane::arr
