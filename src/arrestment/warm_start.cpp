#include "arrestment/warm_start.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace propane::arr {

WarmStartEngine::WarmStartEngine(std::vector<TestCase> cases,
                                 const fi::CampaignConfig& config,
                                 sim::SimTime duration)
    : cases_(std::move(cases)),
      duration_(duration),
      duration_ms_(sim::to_milliseconds(duration)),
      checkpoint_ms_{0} {
  PROPANE_REQUIRE(!cases_.empty());
  // Distinct fire ticks, ascending. One at/after the run end never fires.
  for (const fi::InjectionSpec& spec : config.injections) {
    const std::uint64_t fire = fi::injection_fire_ms(spec.when);
    if (fire < duration_ms_) checkpoint_ms_.push_back(fire);
  }
  std::sort(checkpoint_ms_.begin(), checkpoint_ms_.end());
  checkpoint_ms_.erase(
      std::unique(checkpoint_ms_.begin(), checkpoint_ms_.end()),
      checkpoint_ms_.end());
  states_.reserve(cases_.size());
  for (const TestCase& test_case : cases_) {
    states_.push_back({lane_state(ArrestmentSystem(test_case))});
  }
}

fi::TraceSet WarmStartEngine::run(const fi::RunRequest& request) {
  PROPANE_REQUIRE(request.test_case < cases_.size());
  if (!request.injection) return golden_run(request);
  return run_request(cases_[request.test_case], request, duration_);
}

fi::TraceSet WarmStartEngine::golden_run(const fi::RunRequest& request) {
  ArrestmentSystem system(cases_[request.test_case]);
  fi::TraceRecorder recorder(system.bus(), duration_ms_);
  RunOptions options;
  options.duration = duration_;
  options.rng_seed = request.rng_seed;

  std::vector<LaneState> states(checkpoint_ms_.size());
  std::size_t next = 0;
  while (system.now() < duration_) {
    if (next < checkpoint_ms_.size() &&
        system.current_ms() == checkpoint_ms_[next]) {
      states[next++] = lane_state(system);
    }
    system.tick(options);
    recorder.sample();
  }
  {
    std::scoped_lock lock(mutex_);
    states_[request.test_case] = std::move(states);
  }
  return recorder.take();
}

LaneState WarmStartEngine::origin(std::uint32_t test_case,
                                  std::uint64_t fire_ms) const {
  PROPANE_REQUIRE(test_case < cases_.size());
  const auto it = std::lower_bound(checkpoint_ms_.begin(),
                                   checkpoint_ms_.end(), fire_ms);
  PROPANE_REQUIRE_MSG(it != checkpoint_ms_.end() && *it == fire_ms,
                      "no checkpoint planned at this tick");
  const auto slot = static_cast<std::size_t>(it - checkpoint_ms_.begin());
  std::scoped_lock lock(mutex_);
  PROPANE_REQUIRE_MSG(slot < states_[test_case].size(),
                      "the test case's golden run has not executed yet");
  return states_[test_case][slot];
}

}  // namespace propane::arr
