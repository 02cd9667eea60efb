#include "arrestment/batch_runner.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "arrestment/batch_system.hpp"
#include "arrestment/signals.hpp"
#include "common/contracts.hpp"
#include "obs/telemetry.hpp"

namespace propane::arr {
namespace {

/// Pre-resolved metric handles for the batch hot path (see the header
/// comment on batched_campaign_runner). All null when telemetry is off.
struct BatchInstruments {
  obs::Histogram* group_lanes = nullptr;
  obs::Histogram* retire_ticks = nullptr;
  obs::Counter* kernel_ticks = nullptr;
  obs::Counter* lut_gathers = nullptr;
  obs::Counter* exact_div_ops = nullptr;

  explicit BatchInstruments(const obs::Telemetry* telemetry) {
    group_lanes = obs::find_histogram(
        telemetry, "batch.group.lanes",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    retire_ticks = obs::find_histogram(telemetry, "batch.retire.ticks",
                                       obs::one_two_five_bounds(10, 1e5));
    kernel_ticks = obs::find_counter(telemetry, "batch.kernel.ticks");
    lut_gathers = obs::find_counter(telemetry, "batch.kernel.lut_gathers");
    exact_div_ops =
        obs::find_counter(telemetry, "batch.kernel.exact_div_ops");
  }

  /// Folds one finished batch in. Derived *after* the kernel ran, from
  /// counts the batch already kept -- the tick loop stays untouched.
  void observe(const BatchedArrestmentSystem& batch,
               std::size_t injection_lanes, std::size_t segment_count) const {
    if (retire_ticks != nullptr) {
      for (const std::uint64_t tick : batch.retirement_ticks()) {
        retire_ticks->observe(static_cast<double>(tick));
      }
    }
    const std::uint64_t ticks = batch.ticks_simulated();
    // Every executed tick sweeps all lanes (goldens included -- one per
    // segment; retired lanes are dead but still swept branch-free): one
    // commanded-pressure LUT gather and four ExactDivisor divides per lane
    // per tick (environment.cpp's step_lanes_kernel).
    const std::uint64_t lane_ticks =
        ticks * static_cast<std::uint64_t>(injection_lanes + segment_count);
    if (kernel_ticks != nullptr) kernel_ticks->add(ticks);
    if (lut_gathers != nullptr) lut_gathers->add(lane_ticks);
    if (exact_div_ops != nullptr) exact_div_ops->add(lane_ticks * 4);
  }
};

fi::BatchRunResult run_batch(const WarmStartEngine& engine,
                             const fi::BatchRunRequest& request,
                             WarmStartStats* warm_stats, BatchRunStats* stats,
                             const BatchInstruments& instruments) {
  PROPANE_REQUIRE(!request.lanes.empty());
  if (instruments.group_lanes != nullptr) {
    instruments.group_lanes->observe(
        static_cast<double>(request.lanes.size()));
  }

  fi::BatchRunResult result;
  std::vector<fi::DivergenceReport>& reports = result.reports;
  reports.resize(request.lanes.size());
  // Never-firing lanes are settled as peeled; live lanes as the kernel
  // reports them.
  result.settled.assign(request.lanes.size(), 1);

  // Peel lanes whose injection fires at/after the horizon: those runs
  // *are* the golden run, every signal matches, and no simulation is
  // needed. The rest ("live" lanes) go to the kernel; the batch starts at
  // the earliest live fire tick, and later-firing lanes simply track their
  // golden lane bit-identically until their tick arrives.
  std::vector<std::size_t> live;  // request indices, request order
  live.reserve(request.lanes.size());
  std::uint64_t start_ms = ~std::uint64_t{0};
  for (std::size_t i = 0; i < request.lanes.size(); ++i) {
    const fi::BatchLaneRequest& lane = request.lanes[i];
    PROPANE_REQUIRE(lane.test_case < engine.cases().size());
    const std::uint64_t fire_ms = fi::injection_fire_ms(lane.spec->when);
    if (fire_ms >= engine.duration_ms()) {
      reports[i].per_signal.resize(kAllSignals.size());
    } else {
      live.push_back(i);
      start_ms = std::min(start_ms, fire_ms);
    }
  }
  const std::size_t never_fire = request.lanes.size() - live.size();
  if (stats != nullptr && never_fire > 0) {
    stats->never_fire_lanes.fetch_add(never_fire, std::memory_order_relaxed);
    stats->saved_lane_ms.fetch_add(never_fire * engine.duration_ms(),
                                   std::memory_order_relaxed);
  }
  if (live.empty()) return result;

  // One segment per distinct test case, in first-appearance order; a
  // segment's lanes keep request order (the planner's fire-tick order, so
  // staggered lanes cluster late in the segment).
  std::vector<std::uint32_t> seg_case;
  std::vector<std::vector<BatchLaneSpec>> seg_specs;
  std::vector<std::vector<std::size_t>> seg_request;
  for (const std::size_t i : live) {
    const fi::BatchLaneRequest& lane = request.lanes[i];
    const auto it = std::find(seg_case.begin(), seg_case.end(),
                              lane.test_case);
    std::size_t s = static_cast<std::size_t>(it - seg_case.begin());
    if (it == seg_case.end()) {
      seg_case.push_back(lane.test_case);
      seg_specs.emplace_back();
      seg_request.emplace_back();
    }
    seg_specs[s].push_back({lane.spec, lane.rng_seed});
    seg_request[s].push_back(i);
  }

  // Warm path: every segment restores its test case's golden checkpoint at
  // the shared start tick (the engine checkpoints every test case at every
  // distinct plan fire tick, so a packed batch warm-starts whenever any
  // single-group batch would). fire tick 0 has no prefix, and a missing
  // checkpoint for *any* segment sends the whole batch cold -- all origins
  // must sit at the same tick.
  std::vector<std::shared_ptr<const WarmStartEngine::Checkpoint>> checkpoints;
  bool warm = start_ms > 0;
  if (warm) {
    checkpoints.reserve(seg_case.size());
    for (const std::uint32_t tc : seg_case) {
      std::shared_ptr<const WarmStartEngine::Checkpoint> checkpoint =
          engine.lookup(tc, start_ms);
      if (checkpoint == nullptr) {
        warm = false;
        checkpoints.clear();
        break;
      }
      checkpoints.push_back(std::move(checkpoint));
    }
  }

  std::deque<ArrestmentSystem> cold_origins;  // stable addresses
  std::vector<BatchSegment> segments;
  segments.reserve(seg_case.size());
  for (std::size_t s = 0; s < seg_case.size(); ++s) {
    const ArrestmentSystem* origin = nullptr;
    if (warm) {
      origin = checkpoints[s]->system.get();
    } else {
      origin = &cold_origins.emplace_back(engine.cases()[seg_case[s]]);
    }
    segments.push_back({origin, seg_specs[s]});
  }

  BatchedArrestmentSystem batch(segments, engine.duration());
  std::vector<fi::DivergenceReport> live_reports = batch.run(
      request.settle ? BatchStop::kSettle : BatchStop::kHorizon);
  // Kernel reports come back in cross-segment spec order; scatter them to
  // the request's lane slots.
  std::size_t j = 0;
  std::size_t final_lanes = 0;
  for (std::size_t s = 0; s < seg_request.size(); ++s) {
    for (const std::size_t i : seg_request[s]) {
      const bool final_lane = batch.lane_final(j);
      result.settled[i] = final_lane ? 1 : 0;
      final_lanes += final_lane ? 1 : 0;
      reports[i] = std::move(live_reports[j++]);
    }
  }
  instruments.observe(batch, live.size(), segments.size());

  // Lane statistics count a lane once, in the batch that made it final; an
  // unsettled lane is counted by the finish batch that reruns it.
  if (warm_stats != nullptr) {
    if (warm) {
      warm_stats->warm_runs.fetch_add(final_lanes,
                                      std::memory_order_relaxed);
      warm_stats->saved_ms.fetch_add(final_lanes * start_ms,
                                     std::memory_order_relaxed);
    } else {
      warm_stats->cold_runs.fetch_add(final_lanes,
                                      std::memory_order_relaxed);
    }
  }

  if (stats != nullptr) {
    stats->batches.fetch_add(1, std::memory_order_relaxed);
    stats->batched_lanes.fetch_add(final_lanes, std::memory_order_relaxed);
    if (!request.settle) {
      stats->finish_batches.fetch_add(1, std::memory_order_relaxed);
      stats->finish_lanes.fetch_add(live.size(), std::memory_order_relaxed);
    }
    // Every retired lane is final, so these count each lane once too.
    stats->retired_converged.fetch_add(batch.lanes_retired_converged(),
                                       std::memory_order_relaxed);
    stats->retired_exhausted.fetch_add(batch.lanes_retired_exhausted(),
                                       std::memory_order_relaxed);
    // Early exit plus, on the warm path, the shared prefix each final lane
    // did not re-simulate.
    const std::uint64_t saved =
        batch.saved_lane_ms() + (warm ? final_lanes * start_ms : 0);
    stats->saved_lane_ms.fetch_add(saved, std::memory_order_relaxed);
  }
  return result;
}

}  // namespace

fi::CampaignRunner batched_campaign_runner(
    std::vector<TestCase> test_cases, const fi::CampaignConfig& config,
    sim::SimTime duration, std::shared_ptr<WarmStartStats> warm_stats,
    std::shared_ptr<BatchRunStats> batch_stats,
    const obs::Telemetry* telemetry) {
  PROPANE_REQUIRE(!test_cases.empty());
  auto engine = std::make_shared<WarmStartEngine>(std::move(test_cases),
                                                  config, duration);
  return fi::CampaignRunner(
      [engine](const fi::RunRequest& request) {
        return engine->run(request);
      },
      [engine, warm_stats = std::move(warm_stats),
       stats = std::move(batch_stats),
       instruments = BatchInstruments(telemetry)](
          const fi::BatchRunRequest& request) {
        return run_batch(*engine, request, warm_stats.get(), stats.get(),
                         instruments);
      });
}

}  // namespace propane::arr
