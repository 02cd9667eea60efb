#include "arrestment/batch_runner.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "arrestment/batch_system.hpp"
#include "arrestment/signals.hpp"
#include "common/contracts.hpp"
#include "obs/telemetry.hpp"

namespace propane::arr {
namespace {

/// Pre-resolved metric handles (see the header comment on
/// batched_campaign_runner). All null when telemetry is off.
struct BatchInstruments {
  obs::Histogram* group_lanes = nullptr;
  obs::Histogram* retire_ticks = nullptr;
  obs::Counter* kernel_ticks = nullptr;
  obs::Counter* lut_gathers = nullptr;

  explicit BatchInstruments(const obs::Telemetry* telemetry) {
    group_lanes = obs::find_histogram(
        telemetry, "batch.group.lanes",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    retire_ticks = obs::find_histogram(telemetry, "batch.retire.ticks",
                                       obs::one_two_five_bounds(10, 1e5));
    kernel_ticks = obs::find_counter(telemetry, "batch.kernel.ticks");
    lut_gathers = obs::find_counter(telemetry, "batch.kernel.lut_gathers");
  }

  /// Folds one closed kernel batch in. Derived *after* the kernel ran,
  /// from counts the batch already kept -- the tick loop stays untouched.
  void observe(const BatchedArrestmentSystem& batch,
               std::size_t segment_count) const {
    const std::size_t injection_lanes = batch.injection_lane_count();
    if (group_lanes != nullptr) {
      group_lanes->observe(static_cast<double>(injection_lanes));
    }
    if (retire_ticks != nullptr) {
      for (const std::uint64_t tick : batch.retirement_ticks()) {
        retire_ticks->observe(static_cast<double>(tick));
      }
    }
    const std::uint64_t ticks = batch.ticks_simulated();
    // Every executed tick sweeps all lanes (goldens included -- one per
    // segment; retired lanes are dead but still swept branch-free): one
    // commanded-pressure LUT gather per lane per tick (environment.cpp's
    // step_lanes_kernel).
    if (kernel_ticks != nullptr) kernel_ticks->add(ticks);
    if (lut_gathers != nullptr) {
      lut_gathers->add(ticks * static_cast<std::uint64_t>(injection_lanes +
                                                          segment_count));
    }
  }
};

/// One kernel batch of a chunk and the bookkeeping that maps its lanes
/// back to the request.
struct Group {
  std::unique_ptr<BatchedArrestmentSystem> batch;
  /// Per injection lane (spec order): its index in the request and its
  /// segment.
  std::vector<std::size_t> request_index;
  std::vector<std::size_t> lane_segment;
  /// Per segment: its test case.
  std::vector<std::uint32_t> segment_case;
  /// Injection lanes not reported final yet, one bit each (spec order).
  std::uint64_t live = 0;

  std::size_t live_count() const {
    return static_cast<std::size_t>(std::popcount(live));
  }
  /// No lane retired since the batch was built: moving its lanes frees no
  /// sweep.
  bool clean() const { return live == first_lanes(request_index.size()); }
};

/// `count` lanes split into segments by test case, in first-appearance
/// order: per segment, its test case and the positions of its lanes.
template <typename CaseOf>
std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>>
by_test_case(std::size_t count, CaseOf case_of) {
  std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> segments;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t tc = case_of(k);
    auto it = std::find_if(segments.begin(), segments.end(),
                           [tc](const auto& seg) { return seg.first == tc; });
    if (it == segments.end()) {
      segments.emplace_back(tc, std::vector<std::size_t>{});
      it = segments.end() - 1;
    }
    it->second.push_back(k);
  }
  return segments;
}

/// One chunk of a BatchRunRequest, run in windows (see the header).
class ChunkRun {
 public:
  ChunkRun(const WarmStartEngine& engine, const fi::BatchRunRequest& request,
           std::uint64_t window_ms, WarmStartStats* warm_stats,
           BatchRunStats* stats, const BatchInstruments& instruments)
      : engine_(engine),
        request_(request),
        width_(std::max<std::size_t>(request.width, 1)),
        window_ms_(window_ms),
        warm_stats_(warm_stats),
        stats_(stats),
        instruments_(instruments) {
    PROPANE_REQUIRE(window_ms_ > 0);
    PROPANE_REQUIRE(request_.on_final != nullptr);
  }

  void run() {
    // Peel lanes whose injection fires at/after the horizon: those runs
    // *are* the golden run, every signal matches, and no simulation is
    // needed.
    live_.reserve(request_.lanes.size());
    for (std::size_t i = 0; i < request_.lanes.size(); ++i) {
      const fi::BatchLaneRequest& lane = request_.lanes[i];
      PROPANE_REQUIRE(lane.test_case < engine_.cases().size());
      if (fire_ms(i) >= engine_.duration_ms()) {
        fi::DivergenceReport report;
        report.per_signal.resize(kAllSignals.size());
        request_.on_final(i, std::move(report));
      } else {
        live_.push_back(i);
      }
    }
    const std::size_t never_fire = request_.lanes.size() - live_.size();
    const std::size_t plans = (live_.size() + width_ - 1) / width_;
    if (stats_ != nullptr) {
      stats_->never_fire_lanes.fetch_add(never_fire,
                                         std::memory_order_relaxed);
      stats_->saved_lane_ms.fetch_add(never_fire * engine_.duration_ms(),
                                      std::memory_order_relaxed);
      stats_->batches.fetch_add(plans, std::memory_order_relaxed);
      stats_->batched_lanes.fetch_add(live_.size(),
                                      std::memory_order_relaxed);
    }

    // Advance whatever stops earliest, then compact everything that
    // stopped there. A batch packed from the plan is built only when its
    // first window is due and stops at its first convergence check; every
    // later stop is an absolute window boundary (clamped to the horizon).
    std::vector<std::size_t> pending(plans);  // plan batches not built yet
    for (std::size_t p = 0; p < plans; ++p) pending[p] = p;
    while (!pending.empty() || !groups_.empty()) {
      sim::SimTime stop = engine_.duration();
      for (const std::size_t p : pending) {
        stop = std::min(stop, first_stop(p));
      }
      for (const Group& group : groups_) {
        stop = std::min(stop, window_stop(group));
      }
      std::vector<std::size_t> later;
      for (const std::size_t p : pending) {
        if (first_stop(p) != stop) {
          later.push_back(p);
          continue;
        }
        Group group = plan_group(p);
        group.batch->advance(stop);
        add_to_pool(std::move(group));
      }
      pending = std::move(later);
      std::vector<Group> waiting;
      for (Group& group : groups_) {
        if (window_stop(group) != stop) {
          waiting.push_back(std::move(group));
          continue;
        }
        group.batch->advance(stop);
        add_to_pool(std::move(group));
      }
      groups_ = std::move(waiting);
      compact(stop);
    }
  }

 private:
  /// Golden lane states by test case, at the tick a batch starts from.
  using Goldens = std::vector<std::pair<std::uint32_t, LaneState>>;
  /// An injection lane on its way into a new batch: a plan lane not yet
  /// started, or a live lane of a batch taken apart.
  struct Mover {
    std::size_t request_index = 0;
    std::uint32_t test_case = 0;
    InjectionLaneState state;
  };
  /// The lanes stopped at one tick, on their way to a compaction: batches
  /// that may stay as they are, and the live lanes (plus their golden
  /// lanes) of the batches already taken apart.
  struct Pool {
    std::vector<Group> full;     // every lane live, `width` lanes
    std::vector<Group> partial;  // every lane live, fewer lanes
    std::vector<Mover> moved;
    Goldens goldens;
    std::size_t live = 0;
  };

  std::uint64_t fire_ms(std::size_t i) const {
    return fi::injection_fire_ms(request_.lanes[i].spec->when);
  }

  sim::SimTime clamp_ms(std::uint64_t ms) const {
    return std::min(engine_.duration(),
                    static_cast<sim::SimTime>(ms) * sim::kMillisecond);
  }

  /// The live lanes of plan batch `p`: the p-th `width` in plan order.
  std::span<const std::size_t> plan_lanes(std::size_t p) const {
    return {live_.data() + p * width_,
            std::min(width_, live_.size() - p * width_)};
  }

  /// Plan batch `p` starts at its lanes' earliest fire tick.
  std::uint64_t start_ms(std::size_t p) const {
    std::uint64_t start = ~std::uint64_t{0};
    for (const std::size_t i : plan_lanes(p)) {
      start = std::min(start, fire_ms(i));
    }
    return start;
  }

  /// Plan batch `p`'s first window ends at its first convergence check.
  sim::SimTime first_stop(std::size_t p) const {
    return clamp_ms(start_ms(p) + kConvergenceCheckPeriod);
  }

  sim::SimTime window_stop(const Group& group) const {
    const std::uint64_t now_ms = sim::to_milliseconds(group.batch->now());
    return clamp_ms((now_ms / window_ms_ + 1) * window_ms_);
  }

  /// Builds plan batch `p`: its lanes seated on their test cases' golden
  /// runs at the lanes' earliest fire tick (the engine checkpoints every
  /// test case at every distinct plan fire tick).
  Group plan_group(std::size_t p) {
    const std::span<const std::size_t> lanes = plan_lanes(p);
    const std::uint64_t start = start_ms(p);
    Goldens goldens;
    std::vector<Mover> seated;
    seated.reserve(lanes.size());
    for (const std::size_t i : lanes) {
      const fi::BatchLaneRequest& lane = request_.lanes[i];
      const std::uint32_t tc = lane.test_case;
      auto golden = std::find_if(goldens.begin(), goldens.end(),
                                 [tc](const auto& g) { return g.first == tc; });
      if (golden == goldens.end()) {
        golden = goldens.emplace(goldens.end(), tc, engine_.origin(tc, start));
      }
      seated.push_back(
          {i, tc, unfired_lane(golden->second, {lane.spec, lane.rng_seed})});
    }
    Group group = build_group(
        seated, goldens, static_cast<sim::SimTime>(start) * sim::kMillisecond);

    // A batch starting after tick 0 skips its lanes' golden prefix.
    if (warm_stats_ != nullptr) {
      (start > 0 ? warm_stats_->warm_runs : warm_stats_->cold_runs)
          .fetch_add(lanes.size(), std::memory_order_relaxed);
      warm_stats_->saved_ms.fetch_add(lanes.size() * start,
                                      std::memory_order_relaxed);
    }
    if (stats_ != nullptr) {
      stats_->saved_lane_ms.fetch_add(lanes.size() * start,
                                      std::memory_order_relaxed);
    }
    return group;
  }

  /// One kernel batch of `lanes` at `now`: a segment per test case, in
  /// first-appearance order, each comparing against its test case's state
  /// in `goldens`.
  Group build_group(std::span<const Mover> lanes, const Goldens& goldens,
                    sim::SimTime now) {
    const auto segments_by_case = by_test_case(
        lanes.size(), [&](std::size_t k) { return lanes[k].test_case; });
    // Each segment's lanes, contiguous in staged_ (reused, so batches
    // allocate no per-lane storage once warm).
    staged_.clear();
    std::vector<ResumedSegment> segments;
    Group group;
    for (std::size_t s = 0; s < segments_by_case.size(); ++s) {
      const auto& [tc, positions] = segments_by_case[s];
      for (const std::size_t k : positions) {
        staged_.push_back(lanes[k].state);
        group.request_index.push_back(lanes[k].request_index);
        group.lane_segment.push_back(s);
      }
      const auto golden =
          std::find_if(goldens.begin(), goldens.end(),
                       [tc = tc](const auto& g) { return g.first == tc; });
      PROPANE_CHECK(golden != goldens.end());
      segments.push_back({&golden->second, {}});
      group.segment_case.push_back(tc);
    }
    std::size_t first = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const std::size_t count = segments_by_case[s].second.size();
      segments[s].lanes =
          std::span<const InjectionLaneState>(staged_).subspan(first, count);
      first += count;
    }
    group.batch = std::make_unique<BatchedArrestmentSystem>(
        segments, now, engine_.duration());
    group.live = first_lanes(group.request_index.size());
    return group;
  }

  /// Reports every lane of `group` whose report became final, then files
  /// the batch into `pool`: finished batches close, batches with retired
  /// lanes are taken apart at once (a retired lane's sweeps are the waste
  /// compaction removes), the others wait for the compaction to decide.
  void add_to_pool(Group group) {
    Pool& pool = pool_;
    for (std::uint64_t lanes = group.live; lanes != 0; lanes &= lanes - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(lanes));
      if (group.batch->lane_live(j)) continue;
      group.live &= ~(std::uint64_t{1} << j);
      request_.on_final(group.request_index[j], group.batch->report(j));
    }
    pool.live += group.live_count();
    if (group.live == 0) {
      close(group);
    } else if (!group.clean()) {
      take_apart(group);
    } else if (group.live_count() == width_) {
      pool.full.push_back(std::move(group));
    } else {
      pool.partial.push_back(std::move(group));
    }
  }

  /// Moves the live lanes of `group` (and the golden lanes they compare
  /// against) into `pool`, and closes the batch.
  void take_apart(Group& group) {
    Pool& pool = pool_;
    const BatchedArrestmentSystem& batch = *group.batch;
    for (std::uint64_t lanes = group.live; lanes != 0; lanes &= lanes - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(lanes));
      const std::size_t s = group.lane_segment[j];
      const std::uint32_t tc = group.segment_case[s];
      pool.moved.push_back({group.request_index[j], tc, batch.store_lane(j)});
      if (std::none_of(pool.goldens.begin(), pool.goldens.end(),
                       [tc](const auto& g) { return g.first == tc; })) {
        pool.goldens.emplace_back(tc, batch.store_golden(s));
      }
    }
    close(group);
  }

  /// Accounts a kernel batch that will not run again, and frees it.
  void close(Group& group) {
    const BatchedArrestmentSystem& batch = *group.batch;
    instruments_.observe(batch, group.segment_case.size());
    if (stats_ != nullptr) {
      stats_->retired_converged.fetch_add(batch.lanes_retired_converged(),
                                          std::memory_order_relaxed);
      stats_->retired_exhausted.fetch_add(batch.lanes_retired_exhausted(),
                                          std::memory_order_relaxed);
      stats_->retired_at_rest.fetch_add(batch.lanes_retired_at_rest(),
                                        std::memory_order_relaxed);
      stats_->saved_lane_ms.fetch_add(batch.saved_lane_ms(),
                                      std::memory_order_relaxed);
    }
    group.batch.reset();
  }

  /// Leaves the live lanes of `pool`, all stopped at `now`, in
  /// ceil(live / width) batches: full batches without retired lanes stay,
  /// and so do batches without retired lanes that merging could not
  /// reduce; every other live lane moves into dense new batches, in plan
  /// order (which keeps test cases together, so few golden lanes).
  void compact(sim::SimTime now) {
    Pool& pool = pool_;
    if (pool.live == 0) return;
    std::size_t partial_live = 0;
    for (const Group& group : pool.partial) {
      partial_live += group.live_count();
    }
    const std::size_t kept_partial =
        pool.moved.empty() &&
                pool.partial.size() <= (partial_live + width_ - 1) / width_
            ? pool.partial.size()
            : 0;
    if (kept_partial == 0) {
      for (Group& group : pool.partial) take_apart(group);
    }
    const std::size_t kept = pool.full.size() + kept_partial;
    for (Group& group : pool.full) groups_.push_back(std::move(group));
    for (std::size_t g = 0; g < kept_partial; ++g) {
      groups_.push_back(std::move(pool.partial[g]));
    }

    std::vector<Mover>& moved = pool.moved;
    std::sort(moved.begin(), moved.end(), [](const Mover& a, const Mover& b) {
      return a.request_index < b.request_index;
    });
    std::size_t built = 0;
    for (std::size_t begin = 0; begin < moved.size(); begin += width_) {
      const std::size_t count = std::min(width_, moved.size() - begin);
      groups_.push_back(build_group(
          std::span<const Mover>(moved).subspan(begin, count), pool.goldens,
          now));
      ++built;
    }

    if (stats_ != nullptr) {
      const std::size_t held = kept + built;
      const std::size_t dense = (pool.live + width_ - 1) / width_;
      stats_->compactions.fetch_add(1, std::memory_order_relaxed);
      stats_->compacted_lanes.fetch_add(pool.live, std::memory_order_relaxed);
      stats_->compacted_batches.fetch_add(held, std::memory_order_relaxed);
      stats_->compaction_surplus.fetch_add(held - dense,
                                           std::memory_order_relaxed);
    }
    pool.full.clear();
    pool.partial.clear();
    pool.moved.clear();
    pool.goldens.clear();
    pool.live = 0;
  }

  const WarmStartEngine& engine_;
  const fi::BatchRunRequest& request_;
  const std::size_t width_;
  const std::uint64_t window_ms_;
  WarmStartStats* warm_stats_;
  BatchRunStats* stats_;
  const BatchInstruments& instruments_;
  /// Request indices of the lanes that fire, in request (plan) order.
  std::vector<std::size_t> live_;
  /// Batches with live lanes, between two stops.
  std::vector<Group> groups_;
  /// The compaction in the making at the current stop; its vectors keep
  /// their capacity from stop to stop.
  Pool pool_;
  std::vector<InjectionLaneState> staged_;
};

}  // namespace

fi::CampaignRunner batched_campaign_runner(
    std::vector<TestCase> test_cases, const fi::CampaignConfig& config,
    sim::SimTime duration, std::shared_ptr<WarmStartStats> warm_stats,
    std::shared_ptr<BatchRunStats> batch_stats,
    const obs::Telemetry* telemetry) {
  return batched_campaign_runner_with_window(
      kCompactionWindowMs, std::move(test_cases), config, duration,
      std::move(warm_stats), std::move(batch_stats), telemetry);
}

fi::CampaignRunner batched_campaign_runner_with_window(
    std::uint64_t window_ms, std::vector<TestCase> test_cases,
    const fi::CampaignConfig& config, sim::SimTime duration,
    std::shared_ptr<WarmStartStats> warm_stats,
    std::shared_ptr<BatchRunStats> batch_stats,
    const obs::Telemetry* telemetry) {
  PROPANE_REQUIRE(!test_cases.empty());
  PROPANE_REQUIRE_MSG(window_ms > 0, "compaction window must be >= 1 ms");
  PROPANE_REQUIRE_MSG(config.batch_size <= kMaxBatchLanes,
                      "batch_size must be 1-64 (0 = the default)");
  auto engine = std::make_shared<WarmStartEngine>(std::move(test_cases),
                                                  config, duration);
  return fi::CampaignRunner(
      [engine](const fi::RunRequest& request) {
        return engine->run(request);
      },
      [engine, window_ms, warm_stats = std::move(warm_stats),
       stats = std::move(batch_stats),
       instruments = BatchInstruments(telemetry)](
          const fi::BatchRunRequest& request) {
        ChunkRun(*engine, request, window_ms, warm_stats.get(), stats.get(),
                 instruments)
            .run();
      });
}

}  // namespace propane::arr
