// Lockstep batched execution must be invisible in every result: lane
// traces, DivergenceReports, campaign records and journal CSVs from the
// SoA batch path must be bit-identical to the scalar per-run path for
// every batch size -- including when a batched campaign is killed
// mid-batch and resumed under a different batch size.
//
// Lives in tests/fi so the sanitizer CI jobs' tests/fi globs run the
// batched-vs-scalar equivalence under ASan/UBSan and TSan.
#include "arrestment/batch_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arrestment/batch_system.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "store/result_cache.hpp"
#include "store/resume.hpp"

namespace propane::arr {
namespace {

namespace fs = std::filesystem;

constexpr sim::SimTime kShortRun = 300 * sim::kMillisecond;
constexpr std::size_t kBatchSizes[] = {1, 4, 17, 64};

fi::BusSignalId bus_id(std::string_view name) {
  fi::SignalBus bus;
  build_bus(bus);
  const auto id = bus.find(name);
  EXPECT_TRUE(id.has_value()) << name;
  return *id;
}

/// Small-scale plan covering the planner's corner cases: several lanes per
/// (test case, fire tick) group, a fire time of zero (cold batch from
/// t=0), a non-tick-aligned fire time (ceil to the next tick), a
/// stochastic model (per-lane RNG streams) and an injection at the horizon
/// (never fires -> answered without simulation).
fi::CampaignConfig short_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0xBA7C4;
  const fi::BusSignalId pulscnt = bus_id("pulscnt");
  const fi::BusSignalId set_value = bus_id("SetValue");
  const fi::BusSignalId pacnt = bus_id("PACNT");
  config.injections = {
      fi::InjectionSpec{pulscnt, 50 * sim::kMillisecond, fi::bit_flip(3)},
      fi::InjectionSpec{set_value, 50 * sim::kMillisecond, fi::bit_flip(9)},
      fi::InjectionSpec{pacnt, 50 * sim::kMillisecond,
                        fi::random_replacement()},
      fi::InjectionSpec{pulscnt, 0, fi::bit_flip(0)},
      fi::InjectionSpec{pacnt, 150 * sim::kMillisecond + 500,
                        fi::bit_flip(7)},
      fi::InjectionSpec{set_value, kShortRun, fi::bit_flip(1)},  // never fires
  };
  return config;
}

::testing::AssertionResult traces_identical(const fi::TraceSet& a,
                                            const fi::TraceSet& b) {
  if (a.signal_count() != b.signal_count() ||
      a.sample_count() != b.sample_count()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.signal_count() << "x"
           << a.sample_count() << " vs " << b.signal_count() << "x"
           << b.sample_count();
  }
  const std::size_t values = a.signal_count() * a.sample_count();
  if (values != 0 && std::memcmp(a.data(), b.data(),
                                 values * sizeof(std::uint16_t)) != 0) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult reports_identical(const fi::DivergenceReport& a,
                                             const fi::DivergenceReport& b) {
  if (a.per_signal.size() != b.per_signal.size()) {
    return ::testing::AssertionFailure() << "signal count mismatch";
  }
  for (std::size_t s = 0; s < a.per_signal.size(); ++s) {
    const fi::Divergence& x = a.per_signal[s];
    const fi::Divergence& y = b.per_signal[s];
    if (x.diverged != y.diverged || x.first_ms != y.first_ms ||
        x.golden_value != y.golden_value ||
        x.observed_value != y.observed_value) {
      return ::testing::AssertionFailure()
             << "signal " << s << ": (" << x.diverged << ", " << x.first_ms
             << ", " << x.golden_value << ", " << x.observed_value
             << ") vs (" << y.diverged << ", " << y.first_ms << ", "
             << y.golden_value << ", " << y.observed_value << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Ceiling division, for batch counts.
std::size_t batches_for(std::size_t lanes, std::size_t width) {
  return (lanes + width - 1) / width;
}

/// Wraps a batched runner and logs every chunk it executes: how many
/// chunks, and which lanes (by flat index) they reported final -- each
/// exactly once, or the log records a duplicate.
class ChunkLog {
 public:
  fi::CampaignRunner wrap(const fi::CampaignRunner& inner) {
    return fi::CampaignRunner(
        inner.run,
        [this, batch = inner.batch](const fi::BatchRunRequest& request) {
          {
            const std::lock_guard lock(mu_);
            ++chunks_;
          }
          fi::BatchRunRequest logged = request;
          logged.on_final = [this, &request](std::size_t i,
                                             fi::DivergenceReport report) {
            {
              const std::lock_guard lock(mu_);
              if (!reported_.insert(request.lanes[i].flat).second) {
                ++duplicates_;
              }
            }
            request.on_final(i, std::move(report));
          };
          batch(logged);
        });
  }

  std::size_t chunks() const { return chunks_; }
  std::size_t reported() const { return reported_.size(); }
  std::size_t duplicates() const { return duplicates_; }

 private:
  std::mutex mu_;
  std::size_t chunks_ = 0;
  std::set<std::size_t> reported_;
  std::size_t duplicates_ = 0;
};

/// A batch of unfired lanes starting at the origins' common tick: one
/// segment per origin, carrying its lanes.
BatchedArrestmentSystem fresh_batch(
    const std::vector<const ArrestmentSystem*>& origins,
    const std::vector<std::vector<BatchLaneSpec>>& lanes,
    sim::SimTime duration) {
  std::vector<LaneState> goldens;
  std::vector<std::vector<InjectionLaneState>> seated(lanes.size());
  for (std::size_t s = 0; s < lanes.size(); ++s) {
    goldens.push_back(lane_state(*origins[s]));
    for (const BatchLaneSpec& spec : lanes[s]) {
      seated[s].push_back(unfired_lane(goldens.back(), spec));
    }
  }
  std::vector<ResumedSegment> segments;
  for (std::size_t s = 0; s < lanes.size(); ++s) {
    segments.push_back(ResumedSegment{&goldens[s], seated[s]});
  }
  return BatchedArrestmentSystem(segments, origins.front()->now(), duration);
}

BatchedArrestmentSystem fresh_batch(const ArrestmentSystem& origin,
                                    const std::vector<BatchLaneSpec>& lanes,
                                    sim::SimTime duration) {
  return fresh_batch({&origin}, {lanes}, duration);
}

// --- Kernel-level trace identity -----------------------------------------

TEST(BatchKernel, ColdBatchRecordsBitIdenticalLaneTraces) {
  const TestCase test_case = grid_test_cases(1, 1)[0];
  const std::vector<fi::InjectionSpec> specs = {
      fi::InjectionSpec{bus_id("pulscnt"), 40 * sim::kMillisecond,
                        fi::bit_flip(3)},
      fi::InjectionSpec{bus_id("PACNT"), 40 * sim::kMillisecond,
                        fi::random_replacement()},
      fi::InjectionSpec{bus_id("SetValue"), 40 * sim::kMillisecond,
                        fi::bit_flip(12)},
  };
  std::vector<BatchLaneSpec> lanes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lanes.push_back(BatchLaneSpec{&specs[i], 900 + i});
  }

  const ArrestmentSystem origin(test_case);
  BatchedArrestmentSystem batch = fresh_batch(origin, lanes, kShortRun);
  batch.enable_recording(nullptr);
  const std::vector<fi::DivergenceReport> reports = batch.run();
  ASSERT_EQ(reports.size(), specs.size());

  RunOptions golden_options;
  golden_options.duration = kShortRun;
  const RunOutcome golden = run_arrestment(test_case, golden_options);
  EXPECT_TRUE(traces_identical(batch.take_golden_trace(), golden.trace));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunOptions options;
    options.duration = kShortRun;
    options.injection = specs[i];
    options.rng_seed = 900 + i;
    const RunOutcome scalar = run_arrestment(test_case, options);
    EXPECT_TRUE(traces_identical(batch.take_lane_trace(i), scalar.trace))
        << "lane " << i;
    EXPECT_TRUE(reports_identical(
        reports[i], fi::compare_to_golden(golden.trace, scalar.trace)))
        << "lane " << i;
  }
}

TEST(BatchKernel, WarmCheckpointBatchRecordsBitIdenticalLaneTraces) {
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config = short_config();
  config.test_case_count = 1;
  WarmStartEngine engine(cases, config, kShortRun);
  fi::RunRequest golden_request;  // captures the checkpoints
  const fi::TraceSet golden = engine.run(golden_request);

  const LaneState checkpoint = engine.origin(0, 50);

  const std::vector<fi::InjectionSpec> specs = {
      fi::InjectionSpec{bus_id("pulscnt"), 50 * sim::kMillisecond,
                        fi::bit_flip(3)},
      fi::InjectionSpec{bus_id("PACNT"), 50 * sim::kMillisecond,
                        fi::random_replacement()},
  };
  std::vector<InjectionLaneState> lanes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lanes.push_back(unfired_lane(checkpoint, BatchLaneSpec{&specs[i], 40 + i}));
  }
  const ResumedSegment segments[] = {ResumedSegment{&checkpoint, lanes}};
  BatchedArrestmentSystem batch(segments, 50 * sim::kMillisecond, kShortRun);
  batch.enable_recording(&golden);
  batch.run();

  EXPECT_TRUE(traces_identical(batch.take_golden_trace(), golden));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunOptions options;
    options.duration = kShortRun;
    options.injection = specs[i];
    options.rng_seed = 40 + i;
    EXPECT_TRUE(traces_identical(batch.take_lane_trace(i),
                                 run_arrestment(cases[0], options).trace))
        << "lane " << i;
  }
}

// --- Windows and lane transplant ----------------------------------------

::testing::AssertionResult lane_states_identical(const LaneState& a,
                                                 const LaneState& b) {
  if (a.bus != b.bus) return ::testing::AssertionFailure() << "bus row";
  const auto& x = a.env;
  const auto& y = b.env;
  if (x.mass_y != y.mass_y || x.mass_recip != y.mass_recip ||
      x.velocity != y.velocity || x.position != y.position ||
      x.pressure != y.pressure || x.pulse_accumulator != y.pulse_accumulator ||
      x.peak_decel != y.peak_decel) {
    return ::testing::AssertionFailure() << "environment";
  }
  if (a.dist_s.last_pacnt != b.dist_s.last_pacnt ||
      a.dist_s.no_pulse_ms != b.dist_s.no_pulse_ms) {
    return ::testing::AssertionFailure() << "DIST_S";
  }
  if (a.v_reg_integrator != b.v_reg_integrator) {
    return ::testing::AssertionFailure() << "V_REG";
  }
  if (a.calc.seg_start_pulses != b.calc.seg_start_pulses ||
      a.calc.seg_start_ms != b.calc.seg_start_ms ||
      a.calc.seg_start_velocity != b.calc.seg_start_velocity ||
      a.calc.seg_set_value != b.calc.seg_set_value ||
      a.calc.gain != b.calc.gain) {
    return ::testing::AssertionFailure() << "CALC";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult injection_states_identical(
    const InjectionLaneState& a, const InjectionLaneState& b) {
  if (auto machine = lane_states_identical(a.lane, b.lane); !machine) {
    return machine;
  }
  if (a.spec.spec != b.spec.spec || a.spec.rng_seed != b.spec.rng_seed) {
    return ::testing::AssertionFailure() << "spec";
  }
  if (a.pending != b.pending || a.conv_hint != b.conv_hint ||
      a.fired != b.fired) {
    return ::testing::AssertionFailure() << "tracking";
  }
  fi::DivergenceReport x;
  fi::DivergenceReport y;
  for (std::size_t s = 0; s < kLaneSignals; ++s) {
    x.per_signal.push_back(a.report[s].unpack());
    y.per_signal.push_back(b.report[s].unpack());
  }
  return reports_identical(x, y);
}

/// 64 lanes over two test cases: TIC1 and ADC errors settle quickly,
/// pulscnt and SetValue errors persist; every fifth lane fires at 40 ms,
/// long after the first window of a batch starting at t=0.
std::vector<fi::InjectionSpec> mixed_specs() {
  const char* const targets[] = {"TIC1", "pulscnt", "ADC", "SetValue"};
  std::vector<fi::InjectionSpec> specs;
  for (std::size_t i = 0; i < 64; ++i) {
    const sim::SimTime fire = i % 5 == 4 ? 40 * sim::kMillisecond : 0;
    specs.push_back(fi::InjectionSpec{
        bus_id(targets[i % 4]), fire,
        fi::bit_flip(static_cast<unsigned>(i % 16))});
  }
  return specs;
}

// Storing every lane of a batch and resuming them in a fresh batch loses
// nothing: the resumed batch stores back the same states, and both run on
// to bit-identical reports.
TEST(BatchKernel, TransplantRoundTripPreservesLaneState) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  const ArrestmentSystem origin0(cases[0]);
  const ArrestmentSystem origin1(cases[1]);
  const std::vector<fi::InjectionSpec> specs = mixed_specs();
  std::vector<std::vector<BatchLaneSpec>> lanes(2);
  for (std::size_t i = 0; i < 24; ++i) {
    lanes[i % 2].push_back(BatchLaneSpec{&specs[i], 300 + i});
  }
  BatchedArrestmentSystem source =
      fresh_batch({&origin0, &origin1}, lanes, kShortRun);
  // Past the 40 ms fire of the staggered lanes: fired and unfired lanes
  // were both stored at 30 ms in the second round below.
  for (const sim::SimTime stop :
       {30 * sim::kMillisecond, 120 * sim::kMillisecond}) {
    SCOPED_TRACE("stop=" + std::to_string(sim::to_milliseconds(stop)));
    source.advance(stop);
    ASSERT_EQ(source.now(), stop);
    const LaneState golden0 = source.store_golden(0);
    const LaneState golden1 = source.store_golden(1);
    std::vector<InjectionLaneState> stored0;
    std::vector<InjectionLaneState> stored1;
    for (std::size_t j = 0; j < 24; ++j) {
      (j < 12 ? stored0 : stored1).push_back(source.store_lane(j));
    }
    const std::vector<ResumedSegment> segments = {
        ResumedSegment{&golden0, stored0}, ResumedSegment{&golden1, stored1}};
    BatchedArrestmentSystem resumed(segments, stop, kShortRun);
    EXPECT_EQ(resumed.now(), stop);
    EXPECT_TRUE(lane_states_identical(resumed.store_golden(0), golden0));
    EXPECT_TRUE(lane_states_identical(resumed.store_golden(1), golden1));
    for (std::size_t j = 0; j < 24; ++j) {
      EXPECT_TRUE(injection_states_identical(
          resumed.store_lane(j), j < 12 ? stored0[j] : stored1[j - 12]))
          << "lane " << j;
    }

    BatchedArrestmentSystem whole =
        fresh_batch({&origin0, &origin1}, lanes, kShortRun);
    const std::vector<fi::DivergenceReport> expected = whole.run();
    const std::vector<fi::DivergenceReport> got = resumed.run();
    for (std::size_t j = 0; j < 24; ++j) {
      EXPECT_TRUE(reports_identical(got[j], expected[j])) << "lane " << j;
    }
  }
}

// A batch stopped after its first window, whose live lanes are then
// transplanted -- merged across two source batches with different lane
// sets -- into one resumed batch, yields reports bit-identical to one
// uninterrupted run: for every batch size, with lanes that fire after the
// first window, across two test-case segments.
TEST(BatchKernel, WindowedTransplantMatchesUninterruptedRun) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  const ArrestmentSystem origin0(cases[0]);
  const ArrestmentSystem origin1(cases[1]);
  const std::vector<const ArrestmentSystem*> origins = {&origin0, &origin1};
  const std::vector<fi::InjectionSpec> specs = mixed_specs();
  const sim::SimTime window_end =
      static_cast<sim::SimTime>(kConvergenceCheckPeriod) * sim::kMillisecond;

  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    // Two source batches over the same origins: lanes alternate between
    // them, each splitting its lanes across the two test cases.
    std::vector<std::vector<std::vector<BatchLaneSpec>>> lanes(
        2, std::vector<std::vector<BatchLaneSpec>>(2));
    for (std::size_t i = 0; i < batch_size; ++i) {
      lanes[i % 2][i < batch_size / 2 ? 0 : 1].push_back(
          BatchLaneSpec{&specs[i], 500 + i});
    }
    std::vector<std::unique_ptr<BatchedArrestmentSystem>> sources;
    std::vector<std::vector<fi::DivergenceReport>> expected;
    for (std::size_t b = 0; b < 2; ++b) {
      if (lanes[b][0].empty() && lanes[b][1].empty()) continue;
      BatchedArrestmentSystem whole = fresh_batch(origins, lanes[b], kShortRun);
      expected.push_back(whole.run());
      sources.push_back(std::unique_ptr<BatchedArrestmentSystem>(
          new BatchedArrestmentSystem(
              fresh_batch(origins, lanes[b], kShortRun))));
    }

    // First window, then every live lane of both sources into one batch.
    std::vector<InjectionLaneState> moved[2];
    std::vector<std::pair<std::size_t, std::size_t>> origin_of[2];
    std::optional<LaneState> goldens[2];
    std::size_t finals = 0;
    for (std::size_t b = 0; b < sources.size(); ++b) {
      BatchedArrestmentSystem& source = *sources[b];
      source.advance(window_end);
      EXPECT_LE(source.ticks_simulated(), kConvergenceCheckPeriod);
      std::size_t j = 0;
      for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t k = 0; k < lanes[b][s].size(); ++k, ++j) {
          SCOPED_TRACE("source " + std::to_string(b) + " lane " +
                       std::to_string(j));
          if (!source.lane_live(j)) {
            ++finals;
            EXPECT_TRUE(reports_identical(source.report(j), expected[b][j]));
            continue;
          }
          if (!goldens[s]) goldens[s] = source.store_golden(s);
          moved[s].push_back(source.store_lane(j));
          origin_of[s].emplace_back(b, j);
        }
      }
    }
    std::vector<ResumedSegment> segments;
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t s = 0; s < 2; ++s) {
      if (moved[s].empty()) continue;
      segments.push_back(ResumedSegment{&*goldens[s], moved[s]});
      order.insert(order.end(), origin_of[s].begin(), origin_of[s].end());
    }
    if (!segments.empty()) {
      BatchedArrestmentSystem merged(segments, window_end, kShortRun);
      const std::vector<fi::DivergenceReport> rest = merged.run();
      ASSERT_EQ(rest.size(), order.size());
      for (std::size_t k = 0; k < order.size(); ++k) {
        const auto [b, j] = order[k];
        EXPECT_TRUE(reports_identical(rest[k], expected[b][j]))
            << "source " << b << " lane " << j;
      }
    }
    if (batch_size >= 17) {
      // Not vacuous: both kinds occur, and the late lane (spec 4, firing
      // at 40 ms, in source 0) cannot be decided in a 16-tick window.
      EXPECT_GT(finals, 0u);
      EXPECT_LT(finals, batch_size);
      EXPECT_TRUE(sources[0]->lane_live(2));
    }
  }
}

// A window that reaches past the horizon stops there: every lane is
// final, and the reports equal an uninterrupted run's.
TEST(BatchKernel, WindowReachingTheHorizonFinalisesEveryLane) {
  const TestCase test_case = grid_test_cases(1, 1)[0];
  ArrestmentSystem origin(test_case);
  RunOptions golden;
  golden.duration = kShortRun;
  constexpr std::uint64_t kLeftTicks = kConvergenceCheckPeriod - 6;
  const sim::SimTime start =
      kShortRun - static_cast<sim::SimTime>(kLeftTicks) * sim::kMillisecond;
  while (origin.now() < start) origin.tick(golden);

  std::vector<fi::InjectionSpec> specs;
  for (const std::string_view target : {"TIC1", "pulscnt", "SetValue"}) {
    specs.push_back(fi::InjectionSpec{bus_id(target), start, fi::bit_flip(5)});
  }
  std::vector<BatchLaneSpec> lanes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lanes.push_back(BatchLaneSpec{&specs[i], 700 + i});
  }

  BatchedArrestmentSystem whole = fresh_batch(origin, lanes, kShortRun);
  const std::vector<fi::DivergenceReport> expected = whole.run();
  BatchedArrestmentSystem windowed = fresh_batch(origin, lanes, kShortRun);
  windowed.advance(start + static_cast<sim::SimTime>(kConvergenceCheckPeriod) *
                               sim::kMillisecond);
  EXPECT_EQ(windowed.ticks_simulated(), kLeftTicks);
  EXPECT_EQ(windowed.now(), kShortRun);
  for (std::size_t j = 0; j < specs.size(); ++j) {
    EXPECT_FALSE(windowed.lane_live(j)) << "lane " << j;
    EXPECT_TRUE(reports_identical(windowed.report(j), expected[j]))
        << "lane " << j;
  }
}

// --- Campaign-level record identity --------------------------------------

TEST(BatchCampaign, RecordsMatchScalarForEveryBatchSize) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = short_config();
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    config.batch_size = batch_size;
    const auto warm_stats = std::make_shared<WarmStartStats>();
    const auto stats = std::make_shared<BatchRunStats>();
    ChunkLog log;
    const fi::CampaignResult batched = fi::run_campaign(
        log.wrap(batched_campaign_runner(cases, config, kShortRun, warm_stats,
                                         stats)),
        config);

    // The batch path actually executed: one chunk per kBatchesPerChunk
    // batch widths of the plan, every lane reported final exactly once;
    // the live lanes (never-firing lanes sort last) packed into
    // ceil(live / width) first-window batches, and every compaction left
    // exactly ceil(live / width) batches at its tick. Every live lane is
    // counted once, from exactly one origin.
    const std::size_t total =
        config.injections.size() * config.test_case_count;
    EXPECT_EQ(log.chunks(),
              batches_for(total, batch_size * fi::kBatchesPerChunk));
    EXPECT_EQ(log.reported(), total);
    EXPECT_EQ(log.duplicates(), 0u);
    EXPECT_EQ(stats->batched_lanes.load() + stats->never_fire_lanes.load(),
              total);
    EXPECT_GT(stats->never_fire_lanes.load(), 0u);
    EXPECT_EQ(stats->batches.load(),
              batches_for(stats->batched_lanes.load(), batch_size));
    EXPECT_EQ(stats->compaction_surplus.load(), 0u);
    EXPECT_EQ(warm_stats->warm_runs.load() + warm_stats->cold_runs.load(),
              stats->batched_lanes.load());

    ASSERT_EQ(batched.goldens.size(), scalar.goldens.size());
    for (std::size_t tc = 0; tc < scalar.goldens.size(); ++tc) {
      EXPECT_TRUE(traces_identical(batched.goldens[tc], scalar.goldens[tc]));
    }
    ASSERT_EQ(batched.records.size(), scalar.records.size());
    for (std::size_t r = 0; r < scalar.records.size(); ++r) {
      SCOPED_TRACE("record " + std::to_string(r));
      EXPECT_EQ(batched.records[r].injection_index,
                scalar.records[r].injection_index);
      EXPECT_EQ(batched.records[r].test_case, scalar.records[r].test_case);
      EXPECT_EQ(batched.records[r].target, scalar.records[r].target);
      EXPECT_EQ(batched.records[r].when, scalar.records[r].when);
      EXPECT_TRUE(reports_identical(batched.records[r].report,
                                    scalar.records[r].report));
    }
  }
}

// Warm start is disabled by the plan itself: every injection fires at
// tick 0, which has no golden prefix to skip, so every batch starts from
// the engine's tick-0 states, those of fresh systems.
TEST(BatchCampaign, ColdBatchesMatchScalarWhenWarmStartDisabled) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0xC01D;
  config.batch_size = 4;
  for (const std::string_view target : {"pulscnt", "SetValue", "PACNT"}) {
    config.injections.push_back(
        fi::InjectionSpec{bus_id(target), 0, fi::bit_flip(2)});
    config.injections.push_back(
        fi::InjectionSpec{bus_id(target), 0, fi::random_replacement()});
  }
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);
  const auto warm_stats = std::make_shared<WarmStartStats>();
  const auto stats = std::make_shared<BatchRunStats>();
  ChunkLog log;
  const fi::CampaignResult batched = fi::run_campaign(
      log.wrap(batched_campaign_runner(cases, config, kShortRun, warm_stats,
                                       stats)),
      config);

  // 12 lanes / 4 per batch start in 3 batches of one chunk, all from t=0;
  // the lanes still live after the first window continue in compacted
  // batches.
  EXPECT_EQ(log.chunks(), 1u);
  EXPECT_EQ(stats->batches.load(), 3u);
  EXPECT_GT(stats->compactions.load(), 0u);
  EXPECT_EQ(stats->compaction_surplus.load(), 0u);
  EXPECT_EQ(warm_stats->cold_runs.load(), 12u);
  EXPECT_EQ(warm_stats->warm_runs.load(), 0u);
  EXPECT_EQ(warm_stats->saved_ms.load(), 0u);
  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

// --- Journal / CSV identity ----------------------------------------------

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;  // the campaign creates it
}

/// Journals `config` into `dir` through the store's campaign entry point,
/// against an empty baseline.
store::DeltaJournalSummary run_journal(
    const fi::CampaignRunner& runner, const fi::CampaignConfig& config,
    const fs::path& dir, const store::JournalRunOptions& options = {}) {
  const core::SystemModel model = make_arrestment_model();
  store::DeltaRunOptions delta;
  delta.base = options;
  return store::run_delta_journaled_campaign(
      runner, config, model, make_arrestment_binding(model), dir,
      store::ResultCache{}, delta);
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = make_arrestment_model();
  const fi::SignalBinding binding = make_arrestment_binding(model);
  std::ostringstream out;
  store::write_permeability_csv_from_journal(out, dir, model, binding);
  return out.str();
}

TEST(BatchJournal, CsvByteIdenticalToScalarForEveryBatchSize) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = short_config();

  const fs::path scalar_dir = fresh_dir("batch_csv_scalar");
  run_journal(campaign_runner(cases, kShortRun), config, scalar_dir);
  const std::string scalar_csv = journal_csv(scalar_dir);
  ASSERT_FALSE(scalar_csv.empty());

  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    config.batch_size = batch_size;
    const fs::path dir =
        fresh_dir("batch_csv_" + std::to_string(batch_size));
    run_journal(batched_campaign_runner(cases, config, kShortRun), config,
                dir);
    EXPECT_EQ(journal_csv(dir), scalar_csv);
  }
}

TEST(BatchJournal, MidBatchKillAndResumeUnderDifferentBatchSize) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = short_config();
  config.threads = 1;  // deterministic: first batch lands, second crashes
  config.batch_size = 4;

  const fs::path scalar_dir = fresh_dir("batch_resume_scalar");
  run_journal(campaign_runner(cases, kShortRun), config, scalar_dir);
  const std::string scalar_csv = journal_csv(scalar_dir);

  // "Kill" mid-campaign: the chunk's first five final lanes (the
  // never-firing ones among them) are journaled, the sixth throws. The
  // exception unwinds like a crash -- journaled records are durable,
  // in-flight runs are lost.
  const fs::path dir = fresh_dir("batch_resume_killed");
  const fi::CampaignRunner inner =
      batched_campaign_runner(cases, config, kShortRun);
  const fi::CampaignRunner crashing(
      inner.run, [&inner](const fi::BatchRunRequest& request) {
        fi::BatchRunRequest doomed = request;
        auto delivered = std::make_shared<std::size_t>(0);
        doomed.on_final = [&request, delivered](std::size_t i,
                                                fi::DivergenceReport report) {
          if (++*delivered > 5) throw std::runtime_error("simulated crash");
          request.on_final(i, std::move(report));
        };
        inner.batch(doomed);
      });
  EXPECT_THROW(run_journal(crashing, config, dir), std::runtime_error);
  const store::CampaignDirState partial = store::scan_campaign_dir(dir);
  const std::size_t total =
      config.injections.size() * config.test_case_count;
  EXPECT_EQ(partial.completed_count, 5u);
  EXPECT_LT(partial.completed_count, total);

  // Resume under a *different* batch size (the plan hash excludes it):
  // only the missing runs execute, regrouped into new batches.
  config.batch_size = 17;
  const store::DeltaJournalSummary resumed = run_journal(
      batched_campaign_runner(cases, config, kShortRun), config, dir);
  EXPECT_EQ(resumed.executed + resumed.skipped_completed, total);
  EXPECT_EQ(resumed.skipped_completed, partial.completed_count);

  EXPECT_EQ(journal_csv(dir), scalar_csv);
}

// --- Packed cross-test-case batches --------------------------------------

/// Sparse plan: one bit, many instants. Each (test case, fire tick) group
/// holds exactly one lane, so saturating a batch *requires* packing lanes
/// across test cases and fire ticks; a never-fire lane rides along and
/// must be peeled out of the packed batch.
fi::CampaignConfig sparse_plan_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0x5BA12;
  const fi::BusSignalId pulscnt = bus_id("pulscnt");
  for (sim::SimTime i = 0; i < 12; ++i) {
    config.injections.push_back(fi::InjectionSpec{
        pulscnt, (20 + 20 * i) * sim::kMillisecond, fi::bit_flip(3)});
  }
  config.injections.push_back(
      fi::InjectionSpec{bus_id("SetValue"), kShortRun, fi::bit_flip(1)});
  return config;
}

TEST(BatchKernel, PackedCrossCaseStaggeredBatchRecordsBitIdenticalTraces) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  // Segment 0 (test case 0) carries the first `in_case0` lanes, segment 1
  // (test case 1) the rest. Three lanes, one firing after the batch origin
  // (staggered activation); and 64 lanes, 66 bus lanes with the goldens,
  // past the golden gather's reach, so the per-segment screen runs on
  // every host.
  const std::vector<fi::InjectionSpec> three = {
      fi::InjectionSpec{bus_id("pulscnt"), 40 * sim::kMillisecond,
                        fi::bit_flip(3)},
      fi::InjectionSpec{bus_id("PACNT"), 90 * sim::kMillisecond,
                        fi::random_replacement()},
      fi::InjectionSpec{bus_id("SetValue"), 40 * sim::kMillisecond,
                        fi::bit_flip(12)},
  };
  const std::vector<fi::InjectionSpec> many = mixed_specs();
  const std::pair<const std::vector<fi::InjectionSpec>*, std::size_t>
      inputs[] = {{&three, 2}, {&many, 32}};

  RunOptions golden_options;
  golden_options.duration = kShortRun;
  const fi::TraceSet goldens[] = {
      run_arrestment(cases[0], golden_options).trace,
      run_arrestment(cases[1], golden_options).trace};
  const ArrestmentSystem origin0(cases[0]);
  const ArrestmentSystem origin1(cases[1]);
  for (const auto& [specs, in_case0] : inputs) {
    SCOPED_TRACE("lanes=" + std::to_string(specs->size()));
    std::vector<std::vector<BatchLaneSpec>> lanes(2);
    for (std::size_t i = 0; i < specs->size(); ++i) {
      lanes[i < in_case0 ? 0 : 1].push_back(
          BatchLaneSpec{&(*specs)[i], 11 + i});
    }
    BatchedArrestmentSystem batch =
        fresh_batch({&origin0, &origin1}, lanes, kShortRun);
    const fi::TraceSet* prefixes[] = {nullptr, nullptr};
    batch.enable_recording(std::span<const fi::TraceSet* const>(prefixes, 2));
    const std::vector<fi::DivergenceReport> reports = batch.run();
    ASSERT_EQ(reports.size(), specs->size());

    for (std::size_t tc = 0; tc < cases.size(); ++tc) {
      EXPECT_TRUE(traces_identical(batch.take_golden_trace(tc), goldens[tc]))
          << "golden " << tc;
    }
    for (std::size_t i = 0; i < specs->size(); ++i) {
      const std::size_t tc = i < in_case0 ? 0 : 1;
      RunOptions options;
      options.duration = kShortRun;
      options.injection = (*specs)[i];
      options.rng_seed = 11 + i;
      const RunOutcome scalar = run_arrestment(cases[tc], options);
      EXPECT_TRUE(traces_identical(batch.take_lane_trace(i), scalar.trace))
          << "lane " << i;
      EXPECT_TRUE(reports_identical(
          reports[i], fi::compare_to_golden(goldens[tc], scalar.trace)))
          << "lane " << i;
    }
  }
}

TEST(BatchKernel, ZeroLaneSegmentCoexistsWithPackedLanes) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  const std::vector<fi::InjectionSpec> specs = {
      fi::InjectionSpec{bus_id("pulscnt"), 40 * sim::kMillisecond,
                        fi::bit_flip(3)},
  };
  const std::vector<BatchLaneSpec> lanes1 = {BatchLaneSpec{&specs[0], 21}};
  const ArrestmentSystem origin0(cases[0]);
  const ArrestmentSystem origin1(cases[1]);
  // Segment 0 contributes only its golden lane (count == 0); the screen
  // and the convergence scan must skip it without touching its bit range.
  BatchedArrestmentSystem batch =
      fresh_batch({&origin0, &origin1}, {{}, lanes1}, kShortRun);
  const fi::TraceSet* prefixes[] = {nullptr, nullptr};
  batch.enable_recording(std::span<const fi::TraceSet* const>(prefixes, 2));
  const std::vector<fi::DivergenceReport> reports = batch.run();
  ASSERT_EQ(reports.size(), 1u);

  RunOptions golden_options;
  golden_options.duration = kShortRun;
  for (std::size_t tc = 0; tc < cases.size(); ++tc) {
    EXPECT_TRUE(
        traces_identical(batch.take_golden_trace(tc),
                         run_arrestment(cases[tc], golden_options).trace))
        << "golden " << tc;
  }
  RunOptions options;
  options.duration = kShortRun;
  options.injection = specs[0];
  options.rng_seed = 21;
  EXPECT_TRUE(traces_identical(batch.take_lane_trace(0),
                               run_arrestment(cases[1], options).trace));
}

TEST(BatchCampaign, SparsePlanPacksAcrossTestCasesAndFireTicks) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = sparse_plan_config();
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  config.batch_size = 32;
  const auto stats = std::make_shared<BatchRunStats>();
  ChunkLog log;
  const fi::CampaignResult batched = fi::run_campaign(
      log.wrap(
          batched_campaign_runner(cases, config, kShortRun, nullptr, stats)),
      config);

  // 24 single-lane (test case, fire tick) groups plus 2 never-fire lanes
  // form ONE chunk whose live lanes pack into ONE first-window batch; the
  // never-fire lanes are peeled before simulation. Its survivors, of any
  // fire tick and test case, never need more than one batch either.
  EXPECT_EQ(log.chunks(), 1u);
  EXPECT_EQ(stats->batches.load(), 1u);
  EXPECT_GT(stats->compactions.load(), 0u);
  EXPECT_EQ(stats->compacted_batches.load(), stats->compactions.load());
  EXPECT_EQ(stats->compaction_surplus.load(), 0u);
  EXPECT_EQ(stats->batched_lanes.load(), 24u);
  EXPECT_EQ(stats->never_fire_lanes.load(), 2u);

  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

// Windows and compaction on a plan that splits cleanly: TIC1 bit flips
// are masked within the first window in every run, pulscnt bit flips
// persist to the horizon in every run. First-window batches mix the two;
// the compaction after it must carry exactly the pulscnt lanes on, densely
// packed, so the kernel sweeps the rest of the run only for them.
TEST(BatchCampaign, CompactionCarriesOnlyLiveLanes) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0x5E77;
  config.batch_size = 16;
  const fi::BusSignalId tic1 = bus_id("TIC1");
  const fi::BusSignalId pulscnt = bus_id("pulscnt");
  for (unsigned bit = 0; bit < 16; ++bit) {
    config.injections.push_back(
        fi::InjectionSpec{tic1, 50 * sim::kMillisecond, fi::bit_flip(bit)});
    config.injections.push_back(fi::InjectionSpec{
        pulscnt, 50 * sim::kMillisecond, fi::bit_flip(bit)});
  }
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  obs::MetricsRegistry metrics;
  const obs::Telemetry telemetry{&metrics, nullptr, nullptr};
  const auto stats = std::make_shared<BatchRunStats>();
  ChunkLog log;
  const fi::CampaignResult batched = fi::run_campaign(
      log.wrap(batched_campaign_runner(cases, config, kShortRun, nullptr,
                                       stats, &telemetry)),
      config);

  // One chunk: 64 lanes start in 4 batches of 16 (8 TIC1 + 8 pulscnt
  // each). The 32 TIC1 lanes retire in the first window; the compaction at
  // its end (66 ms) moves the 32 pulscnt lanes into 2 full batches, which
  // the window boundary at 256 ms keeps as they are.
  EXPECT_EQ(log.chunks(), 1u);
  EXPECT_EQ(stats->batches.load(), 4u);
  EXPECT_EQ(stats->batched_lanes.load(), 64u);
  EXPECT_EQ(stats->retired_converged.load() +
                stats->retired_exhausted.load(),
            32u);
  EXPECT_EQ(stats->compactions.load(), 2u);
  EXPECT_EQ(stats->compacted_lanes.load(), 64u);
  EXPECT_EQ(stats->compacted_batches.load(), 4u);
  EXPECT_EQ(stats->compaction_surplus.load(), 0u);
  // Kernel ticks: 4 first windows of 16 ticks, then the 2 compacted
  // batches from 66 ms to the 300 ms horizon.
  const std::uint64_t first_window_end = 50 + kConvergenceCheckPeriod;
  EXPECT_EQ(metrics.counter("batch.kernel.ticks").value(),
            4u * kConvergenceCheckPeriod + 2u * (300u - first_window_end));
  EXPECT_EQ(metrics.histogram("batch.group.lanes", {}).count(), 6u);

  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

// Any compaction window yields the records of the scalar path: one tick
// (a compaction after every tick), the campaign's own, and windows at and
// far beyond the horizon (the first window's survivors run straight to
// the end).
TEST(BatchCampaign, RecordsMatchScalarForEveryWindow) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = short_config();
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);
  const std::uint64_t horizon_ms = sim::to_milliseconds(kShortRun);

  for (const std::uint64_t window :
       {std::uint64_t{1}, std::uint64_t{7}, kCompactionWindowMs, horizon_ms,
        10 * horizon_ms}) {
    for (const std::size_t batch_size : kBatchSizes) {
      SCOPED_TRACE("window=" + std::to_string(window) +
                   " batch_size=" + std::to_string(batch_size));
      config.batch_size = batch_size;
      const auto stats = std::make_shared<BatchRunStats>();
      const fi::CampaignResult batched = fi::run_campaign(
          batched_campaign_runner_with_window(window, cases, config,
                                              kShortRun, nullptr, stats,
                                              nullptr),
          config);
      EXPECT_EQ(stats->compaction_surplus.load(), 0u);
      ASSERT_EQ(batched.records.size(), scalar.records.size());
      for (std::size_t r = 0; r < scalar.records.size(); ++r) {
        EXPECT_TRUE(reports_identical(batched.records[r].report,
                                      scalar.records[r].report))
            << "record " << r;
      }
    }
  }
}

// Lanes that retire at rest (batch_system.hpp) keep the cold oracle's
// records, over the paper's 25 test cases and the full horizon, for a
// compaction after every tick, the campaign's window and one window past
// the horizon. The plan fires late: every target at bits 0, 7 and 15 at
// 4,500 and 5,000 ms, while most aircraft still move and rest comes
// later. Test case 0 comes to rest at 4,969 ms with the brake pressure
// still decaying: a tick-start flip of TOC2's bit 5 there kicks the
// pressure by less than one ADC step and PRES_A restores TOC2 within the
// tick, so the lane differs from its golden lane in pressure alone until
// ADC diverges later.
TEST(BatchCampaign, LanesRetiredAtRestMatchTheColdOracle) {
  const std::vector<TestCase> cases = paper_test_cases();
  fi::CampaignConfig config;
  config.test_case_count = static_cast<std::uint32_t>(cases.size());
  config.seed = 0x4E57;
  config.batch_size = 64;
  for (const fi::BusSignalId target : injection_target_bus_ids()) {
    for (const unsigned bit : {0u, 7u, 15u}) {
      for (const std::uint64_t when_ms : {4500u, 5000u}) {
        config.injections.push_back(fi::InjectionSpec{
            target, static_cast<sim::SimTime>(when_ms) * sim::kMillisecond,
            fi::bit_flip(bit)});
      }
    }
  }
  for (std::uint64_t when_ms = 4980; when_ms <= 5100; when_ms += 10) {
    config.injections.push_back(fi::InjectionSpec{
        bus_id("TOC2"), static_cast<sim::SimTime>(when_ms) * sim::kMillisecond,
        fi::bit_flip(5)});
  }
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases), config);

  for (const std::uint64_t window :
       {std::uint64_t{1}, kCompactionWindowMs,
        2 * sim::to_milliseconds(kRunDuration)}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    const auto stats = std::make_shared<BatchRunStats>();
    const fi::CampaignResult batched = fi::run_campaign(
        batched_campaign_runner_with_window(window, cases, config,
                                            kRunDuration, nullptr, stats,
                                            nullptr),
        config);
    EXPECT_GT(stats->retired_at_rest.load(), 0u);
    ASSERT_EQ(batched.records.size(), scalar.records.size());
    for (std::size_t r = 0; r < scalar.records.size(); ++r) {
      EXPECT_TRUE(reports_identical(batched.records[r].report,
                                    scalar.records[r].report))
          << "record " << r;
    }
  }
}

// A lane may not retire at rest at the end of the tick its injection fired
// in: a read-site flip of PACNT lands after DIST_S saw no pulse, so the
// lane still looks at rest then and leaves rest on the next tick. A batch
// started from the golden run at 13,000 ms, with the aircraft at rest,
// runs its first convergence check at the end of 13,015 ms, the tick these
// lanes fire in; their reports must equal the cold oracle's.
TEST(BatchKernel, LaneAtRestWaitsOutTheTickItsInjectionFiredIn) {
  const TestCase test_case = paper_test_cases()[0];
  const sim::SimTime start = 13000 * sim::kMillisecond;
  ArrestmentSystem origin(test_case);
  while (origin.now() < start) origin.tick(RunOptions{});
  const sim::SimTime fire =
      start +
      static_cast<sim::SimTime>(kConvergenceCheckPeriod - 1) * sim::kMillisecond;
  std::vector<fi::InjectionSpec> specs;
  for (const std::string_view target : {"PACNT", "stopped"}) {
    for (const unsigned bit : {0u, 7u}) {
      specs.push_back(fi::InjectionSpec{bus_id(target), fire,
                                        fi::bit_flip(bit),
                                        fi::InjectionPhase::kPreBackground});
    }
  }
  std::vector<BatchLaneSpec> lanes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lanes.push_back(BatchLaneSpec{&specs[i], 1100 + i});
  }
  BatchedArrestmentSystem batch = fresh_batch(origin, lanes, kRunDuration);
  const std::vector<fi::DivergenceReport> reports = batch.run();

  const RunOutcome golden = run_arrestment(test_case);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunOptions options;
    options.injection = specs[i];
    options.rng_seed = 1100 + i;
    const RunOutcome scalar = run_arrestment(test_case, options);
    EXPECT_TRUE(reports_identical(
        reports[i], fi::compare_to_golden(golden.trace, scalar.trace)))
        << "lane " << i;
  }
}

TEST(BatchCampaign, NeverFirePlanAnswersWithoutSimulation) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0xF1FE;
  config.injections = {
      fi::InjectionSpec{bus_id("pulscnt"), kShortRun, fi::bit_flip(3)},
      fi::InjectionSpec{bus_id("SetValue"),
                        kShortRun + 5 * sim::kMillisecond, fi::bit_flip(1)},
  };
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  const auto stats = std::make_shared<BatchRunStats>();
  const fi::CampaignResult batched = fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun, nullptr, stats),
      config);

  EXPECT_EQ(stats->batches.load(), 0u);
  EXPECT_EQ(stats->batched_lanes.load(), 0u);
  EXPECT_EQ(stats->never_fire_lanes.load(), 4u);
  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

TEST(BatchJournal, SparsePackedPlanCsvByteIdenticalToScalar) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = sparse_plan_config();

  const fs::path scalar_dir = fresh_dir("batch_sparse_scalar");
  run_journal(campaign_runner(cases, kShortRun), config, scalar_dir);
  const std::string scalar_csv = journal_csv(scalar_dir);
  ASSERT_FALSE(scalar_csv.empty());

  for (const std::size_t batch_size : {std::size_t{5}, std::size_t{32}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    config.batch_size = batch_size;
    const fs::path dir =
        fresh_dir("batch_sparse_" + std::to_string(batch_size));
    run_journal(batched_campaign_runner(cases, config, kShortRun), config,
                dir);
    EXPECT_EQ(journal_csv(dir), scalar_csv);
  }
}

TEST(BatchJournal, ThreadedAutoShardedJournalCsvByteIdenticalToScalar) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = sparse_plan_config();

  const fs::path scalar_dir = fresh_dir("batch_mt_scalar");
  run_journal(campaign_runner(cases, kShortRun), config, scalar_dir);
  const std::string scalar_csv = journal_csv(scalar_dir);

  // Four worker threads, several batches each; shard_count 0 auto-scales
  // to one journal shard per worker, so appends run without contention.
  // CSVs are pure functions of journal *content*: any thread interleaving
  // and shard layout must merge to the same bytes.
  config.threads = 4;
  config.batch_size = 4;
  store::JournalRunOptions options;
  options.shard_count = 0;
  const fs::path dir = fresh_dir("batch_mt_sharded");
  const store::DeltaJournalSummary summary = run_journal(
      batched_campaign_runner(cases, config, kShortRun), config, dir,
      options);
  EXPECT_EQ(summary.executed,
            config.injections.size() * config.test_case_count);
  EXPECT_EQ(journal_csv(dir), scalar_csv);
}

TEST(BatchJournal, ResumeOfCompleteJournalPlansNoBatches) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = sparse_plan_config();
  config.batch_size = 8;

  const fs::path dir = fresh_dir("batch_resume_complete");
  run_journal(batched_campaign_runner(cases, config, kShortRun), config,
              dir);
  const std::string csv = journal_csv(dir);

  // Every run is journaled: the planner sees zero missing lanes and the
  // batch path must cope with an entirely empty plan.
  const auto stats = std::make_shared<BatchRunStats>();
  const store::DeltaJournalSummary resumed = run_journal(
      batched_campaign_runner(cases, config, kShortRun, nullptr, stats),
      config, dir);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.skipped_completed,
            config.injections.size() * config.test_case_count);
  EXPECT_EQ(stats->batches.load(), 0u);
  EXPECT_EQ(journal_csv(dir), csv);
}

// --- Batch width contract ------------------------------------------------

TEST(BatchJournal, BatchWiderThanOneLaneWordIsRejected) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = short_config();
  config.batch_size = kMaxBatchLanes + 1;

  const fs::path dir = fresh_dir("batch_too_wide");
  EXPECT_THROW(run_journal(batched_campaign_runner(cases, config, kShortRun),
                           config, dir),
               ContractViolation);
  EXPECT_EQ(store::scan_campaign_dir(dir).completed_count, 0u);
}

TEST(BatchKernel, BatchWiderThanOneLaneWordIsRejected) {
  const TestCase test_case = grid_test_cases(1, 1)[0];
  const fi::InjectionSpec spec{bus_id("pulscnt"), 40 * sim::kMillisecond,
                               fi::bit_flip(3)};
  std::vector<BatchLaneSpec> lanes(kMaxBatchLanes + 1,
                                   BatchLaneSpec{&spec, 7});
  const ArrestmentSystem origin(test_case);
  EXPECT_THROW(fresh_batch(origin, lanes, kShortRun), ContractViolation);
  // One lane fewer fills the lane word exactly.
  lanes.pop_back();
  BatchedArrestmentSystem batch = fresh_batch(origin, lanes, kShortRun);
  EXPECT_EQ(batch.run().size(), kMaxBatchLanes);
}

// --- Delta campaigns through the batch planner ---------------------------

TEST(BatchDelta, InvalidatedRunsExecuteThroughPackedBatches) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0xDE17A;
  // Two target families: SetValue feeds V_REG directly (invalidated by a
  // V_REG version bump), pulscnt does not (replayed from the baseline).
  for (sim::SimTime i = 0; i < 6; ++i) {
    config.injections.push_back(fi::InjectionSpec{
        bus_id("pulscnt"), (20 + 20 * i) * sim::kMillisecond,
        fi::bit_flip(3)});
    config.injections.push_back(fi::InjectionSpec{
        bus_id("SetValue"), (30 + 20 * i) * sim::kMillisecond,
        fi::bit_flip(9)});
  }
  config.batch_size = 8;
  const core::SystemModel model = make_arrestment_model();
  const fi::SignalBinding binding = make_arrestment_binding(model);

  store::DeltaRunOptions options;
  options.module_versions = module_version_tokens();
  const fs::path base_dir = fresh_dir("batch_delta_base");
  store::run_delta_journaled_campaign(
      batched_campaign_runner(cases, config, kShortRun), config, model,
      binding, base_dir, store::ResultCache{}, options);
  const std::string cold_csv = journal_csv(base_dir);
  ASSERT_FALSE(cold_csv.empty());

  // Bump V_REG: its consumers' runs re-execute -- through the batch
  // planner, packed across test cases and fire ticks -- while the rest
  // replay from the baseline. The merged journal must be byte-identical.
  store::DeltaRunOptions changed;
  changed.module_versions =
      module_version_tokens({{"V_REG", 0x5EED5EED5EED5EEDULL}});
  const auto stats = std::make_shared<BatchRunStats>();
  ChunkLog log;
  const fs::path delta_dir = fresh_dir("batch_delta_out");
  const store::DeltaJournalSummary summary =
      store::run_delta_journaled_campaign(
          log.wrap(batched_campaign_runner(cases, config, kShortRun, nullptr,
                                           stats)),
          config, model, binding, delta_dir,
          store::ResultCache::load(base_dir), changed);

  EXPECT_EQ(summary.executed, 12u);  // 6 SetValue instants x 2 test cases
  EXPECT_EQ(summary.replayed, 12u);
  // Packing proof: 12 single-lane (test case, fire tick) groups start in
  // ceil(12 / 8) = 2 batches, not 12, and every compaction of their
  // survivors is dense.
  EXPECT_EQ(log.chunks(), 1u);
  EXPECT_EQ(stats->batches.load(), 2u);
  EXPECT_EQ(stats->compaction_surplus.load(), 0u);
  EXPECT_EQ(stats->batched_lanes.load(), 12u);
  EXPECT_EQ(journal_csv(delta_dir), cold_csv);
}

}  // namespace
}  // namespace propane::arr
