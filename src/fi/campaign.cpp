#include "fi/campaign.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/clock.hpp"
#include "obs/telemetry.hpp"

namespace propane::fi {

std::optional<BusSignalId> CampaignResult::find_signal(
    std::string_view name) const {
  if (signal_index_.size() == signal_names.size()) {
    const auto it = signal_index_.find(name);
    if (it == signal_index_.end()) return std::nullopt;
    return it->second;
  }
  // Stale or absent index (hand-built result): linear fallback.
  for (std::size_t i = 0; i < signal_names.size(); ++i) {
    if (signal_names[i] == name) return static_cast<BusSignalId>(i);
  }
  return std::nullopt;
}

void CampaignResult::rebuild_signal_index() {
  signal_index_.clear();
  signal_index_.reserve(signal_names.size());
  for (std::size_t i = 0; i < signal_names.size(); ++i) {
    signal_index_.emplace(signal_names[i], static_cast<BusSignalId>(i));
  }
}

namespace {

std::uint64_t derive_seed(const CampaignConfig& config, std::uint64_t kind,
                          std::uint64_t index) {
  std::uint64_t s = config.seed ^ (kind * 0xD1B54A32D192ED03ULL) ^
                    (index * 0x9E3779B97F4A7C15ULL);
  return splitmix64(s);
}

}  // namespace

std::uint64_t golden_run_seed(const CampaignConfig& config,
                              std::uint32_t test_case) {
  return derive_seed(config, 0, test_case);
}

std::uint64_t injection_run_seed(const CampaignConfig& config,
                                 std::size_t flat) {
  return derive_seed(config, 1, flat);
}

/// Telemetry handles, resolved once at construction; all null when
/// telemetry is off, so the per-run overhead collapses to a few predictable
/// branches.
struct CampaignExecutor::Instruments {
  obs::Counter* golden_runs = nullptr;
  obs::Counter* injection_runs = nullptr;
  obs::Counter* skipped_runs = nullptr;
  obs::Counter* diverged_runs = nullptr;
  obs::Counter* diverged_signals = nullptr;
  obs::Histogram* run_latency = nullptr;    // golden runs
  obs::Histogram* batch_latency = nullptr;  // injection batches
  bool timed = false;
};

/// One executed chunk (or scalar batch) as campaign.batch.done reports it:
/// its shape (the earliest fire tick, the distinct test cases, the lane
/// count), its measured wall time, and how many of its lanes reached a
/// final record and how many of those diverged.
struct CampaignExecutor::BatchDone {
  const char* phase = "";
  std::uint64_t fire_ms = ~std::uint64_t{0};
  std::set<std::uint32_t> test_cases;
  std::size_t lanes = 0;
  std::size_t settled = 0;
  std::size_t diverged = 0;
  std::uint64_t dur_us = 0;

  void add_lane(const InjectionSpec& spec, std::uint32_t test_case) {
    fire_ms = std::min(fire_ms, injection_fire_ms(spec.when));
    test_cases.insert(test_case);
    ++lanes;
  }
  void add_final(const DivergenceReport& report) {
    ++settled;
    if (report.any_divergence()) ++diverged;
  }
};

CampaignExecutor::CampaignExecutor(CampaignRunner runner,
                                   CampaignConfig config,
                                   CampaignHooks hooks)
    : runner_(std::move(runner)),
      config_(std::move(config)),
      hooks_(std::move(hooks)) {
  PROPANE_REQUIRE(runner_.run != nullptr);
  PROPANE_REQUIRE(config_.test_case_count > 0);
  total_ = static_cast<std::size_t>(config_.test_case_count) *
           config_.injections.size();

  result_.goldens.resize(config_.test_case_count);
  // One model-name string per planned injection; records refer to it by
  // index instead of each carrying a copy.
  result_.injection_model_names.reserve(config_.injections.size());
  for (const InjectionSpec& spec : config_.injections) {
    result_.injection_model_names.push_back(spec.model.name);
  }
  if (hooks_.collect_records) result_.records.resize(total_);

  const obs::Telemetry* telemetry = hooks_.telemetry;
  instruments_ = std::make_unique<Instruments>();
  instruments_->golden_runs =
      obs::find_counter(telemetry, "campaign.runs.golden");
  instruments_->injection_runs =
      obs::find_counter(telemetry, "campaign.runs.injection");
  instruments_->skipped_runs =
      obs::find_counter(telemetry, "campaign.runs.skipped");
  instruments_->diverged_runs =
      obs::find_counter(telemetry, "campaign.runs.diverged");
  instruments_->diverged_signals =
      obs::find_counter(telemetry, "campaign.divergence.signals");
  instruments_->run_latency =
      obs::find_histogram(telemetry, "campaign.run.latency_us",
                          obs::one_two_five_bounds(1, 1e8));
  instruments_->batch_latency =
      obs::find_histogram(telemetry, "campaign.batch.latency_us",
                          obs::one_two_five_bounds(1, 1e8));
  instruments_->timed =
      instruments_->run_latency != nullptr ||
      (telemetry != nullptr && telemetry->events != nullptr);

  campaign_span_ = std::make_unique<obs::Span>(telemetry, "campaign");
  pool_ = std::make_unique<ThreadPool>(config_.threads, telemetry);

  // Golden runs execute up front: every injection range compares against
  // them, whichever scheduler hands the ranges out.
  const bool timed = instruments_->timed;
  {
    obs::Span golden_phase(telemetry, "campaign.golden_phase");
    pool_->parallel_for(0, config_.test_case_count, [&](std::size_t tc) {
      obs::emit_event(telemetry, "campaign.run.start",
                      {{"kind", obs::Value("golden")},
                       {"test_case", obs::Value(tc)}});
      const std::uint64_t start_us = timed ? obs::steady_now_us() : 0;
      RunRequest request;
      request.test_case = static_cast<std::uint32_t>(tc);
      request.rng_seed =
          golden_run_seed(config_, static_cast<std::uint32_t>(tc));
      result_.goldens[tc] = runner_.run(request);
      const std::uint64_t dur_us =
          timed ? obs::steady_now_us() - start_us : 0;
      if (instruments_->golden_runs != nullptr) {
        instruments_->golden_runs->add(1);
      }
      if (instruments_->run_latency != nullptr) {
        instruments_->run_latency->observe(static_cast<double>(dur_us));
      }
      obs::emit_event(
          telemetry, "golden.done",
          {{"test_case", obs::Value(tc)},
           {"samples", obs::Value(result_.goldens[tc].sample_count())},
           {"dur_us", obs::Value(dur_us)}});
      obs::emit_event(telemetry, "campaign.run.end",
                      {{"kind", obs::Value("golden")},
                       {"test_case", obs::Value(tc)},
                       {"dur_us", obs::Value(dur_us)}});
    });
  }

  for (const TraceSet& golden : result_.goldens) {
    PROPANE_CHECK_MSG(golden.sample_count() > 0,
                      "golden run produced an empty trace");
  }
  // All runs cover the same signal set; capture the names once.
  result_.signal_names.reserve(result_.goldens.front().signal_count());
  for (BusSignalId s = 0; s < result_.goldens.front().signal_count(); ++s) {
    result_.signal_names.push_back(result_.goldens.front().signal_name(s));
  }
  result_.rebuild_signal_index();
}

CampaignExecutor::~CampaignExecutor() = default;

void CampaignExecutor::execute_range(RunRange range) {
  range.end = std::min(range.end, total_);
  range.begin = std::min(range.begin, range.end);
  if (range.empty()) return;
  if (runner_.batch != nullptr) {
    execute_range_batched(range);
  } else {
    execute_range_scalar(range);
  }
}

InjectionRecord CampaignExecutor::make_record_identity(
    std::size_t flat) const {
  const std::size_t inj = flat / config_.test_case_count;
  const std::size_t tc = flat % config_.test_case_count;
  InjectionRecord record;
  record.injection_index = static_cast<std::uint32_t>(inj);
  record.test_case = static_cast<std::uint32_t>(tc);
  record.target = config_.injections[inj].target;
  record.when = config_.injections[inj].when;
  return record;
}

bool CampaignExecutor::should_execute(std::size_t flat) {
  const auto inj = static_cast<std::uint32_t>(flat / config_.test_case_count);
  const auto tc = static_cast<std::uint32_t>(flat % config_.test_case_count);
  if (!hooks_.should_run || hooks_.should_run(inj, tc)) return true;
  if (instruments_->skipped_runs != nullptr) {
    instruments_->skipped_runs->add(1);
  }
  // Skipped runs keep their identity fields but an empty report; callers
  // resuming from a journal overwrite them with the stored records.
  if (hooks_.collect_records) {
    result_.records[flat] = make_record_identity(flat);
  }
  return false;
}

void CampaignExecutor::finish_record(std::size_t flat,
                                     InjectionRecord record) {
  const std::size_t divergences = record.report.divergence_count();
  if (instruments_->injection_runs != nullptr) {
    instruments_->injection_runs->add(1);
  }
  if (divergences > 0) {
    if (instruments_->diverged_runs != nullptr) {
      instruments_->diverged_runs->add(1);
    }
    if (instruments_->diverged_signals != nullptr) {
      instruments_->diverged_signals->add(divergences);
    }
  }
  if (hooks_.on_record) hooks_.on_record(record);
  if (hooks_.collect_records) result_.records[flat] = std::move(record);
}

void CampaignExecutor::report_batch(const BatchDone& batch) const {
  if (instruments_->batch_latency != nullptr) {
    instruments_->batch_latency->observe(static_cast<double>(batch.dur_us));
  }
  obs::emit_event(hooks_.telemetry, "campaign.batch.done",
                  {{"fire_ms", obs::Value(batch.fire_ms)},
                   {"test_cases", obs::Value(batch.test_cases.size())},
                   {"lanes", obs::Value(batch.lanes)},
                   {"dur_us", obs::Value(batch.dur_us)},
                   {"phase", obs::Value(batch.phase)},
                   {"settled", obs::Value(batch.settled)},
                   {"diverged", obs::Value(batch.diverged)}});
}

std::size_t CampaignExecutor::lanes_per_batch() const {
  return config_.batch_size > 0 ? config_.batch_size : kDefaultBatchSize;
}

void CampaignExecutor::execute_range_scalar(RunRange range) {
  const bool timed = instruments_->timed;
  const std::size_t width = lanes_per_batch();

  // Injection runs, injection-major, in chunks of one batch width -- the
  // unit telemetry accounts for, one campaign.batch.done per chunk. Each
  // record is finished as soon as its run is, so a crash loses only the
  // run in flight. The per-run seed depends only on (config.seed, flat
  // index), never on which runs the hooks filter out or how the plan was
  // cut into ranges, so a resumed, process-split or lease-dispatched
  // campaign reproduces the exact runs an uninterrupted single-process one
  // would have performed.
  obs::Span injection_phase(hooks_.telemetry, "campaign.injection_phase");
  const std::size_t chunks = (range.size() + width - 1) / width;
  pool_->parallel_for(0, chunks, [&](std::size_t chunk) {
    const std::size_t begin = range.begin + chunk * width;
    const std::size_t end = std::min(range.end, begin + width);
    BatchDone done;
    done.phase = "scalar";
    const std::uint64_t start_us = timed ? obs::steady_now_us() : 0;
    for (std::size_t flat = begin; flat < end; ++flat) {
      if (!should_execute(flat)) continue;
      InjectionRecord record = make_record_identity(flat);
      RunRequest request;
      request.test_case = record.test_case;
      request.injection = config_.injections[record.injection_index];
      request.rng_seed = injection_run_seed(config_, flat);
      record.report = compare_to_golden(result_.goldens[record.test_case],
                                        runner_.run(request));
      done.add_lane(*request.injection, record.test_case);
      done.add_final(record.report);
      finish_record(flat, std::move(record));
    }
    if (done.lanes == 0) return;
    done.dur_us = timed ? obs::steady_now_us() - start_us : 0;
    report_batch(done);
  });
}

std::vector<BatchRunRequest> CampaignExecutor::plan_chunks(RunRange range) {
  // Walk the range in flat order, filter through should_run (exactly like
  // the scalar path -- skipped runs never reach a batch) and order the
  // survivors by (fire tick, test case). Batches freely mix test cases
  // (the runner gives each test case its own golden lane) and fire ticks
  // (later-firing lanes ride along from the earliest fire tick and
  // activate when their tick arrives), so thin groups -- sparse plans,
  // delta-invalidated subsets, range tails -- still fill the SoA kernel.
  std::map<std::pair<std::uint64_t, std::uint32_t>,
           std::vector<BatchLaneRequest>>
      groups;
  for (std::size_t flat = range.begin; flat < range.end; ++flat) {
    if (!should_execute(flat)) continue;
    const std::size_t inj = flat / config_.test_case_count;
    const std::size_t tc = flat % config_.test_case_count;
    const InjectionSpec& spec = config_.injections[inj];
    BatchLaneRequest lane;
    lane.flat = flat;
    lane.injection_index = static_cast<std::uint32_t>(inj);
    lane.test_case = static_cast<std::uint32_t>(tc);
    lane.rng_seed = injection_run_seed(config_, flat);
    lane.spec = &spec;
    groups[{injection_fire_ms(spec.when), static_cast<std::uint32_t>(tc)}]
        .push_back(lane);
  }
  const std::size_t width = lanes_per_batch();
  const std::size_t chunk_lanes = width * kBatchesPerChunk;
  std::vector<BatchRunRequest> chunks;
  for (const auto& [key, lanes] : groups) {
    for (const BatchLaneRequest& lane : lanes) {
      if (chunks.empty() || chunks.back().lanes.size() == chunk_lanes) {
        chunks.emplace_back().width = width;
        chunks.back().lanes.reserve(chunk_lanes);
      }
      chunks.back().lanes.push_back(lane);
    }
  }
  return chunks;
}

void CampaignExecutor::execute_range_batched(RunRange range) {
  // One pool task per chunk of consecutive plan lanes. The runner decides
  // how the chunk's lanes share lockstep batches over time; whatever it
  // does, every lane's report is bit-identical to its scalar run, so any
  // range partition, batch size or chunking yields byte-identical records.
  obs::Span injection_phase(hooks_.telemetry, "campaign.injection_phase");
  std::vector<BatchRunRequest> chunks = plan_chunks(range);
  const bool timed = instruments_->timed;
  pool_->parallel_for(0, chunks.size(), [&](std::size_t chunk) {
    // Each chunk belongs to one pool task, which releases it when done.
    BatchRunRequest request = std::move(chunks[chunk]);
    BatchDone done;
    done.phase = "lockstep";
    for (const BatchLaneRequest& lane : request.lanes) {
      done.add_lane(*lane.spec, lane.test_case);
    }
    // Each lane's record is finished -- journaled, when a journal listens
    // -- as soon as its report is final, so a crash loses only the lanes
    // still in flight.
    std::vector<std::uint8_t> reported(request.lanes.size(), 0);
    request.on_final = [&](std::size_t i, DivergenceReport report) {
      PROPANE_CHECK_MSG(i < reported.size() && reported[i] == 0,
                        "batch runner must report each lane once");
      reported[i] = 1;
      done.add_final(report);
      InjectionRecord record = make_record_identity(request.lanes[i].flat);
      record.report = std::move(report);
      finish_record(request.lanes[i].flat, std::move(record));
    };
    const std::uint64_t start_us = timed ? obs::steady_now_us() : 0;
    runner_.batch(request);
    PROPANE_CHECK_MSG(done.settled == request.lanes.size(),
                      "batch runner must report every lane");
    done.dur_us = timed ? obs::steady_now_us() - start_us : 0;
    report_batch(done);
  });
}

CampaignResult run_campaign(const CampaignRunner& runner,
                            const CampaignConfig& config) {
  return run_campaign(runner, config, CampaignHooks{});
}

CampaignResult run_campaign(const CampaignRunner& runner,
                            const CampaignConfig& config,
                            const CampaignHooks& hooks) {
  CampaignExecutor executor(runner, config, hooks);
  executor.execute_range({0, executor.total_runs()});
  return executor.take_result();
}

}  // namespace propane::fi
