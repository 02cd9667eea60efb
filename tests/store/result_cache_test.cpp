// Durable delta-campaign tests: an incremental run against a baseline
// journal must estimate byte-for-byte what a cold run estimates, survive a
// mid-flight kill, chain as the next delta's baseline, and degrade
// gracefully to a full run over pre-v3 (unfingerprinted) baselines.
#include "store/result_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/contracts.hpp"
#include "core/system_model.hpp"
#include "fi/estimator.hpp"
#include "store/journal.hpp"
#include "store/resume.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

/// Two-module accumulator chain: src -> M1 -> mid -> M2 -> dst. Every
/// signal accumulates (reads its own previous value), so an injected
/// corruption persists and keeps propagating downstream -- src errors reach
/// mid and dst, mid errors reach dst only. M2's behaviour is parameterised
/// by `m2_mask`: v1 (0xFFFF) lets every diverged mid bit through, a
/// "changed" M2 (0xFF00) masks low-byte divergence, altering dst without
/// ever touching mid.
fi::TraceSet chain_run(const fi::RunRequest& request, std::uint16_t m2_mask) {
  fi::SignalBus bus;
  const fi::BusSignalId src = bus.add_signal("src");
  const fi::BusSignalId mid = bus.add_signal("mid");
  const fi::BusSignalId dst = bus.add_signal("dst");
  std::optional<fi::InjectionDriver> injector;
  if (request.injection) {
    injector.emplace(bus, *request.injection, Rng(request.rng_seed));
  }
  fi::TraceRecorder recorder(bus);
  for (std::uint64_t ms = 0; ms < 10; ++ms) {
    if (injector) injector->maybe_fire(ms * sim::kMillisecond);
    bus.write(src, static_cast<std::uint16_t>(
                       bus.read(src) + request.test_case + 3 * ms + 1));
    bus.write(mid, static_cast<std::uint16_t>(bus.read(mid) + bus.read(src)));
    bus.write(dst, static_cast<std::uint16_t>(
                       bus.read(dst) + (bus.read(mid) & m2_mask)));
    recorder.sample();
  }
  return recorder.take();
}

fi::RunFunction chain_runner(std::uint16_t m2_mask = 0xFFFF) {
  return [m2_mask](const fi::RunRequest& request) {
    return chain_run(request, m2_mask);
  };
}

core::SystemModel chain_model() {
  core::SystemModelBuilder builder;
  builder.add_module("M1", {"src"}, {"mid"});
  builder.add_module("M2", {"mid"}, {"dst"});
  builder.add_system_input("src");
  builder.connect_system_input("src", "M1", "src");
  builder.connect("M1", "mid", "M2", "mid");
  builder.add_system_output("dst", "M2", "dst");
  return std::move(builder).build();
}

fi::SignalBinding chain_binding(const core::SystemModel& model) {
  return fi::SignalBinding::by_name(model, {"src", "mid", "dst"});
}

/// Flats 0..7 target src (consumer M1), flats 8..15 target mid (consumer
/// M2); 16 runs total.
fi::CampaignConfig chain_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  const std::vector<fi::ErrorModel> models = {fi::bit_flip(2),
                                              fi::bit_flip(10)};
  const std::vector<sim::SimTime> instants = {2 * sim::kMillisecond,
                                              5 * sim::kMillisecond};
  for (const fi::BusSignalId target : {fi::BusSignalId{0},
                                       fi::BusSignalId{1}}) {
    const auto plan = fi::cross_product_plan(target, models, instants);
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  config.seed = 0xABCD;
  config.threads = 2;
  return config;
}

fi::ModuleVersionMap v1_tokens() { return {{"M1", 1}, {"M2", 1}}; }

DeltaRunOptions delta_options(fi::ModuleVersionMap versions = v1_tokens()) {
  DeltaRunOptions options;
  options.module_versions = std::move(versions);
  return options;
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = chain_model();
  const fi::SignalBinding binding = chain_binding(model);
  std::ostringstream out;
  write_permeability_csv_from_journal(out, dir, model, binding);
  return out.str();
}

/// Runs the reference cold campaign into `dir` through the delta runner
/// with an empty baseline (so its records carry fingerprints and can serve
/// as the next delta's baseline).
DeltaJournalSummary cold_delta_run(const fs::path& dir) {
  const core::SystemModel model = chain_model();
  return run_delta_journaled_campaign(chain_runner(), chain_config(), model,
                                      chain_binding(model), dir,
                                      ResultCache{}, delta_options());
}

TEST(ResultCache, MissingDirectoryLoadsAsEmptyCache) {
  const ResultCache cache = ResultCache::load(fresh_dir("cache_missing"));
  EXPECT_FALSE(cache.loaded());
  EXPECT_EQ(cache.record_count(), 0u);
  EXPECT_EQ(cache.unfingerprinted(), 0u);
  EXPECT_EQ(cache.find(0x1234), nullptr);
  EXPECT_EQ(cache.fingerprint_of_flat(0), 0u);
}

TEST(ResultCache, EmptyBaselineDeltaMatchesPlainJournaledRunByteForByte) {
  const fs::path dir = fresh_dir("cache_empty_baseline");
  const DeltaJournalSummary summary = cold_delta_run(dir);
  EXPECT_EQ(summary.executed, 16u);
  EXPECT_EQ(summary.replayed, 0u);
  EXPECT_TRUE(summary.invalidated_modules.empty());

  // Every executed record is fingerprinted -- the journal is ready to be
  // a baseline.
  const ResultCache reloaded = ResultCache::load(dir);
  EXPECT_EQ(reloaded.record_count(), 16u);
  EXPECT_EQ(reloaded.unfingerprinted(), 0u);

  // The journal estimates exactly what the in-memory campaign does.
  const core::SystemModel model = chain_model();
  const fi::SignalBinding binding = chain_binding(model);
  const JournalStats stats = estimate_from_journal(dir, model, binding);
  EXPECT_EQ(stats.record_count, 16u);
  const fi::EstimationResult reference = fi::estimate_permeability(
      model, binding, fi::run_campaign(chain_runner(), chain_config()));
  ASSERT_EQ(stats.estimation.pairs.size(), reference.pairs.size());
  for (std::size_t p = 0; p < reference.pairs.size(); ++p) {
    EXPECT_EQ(stats.estimation.pairs[p].injections,
              reference.pairs[p].injections);
    EXPECT_EQ(stats.estimation.pairs[p].errors, reference.pairs[p].errors);
  }
  for (core::ModuleId m = 0; m < model.module_count(); ++m) {
    EXPECT_DOUBLE_EQ(stats.estimation.permeability.get(m, 0, 0),
                     reference.permeability.get(m, 0, 0));
  }
}

TEST(ResultCache, FullBaselineReplaysEverythingAndChains) {
  const fs::path base_dir = fresh_dir("cache_chain_base");
  cold_delta_run(base_dir);
  const std::string cold_csv = journal_csv(base_dir);

  const core::SystemModel model = chain_model();
  const fs::path second_dir = fresh_dir("cache_chain_second");
  const DeltaJournalSummary second = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), second_dir,
      ResultCache::load(base_dir), delta_options());
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.replayed, 16u);
  EXPECT_EQ(journal_csv(second_dir), cold_csv);
  const CampaignDirState state = scan_campaign_dir(second_dir);
  EXPECT_EQ(state.replayed_count, 16u);

  // The all-replayed output journal is itself a complete baseline.
  const fs::path third_dir = fresh_dir("cache_chain_third");
  const DeltaJournalSummary third = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), third_dir,
      ResultCache::load(second_dir), delta_options());
  EXPECT_EQ(third.executed, 0u);
  EXPECT_EQ(third.replayed, 16u);
  EXPECT_EQ(journal_csv(third_dir), cold_csv);
}

TEST(ResultCache, InvalidatedModuleReExecutesOnlyItsRuns) {
  const fs::path base_dir = fresh_dir("cache_invalidate_base");
  cold_delta_run(base_dir);

  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_invalidate_delta");
  const DeltaJournalSummary summary = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), delta_dir,
      ResultCache::load(base_dir), delta_options({{"M1", 1}, {"M2", 2}}));

  EXPECT_EQ(summary.executed, 8u);  // mid-targeted runs (consumer M2)
  EXPECT_EQ(summary.replayed, 8u);  // src-targeted runs (consumer M1)
  ASSERT_EQ(summary.invalidated_modules.size(), 1u);
  EXPECT_EQ(summary.invalidated_modules[0], core::ModuleId{1});
  ASSERT_EQ(summary.per_module.size(), 2u);
  EXPECT_EQ(summary.per_module[0].module, "M1");
  EXPECT_FALSE(summary.per_module[0].invalidated);
  EXPECT_EQ(summary.per_module[0].replayed, 8u);
  EXPECT_EQ(summary.per_module[0].executed, 0u);
  EXPECT_EQ(summary.per_module[1].module, "M2");
  EXPECT_TRUE(summary.per_module[1].invalidated);
  EXPECT_EQ(summary.per_module[1].replayed, 0u);
  EXPECT_EQ(summary.per_module[1].executed, 8u);

  // The code did not actually change, so the incremental journal estimates
  // byte-for-byte what the cold baseline does.
  EXPECT_EQ(journal_csv(delta_dir), journal_csv(base_dir));
}

TEST(ResultCache, ChangedModuleReExecutesOnlyItsRuns) {
  // Baseline of the original system, then "edit" M2: new behaviour (mask
  // 0xFF00) and a bumped version token.
  const fs::path base_dir = fresh_dir("cache_changed_base");
  cold_delta_run(base_dir);

  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_changed_delta");
  const DeltaJournalSummary summary = run_delta_journaled_campaign(
      chain_runner(0xFF00), chain_config(), model, chain_binding(model),
      delta_dir, ResultCache::load(base_dir),
      delta_options({{"M1", 1}, {"M2", 2}}));
  EXPECT_EQ(summary.executed, 8u);  // mid-targeted runs (consumer M2)
  EXPECT_EQ(summary.replayed, 8u);  // src-targeted runs (consumer M1)

  // Compositional exactness: the mixed journal estimates exactly what a
  // cold journal of the changed system estimates. Replayed src-targeted
  // records carry stale *downstream* (dst) divergence data, but estimation
  // attributes them only to M1's src->mid pair, which M2 cannot influence.
  const fs::path cold_dir = fresh_dir("cache_changed_cold");
  run_delta_journaled_campaign(chain_runner(0xFF00), chain_config(), model,
                               chain_binding(model), cold_dir, ResultCache{},
                               delta_options({{"M1", 1}, {"M2", 2}}));
  EXPECT_EQ(journal_csv(delta_dir), journal_csv(cold_dir));
  // Not vacuous: the edit changed M2's estimate.
  EXPECT_NE(journal_csv(cold_dir), journal_csv(base_dir));
}

TEST(ResultCache, KilledDeltaSessionResumesToAByteIdenticalCsv) {
  const fs::path base_dir = fresh_dir("cache_kill_base");
  cold_delta_run(base_dir);
  const std::string cold_csv = journal_csv(base_dir);

  // Kill an incremental session (M2 invalidated) partway through its
  // executed remainder; completed frames -- replayed and executed alike --
  // are already flushed.
  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_kill_delta");
  std::atomic<std::size_t> injections_run{0};
  const fi::RunFunction crashing = [&](const fi::RunRequest& request) {
    if (request.injection && injections_run.fetch_add(1) >= 3) {
      throw std::runtime_error("simulated crash");
    }
    return chain_run(request, 0xFFFF);
  };
  EXPECT_ANY_THROW(run_delta_journaled_campaign(
      crashing, chain_config(), model, chain_binding(model), delta_dir,
      ResultCache::load(base_dir), delta_options({{"M1", 1}, {"M2", 2}})));
  const CampaignDirState partial = scan_campaign_dir(delta_dir);
  EXPECT_LT(partial.completed_count, 16u);

  // Resume through the same delta path: journaled runs are skipped, the
  // rest replay or execute as their fingerprints dictate.
  const DeltaJournalSummary resumed = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), delta_dir,
      ResultCache::load(base_dir), delta_options({{"M1", 1}, {"M2", 2}}));
  EXPECT_EQ(resumed.skipped_completed, partial.completed_count);
  EXPECT_EQ(resumed.executed + resumed.replayed + resumed.skipped_completed,
            16u);
  EXPECT_EQ(journal_csv(delta_dir), cold_csv);
}

/// Hand-crafts a v2 shard (no fingerprint/flags words) to pin down
/// backward read-compatibility.
void write_v2_shard(const fs::path& dir, const Manifest& manifest) {
  fs::create_directories(dir);
  std::ofstream out(dir / "shard-000000.pjl", std::ios::binary);
  ASSERT_TRUE(out.is_open());
  out.write(kJournalMagic, sizeof(kJournalMagic));
  ByteWriter header;
  header.u32(2);  // journal version 2
  out.write(reinterpret_cast<const char*>(header.bytes().data()),
            static_cast<std::streamsize>(header.bytes().size()));

  const auto write_frame = [&out](RecordType type,
                                  const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> payload;
    payload.push_back(static_cast<std::uint8_t>(type));
    payload.insert(payload.end(), body.begin(), body.end());
    ByteWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload.data(), payload.size()));
    out.write(reinterpret_cast<const char*>(frame.bytes().data()),
              static_cast<std::streamsize>(frame.bytes().size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  };
  write_frame(RecordType::kManifest, encode_manifest(manifest));

  for (std::uint32_t test_case = 0; test_case < 2; ++test_case) {
    ByteWriter record;  // v2 layout: no fingerprint, no flags byte
    record.u32(0);          // injection_index
    record.u32(test_case);  // test_case
    record.u32(0);          // target
    record.u64(2 * sim::kMillisecond);
    record.u32(3);  // signal_count
    record.u32(1);  // diverged_count
    record.u32(0);  // diverged signal id
    record.u64(2);  // first_ms
    record.u16(5);  // golden value
    record.u16(9);  // observed value
    write_frame(RecordType::kInjectionResult, record.take());
  }
}

TEST(ResultCache, V2BaselineReadsButNeverReplays) {
  const fs::path v2_dir = fresh_dir("cache_v2_baseline");
  write_v2_shard(v2_dir, manifest_for(chain_config()));

  const ResultCache cache = ResultCache::load(v2_dir);
  EXPECT_TRUE(cache.loaded());
  EXPECT_EQ(cache.record_count(), 2u);
  EXPECT_EQ(cache.unfingerprinted(), 2u);
  EXPECT_EQ(cache.fingerprint_of_flat(0), 0u);

  // Same plan, but the v2 records carry no content address: everything
  // executes, and the unknown fingerprints are not misread as stale
  // modules.
  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_v2_delta");
  const DeltaJournalSummary summary = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), delta_dir,
      cache, delta_options());
  EXPECT_EQ(summary.replayed, 0u);
  EXPECT_EQ(summary.executed, 16u);
  EXPECT_TRUE(summary.invalidated_modules.empty());
}

TEST(ResultCache, MismatchedOutputDirectoryIsRefused) {
  const fs::path dir = fresh_dir("cache_mismatch");
  cold_delta_run(dir);
  fi::CampaignConfig other = chain_config();
  other.seed += 1;
  const core::SystemModel model = chain_model();
  EXPECT_THROW(
      run_delta_journaled_campaign(chain_runner(), other, model,
                                   chain_binding(model), dir, ResultCache{},
                                   delta_options()),
      ContractViolation);
}

}  // namespace
}  // namespace propane::store
