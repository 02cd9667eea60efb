#include "store/result_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "obs/clock.hpp"
#include "obs/telemetry.hpp"
#include "store/campaign_session.hpp"

namespace propane::store {

ResultCache ResultCache::load(const std::filesystem::path& dir) {
  ResultCache cache;
  cache.state_ = scan_campaign_dir(
      dir, [&cache](fi::InjectionRecord&& record, std::size_t flat) {
        if (flat >= cache.fingerprint_by_flat_.size()) {
          cache.fingerprint_by_flat_.resize(flat + 1, 0);
        }
        if (record.fingerprint == 0) {
          // Pre-v3 record: content unknown, can only ever miss.
          ++cache.unfingerprinted_;
          return;
        }
        cache.fingerprint_by_flat_[flat] = record.fingerprint;
        cache.by_fingerprint_.emplace(record.fingerprint, std::move(record));
      });
  return cache;
}

const fi::InjectionRecord* ResultCache::find(std::uint64_t fingerprint) const {
  if (fingerprint == 0) return nullptr;
  const auto it = by_fingerprint_.find(fingerprint);
  return it == by_fingerprint_.end() ? nullptr : &it->second;
}

std::uint64_t ResultCache::fingerprint_of_flat(std::size_t flat) const {
  return flat < fingerprint_by_flat_.size() ? fingerprint_by_flat_[flat] : 0;
}

DeltaJournalSummary run_delta_journaled_campaign(
    const fi::CampaignRunner& runner, const fi::CampaignConfig& config,
    const core::SystemModel& model, const fi::SignalBinding& binding,
    const std::filesystem::path& dir, const ResultCache& baseline,
    const DeltaRunOptions& options) {
  PROPANE_REQUIRE(options.base.process_count > 0);
  PROPANE_REQUIRE(options.base.process_index < options.base.process_count);

  const Manifest manifest = manifest_for(config);
  DeltaJournalSummary summary;
  summary.total_runs = manifest.total_runs();
  summary.warnings = baseline.warnings();

  const obs::Telemetry* telemetry =
      (options.base.telemetry != nullptr && options.base.telemetry->enabled())
          ? options.base.telemetry
          : nullptr;
  const std::uint64_t wall_start_us = obs::steady_now_us();

  const std::vector<std::uint64_t> fingerprints =
      fi::run_fingerprints(config, model, binding, options.module_versions);
  std::size_t bus_count = binding.bus_upper_bound();
  for (const fi::InjectionSpec& spec : config.injections) {
    bus_count = std::max(bus_count, std::size_t{spec.target} + 1);
  }
  const auto consumers = fi::consumers_by_bus(model, binding, bus_count);
  const auto consumers_of_flat =
      [&](std::size_t flat) -> const std::vector<core::ModuleId>& {
    return consumers[config.injections[flat / config.test_case_count].target];
  };

  // Stale-module detection: when the baseline holds the *same plan*, any
  // flat where it recorded a different fingerprint means something feeding
  // that run changed -- per the fingerprint recipe, the master seed (which
  // would flag every module) or a consumer module's version token. The
  // target's consumers carry the blame. A different plan hash is not
  // "invalidation", it is simply a different campaign reusing overlapping
  // content, so nothing is flagged.
  std::vector<bool> module_stale(model.module_count(), false);
  std::size_t stale_runs = 0;
  if (baseline.loaded() &&
      baseline.manifest().plan_hash == manifest.plan_hash) {
    for (std::size_t flat = 0; flat < fingerprints.size(); ++flat) {
      const std::uint64_t before = baseline.fingerprint_of_flat(flat);
      if (before == 0 || before == fingerprints[flat]) continue;
      ++stale_runs;
      for (core::ModuleId m : consumers_of_flat(flat)) module_stale[m] = true;
    }
  }
  for (core::ModuleId m = 0; m < model.module_count(); ++m) {
    if (module_stale[m]) summary.invalidated_modules.push_back(m);
  }
  if (auto* counter =
          obs::find_counter(telemetry, "delta.invalidated_modules")) {
    counter->add(summary.invalidated_modules.size());
  }
  if (telemetry != nullptr) {
    std::string names;
    for (core::ModuleId m : summary.invalidated_modules) {
      if (!names.empty()) names += ",";
      names += model.module_name(m);
    }
    obs::emit_event(telemetry, "delta.plan",
                    {{"baseline_records", obs::Value(baseline.record_count())},
                     {"baseline_unfingerprinted",
                      obs::Value(baseline.unfingerprinted())},
                     {"stale_runs", obs::Value(stale_runs)},
                     {"invalidated_modules", obs::Value(names)},
                     {"total_runs", obs::Value(summary.total_runs)}});
  }

  // Session core: resume scan of the *output* directory, shard writer and
  // the completed/foreign filtering + durable-append hooks, shared with the
  // campaign service workers.
  JournaledCampaignSession session(config, dir, options.base);
  summary.warnings.insert(summary.warnings.end(), session.warnings().begin(),
                          session.warnings().end());

  // Per-run outcome for the --explain table; each flat is resolved by
  // exactly one worker, so plain elements suffice.
  enum : std::uint8_t { kUntouched = 0, kExecuted = 1, kReplayed = 2 };
  std::vector<std::uint8_t> outcome(manifest.total_runs(), kUntouched);

  obs::Counter* hit_counter = obs::find_counter(telemetry, "delta.hits");
  obs::Counter* miss_counter = obs::find_counter(telemetry, "delta.misses");

  fi::CampaignHooks hooks = session.hooks();
  hooks.should_run = [&, owned = std::move(hooks.should_run)](
                         std::uint32_t injection_index,
                         std::uint32_t test_case) {
    if (!owned(injection_index, test_case)) return false;
    const std::size_t flat = manifest.flat_index(injection_index, test_case);
    const fi::InjectionRecord* cached = baseline.find(fingerprints[flat]);
    if (cached == nullptr) {
      if (miss_counter != nullptr) miss_counter->add(1);
      return true;
    }
    // Cache hit: replay the stored report under the *current* plan's
    // identity (the baseline may have recorded it at a different flat
    // position, e.g. after injections were added to the plan). Replayed
    // records are re-appended too: the output directory is a complete
    // journal of the plan, usable as the next delta's baseline and
    // yielding byte-identical estimates to a cold run of the same plan.
    fi::InjectionRecord record = *cached;
    record.injection_index = injection_index;
    record.test_case = test_case;
    record.target = config.injections[injection_index].target;
    record.when = config.injections[injection_index].when;
    record.fingerprint = fingerprints[flat];
    record.replayed = true;
    if (hit_counter != nullptr) hit_counter->add(1);
    session.append_replayed(record);
    outcome[flat] = kReplayed;
    return false;
  };
  hooks.on_record = [&, append = std::move(hooks.on_record)](
                        fi::InjectionRecord& record) {
    const std::size_t flat =
        manifest.flat_index(record.injection_index, record.test_case);
    record.fingerprint = fingerprints[flat];
    append(record);
    outcome[flat] = kExecuted;
  };

  fi::run_campaign(runner, config, hooks);
  summary.replayed = static_cast<std::size_t>(
      std::count(outcome.begin(), outcome.end(), kReplayed));

  const SessionTally tally = session.finish(
      "delta.done", {{"replayed", obs::Value(summary.replayed)}});
  summary.executed = tally.executed;
  summary.skipped_completed = tally.skipped_completed;
  summary.skipped_foreign = tally.skipped_foreign;
  summary.diverged = tally.diverged;
  summary.journal_bytes = tally.journal_bytes;
  // Wall time spans the delta planning (fingerprints, stale detection)
  // too, not just the session.
  summary.wall_seconds =
      static_cast<double>(obs::steady_now_us() - wall_start_us) / 1e6;

  summary.per_module.resize(model.module_count());
  for (core::ModuleId m = 0; m < model.module_count(); ++m) {
    summary.per_module[m].module = model.module_name(m);
    summary.per_module[m].invalidated = module_stale[m];
  }
  for (std::size_t flat = 0; flat < outcome.size(); ++flat) {
    if (outcome[flat] == kUntouched) continue;
    for (core::ModuleId m : consumers_of_flat(flat)) {
      if (outcome[flat] == kReplayed) {
        ++summary.per_module[m].replayed;
      } else {
        ++summary.per_module[m].executed;
      }
    }
  }
  return summary;
}

}  // namespace propane::store
