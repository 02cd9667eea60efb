// Telemetry must be pure observation: a campaign with metrics, events,
// spans and a progress reporter attached must produce a byte-identical
// permeability CSV to one with everything disabled, and every NDJSON line
// it streams must parse back.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>

#include "core/system_model.hpp"
#include "obs/metrics.hpp"
#include "obs/ndjson.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "store/result_cache.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;  // the campaign creates it
}

/// The toy system of tests/store/resume_test.cpp: "src" is freshly
/// produced every tick, "dst" mirrors it with the low nibble masked off.
fi::TraceSet toy_run(const fi::RunRequest& request) {
  fi::SignalBus bus;
  const fi::BusSignalId src = bus.add_signal("src");
  const fi::BusSignalId dst = bus.add_signal("dst");
  std::optional<fi::InjectionDriver> injector;
  if (request.injection) {
    injector.emplace(bus, *request.injection, Rng(request.rng_seed));
  }
  fi::TraceRecorder recorder(bus);
  for (std::uint64_t ms = 0; ms < 10; ++ms) {
    bus.write(src, static_cast<std::uint16_t>(request.test_case * 100 + ms));
    if (injector) injector->maybe_fire(ms * sim::kMillisecond);
    bus.write(dst, static_cast<std::uint16_t>(bus.read(src) & 0xFFF0));
    recorder.sample();
  }
  return recorder.take();
}

fi::CampaignConfig toy_config() {
  fi::CampaignConfig config;
  config.test_case_count = 3;
  config.injections = {
      fi::InjectionSpec{0, 2 * sim::kMillisecond, fi::bit_flip(0)},
      fi::InjectionSpec{0, 2 * sim::kMillisecond, fi::bit_flip(8)},
      fi::InjectionSpec{0, 4 * sim::kMillisecond, fi::bit_flip(12)},
      fi::InjectionSpec{0, 6 * sim::kMillisecond, fi::random_replacement()},
  };
  config.threads = 2;
  return config;
}

core::SystemModel toy_model() {
  core::SystemModelBuilder builder;
  builder.add_module("M", {"in"}, {"dst"});
  builder.add_system_input("src");
  builder.connect_system_input("src", "M", "in");
  builder.add_system_output("out", "M", "dst");
  return std::move(builder).build();
}

fi::SignalBinding toy_binding(const core::SystemModel& model) {
  return fi::SignalBinding::by_name(model, {"src", "dst"});
}

/// Journals `config` into `dir` through the store's campaign entry point,
/// against an empty baseline.
DeltaJournalSummary run_journal(const fi::CampaignRunner& runner,
                                const fi::CampaignConfig& config,
                                const fs::path& dir,
                                const JournalRunOptions& options = {}) {
  const core::SystemModel model = toy_model();
  DeltaRunOptions delta;
  delta.base = options;
  return run_delta_journaled_campaign(runner, config, model,
                                      toy_binding(model), dir, ResultCache{},
                                      delta);
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = toy_model();
  std::ostringstream out;
  write_permeability_csv_from_journal(out, dir, model, toy_binding(model));
  return out.str();
}

TEST(TelemetryCampaign, CsvIsByteIdenticalWithTelemetryOnOrOff) {
  // Plain campaign: no telemetry at all.
  const fs::path plain_dir = fresh_dir("telemetry_off");
  const DeltaJournalSummary plain =
      run_journal(toy_run, toy_config(), plain_dir);
  ASSERT_EQ(plain.executed, 12u);

  // Fully instrumented campaign: metrics + NDJSON events + spans + HUD
  // (forced on, rendering into a tmpfile so no terminal is involved).
  const fs::path traced_dir = fresh_dir("telemetry_on");
  obs::MetricsRegistry metrics;
  std::ostringstream events_out;
  obs::NdjsonSink sink(events_out);
  obs::SpanBuffer spans;
  obs::Telemetry telemetry{&metrics, &sink, &spans};

  std::FILE* hud_out = std::tmpfile();
  ASSERT_NE(hud_out, nullptr);
  obs::ProgressReporter::Options hud_options;
  hud_options.force = true;
  hud_options.min_interval_us = 0;
  hud_options.out = hud_out;
  obs::ProgressReporter hud(hud_options);

  JournalRunOptions options;
  options.telemetry = &telemetry;
  options.progress = &hud;
  options.shard_count = 2;
  const DeltaJournalSummary traced =
      run_journal(toy_run, toy_config(), traced_dir, options);
  hud.finish();
  std::fclose(hud_out);

  EXPECT_EQ(traced.executed, plain.executed);
  EXPECT_EQ(traced.total_runs, plain.total_runs);

  // The observable artefact -- the permeability CSV -- must not differ by
  // a single byte.
  EXPECT_EQ(journal_csv(plain_dir), journal_csv(traced_dir));

  // The telemetry itself must be consistent with the campaign...
  EXPECT_EQ(metrics.counter("campaign.runs.injection").value(),
            traced.executed);
  EXPECT_EQ(metrics.counter("campaign.runs.golden").value(), 3u);
  EXPECT_EQ(metrics.counter("campaign.runs.diverged").value(),
            traced.diverged);
  EXPECT_EQ(metrics.counter("journal.appends").value(), traced.executed);
  EXPECT_EQ(metrics.counter("journal.append.bytes").value(),
            traced.journal_bytes);
  EXPECT_GT(traced.wall_seconds, 0.0);

  // ...every event line must parse back, and the per-batch events must
  // account for every executed run and every diverged one...
  std::istringstream lines(events_out.str());
  std::size_t event_lines = 0, batch_settled = 0, batch_diverged = 0;
  for (std::string line; std::getline(lines, line);) {
    const auto fields = obs::parse_flat_json_object(line);
    ASSERT_TRUE(fields.has_value()) << line;
    ++event_lines;
    bool batch_done = false;
    std::size_t settled = 0, diverged = 0;
    for (const obs::Field& field : *fields) {
      if (field.key == "event") {
        batch_done = field.value == obs::Value("campaign.batch.done");
      } else if (field.key == "settled") {
        settled = field.value.as_uint();
      } else if (field.key == "diverged") {
        diverged = field.value.as_uint();
      }
    }
    if (batch_done) {
      batch_settled += settled;
      batch_diverged += diverged;
    }
  }
  EXPECT_GT(event_lines, 0u);
  EXPECT_EQ(batch_settled, traced.executed);
  EXPECT_EQ(batch_diverged, traced.diverged);

  // ...and the spans must include the campaign phases.
  bool saw_campaign_span = false;
  for (const obs::FinishedSpan& span : spans.snapshot()) {
    if (span.name == "campaign") saw_campaign_span = true;
  }
  EXPECT_TRUE(saw_campaign_span);

  // The HUD tracked the same counts the summary reports.
  EXPECT_EQ(hud.snapshot().completed, traced.executed);
  EXPECT_EQ(hud.snapshot().diverged, traced.diverged);
}

TEST(TelemetryCampaign, ResumedSessionKeepsCsvIdenticalToo) {
  // Journal half the runs with telemetry on, the rest with it off: the
  // final CSV must still match a clean untraced run.
  const fs::path reference_dir = fresh_dir("telemetry_reference");
  run_journal(toy_run, toy_config(), reference_dir);

  const fs::path split_dir = fresh_dir("telemetry_split");
  {
    obs::MetricsRegistry metrics;
    obs::Telemetry telemetry{&metrics, nullptr, nullptr};
    JournalRunOptions first_half;
    first_half.process_count = 2;
    first_half.process_index = 0;
    first_half.telemetry = &telemetry;
    run_journal(toy_run, toy_config(), split_dir, first_half);
  }
  JournalRunOptions second_half;
  second_half.process_count = 2;
  second_half.process_index = 1;
  run_journal(toy_run, toy_config(), split_dir, second_half);

  EXPECT_EQ(journal_csv(reference_dir), journal_csv(split_dir));
}

}  // namespace
}  // namespace propane::store
