// Exact work counts of the journaled batch campaign at the CLI's small and
// default scales. Unlike a runs/s floor, these counts do not depend on the
// host, its load or its thread count -- the chunking, the batch packing,
// the windows and the retirement rules are all deterministic -- so a
// packing, compaction or retirement regression moves one of them exactly.
// An intended change updates them here and says why.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "arrestment/batch_runner.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "exp/paper_experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "store/result_cache.hpp"

namespace propane {
namespace {

namespace fs = std::filesystem;

struct WorkCounts {
  std::uint64_t kernel_ticks = 0;
  std::uint64_t lut_gathers = 0;
  std::uint64_t kernel_batches = 0;
  std::size_t plan_batches = 0;
  std::size_t compactions = 0;
  std::size_t compaction_surplus = 0;
  std::size_t retired_converged = 0;
  std::size_t retired_exhausted = 0;
  std::size_t retired_at_rest = 0;
  std::uint64_t journal_flushes = 0;
  std::size_t executed = 0;
};

/// `campaign run --scale <scale>` in process: the same plan, runner and
/// journal path, with a fixed thread and shard count.
WorkCounts run_scale(const exp::ExperimentScale& scale, std::size_t threads) {
  fi::CampaignConfig config = exp::make_campaign_config(scale);
  config.threads = threads;
  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  obs::MetricsRegistry metrics;
  const obs::Telemetry telemetry{&metrics, nullptr, nullptr};
  const auto stats = std::make_shared<arr::BatchRunStats>();
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("work_count_" + scale.name + "_" +
                        std::to_string(threads));
  fs::remove_all(dir);
  store::DeltaRunOptions options;
  options.base.shard_count = 4;
  options.base.telemetry = &telemetry;
  options.module_versions = arr::module_version_tokens();
  const store::DeltaJournalSummary summary =
      store::run_delta_journaled_campaign(
          arr::batched_campaign_runner(
              arr::grid_test_cases(scale.mass_count, scale.velocity_count),
              config, scale.duration, nullptr, stats, &telemetry),
          config, model, binding, dir, store::ResultCache{}, options);
  fs::remove_all(dir);

  WorkCounts counts;
  counts.kernel_ticks = metrics.counter("batch.kernel.ticks").value();
  counts.lut_gathers = metrics.counter("batch.kernel.lut_gathers").value();
  counts.kernel_batches = metrics.histogram("batch.group.lanes", {}).count();
  counts.plan_batches = stats->batches.load();
  counts.compactions = stats->compactions.load();
  counts.compaction_surplus = stats->compaction_surplus.load();
  counts.retired_converged = stats->retired_converged.load();
  counts.retired_exhausted = stats->retired_exhausted.load();
  counts.retired_at_rest = stats->retired_at_rest.load();
  counts.journal_flushes = metrics.counter("journal.flushes").value();
  counts.executed = summary.executed;
  return counts;
}

void expect_counts(const WorkCounts& got, const WorkCounts& want) {
  EXPECT_EQ(got.executed, want.executed);
  EXPECT_EQ(got.kernel_ticks, want.kernel_ticks);
  EXPECT_EQ(got.lut_gathers, want.lut_gathers);
  EXPECT_EQ(got.kernel_batches, want.kernel_batches);
  EXPECT_EQ(got.plan_batches, want.plan_batches);
  EXPECT_EQ(got.compactions, want.compactions);
  EXPECT_EQ(got.compaction_surplus, 0u);
  EXPECT_EQ(got.retired_converged, want.retired_converged);
  EXPECT_EQ(got.retired_exhausted, want.retired_exhausted);
  EXPECT_EQ(got.retired_at_rest, want.retired_at_rest);
  EXPECT_EQ(got.journal_flushes, want.journal_flushes);
}

// One chunk: 4 first-window batches, then a compaction at every window
// boundary of the 15 s horizon. Journal flushes: one per record plus one
// per shard header.
TEST(WorkCounts, SmallScaleCampaignIsPinned) {
  WorkCounts want;
  want.executed = 104;
  want.kernel_ticks = 20888;
  want.lut_gathers = 553064;
  want.kernel_batches = 26;
  want.plan_batches = 4;
  want.compactions = 43;
  want.retired_converged = 44;
  want.retired_exhausted = 41;
  want.retired_at_rest = 19;
  want.journal_flushes = 108;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_counts(run_scale(exp::smoke_scale(), threads), want);
  }
}

// Five chunks of 16 batch widths; the rest as above.
TEST(WorkCounts, DefaultScaleCampaignIsPinned) {
  WorkCounts want;
  want.executed = 2496;
  want.kernel_ticks = 293179;
  want.lut_gathers = 8967250;
  want.kernel_batches = 321;
  want.plan_batches = 78;
  want.compactions = 209;
  want.retired_converged = 1004;
  want.retired_exhausted = 734;
  want.retired_at_rest = 757;
  want.journal_flushes = 2500;
  expect_counts(run_scale(exp::default_scale(), 2), want);
}

}  // namespace
}  // namespace propane
