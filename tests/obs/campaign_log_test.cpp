// The campaign log set: file names, the directory scan, the one reader and
// its crash-residue rule, the summary `campaign top` prints, and the
// writer bundle every campaign subcommand opens.
#include "obs/campaign_log.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace propane::obs {
namespace {

namespace fs = std::filesystem;

class CampaignLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("propane-campaign-log-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& name, const std::string& text) const {
    std::ofstream(dir_ / name) << text;
  }

  fs::path dir_;
};

/// Event names read from `text`, plus the residue count.
std::pair<std::vector<std::string>, std::size_t> read_names(
    const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> names;
  const std::size_t residue = read_campaign_log(
      in, "log", [&](std::vector<Field>& fields, std::string_view) {
        names.push_back(find_field(fields, "event")->as_string());
      });
  return {names, residue};
}

// A CLI session appended after a crashed one: the crashed session's torn
// line, healed by the newline the sink adds when it reopens the log.
constexpr char kResidue[] = "{\"event\":\"campaign.batch.done\",\"t_us\":99\n";

TEST(CampaignLogNames, KnowsTheWorkerFileNames) {
  EXPECT_EQ(kCampaignLogName, "telemetry.ndjson");
  EXPECT_EQ(worker_log_name(3), "telemetry-w3.ndjson");
  EXPECT_EQ(flight_ring_name(12), "flight-w12.bin");
}

TEST(ReadCampaignLog, CountsTornLinesInsteadOfFailing) {
  const auto [names, residue] = read_names(
      "{\"event\":\"a\",\"t_us\":1}\n"
      "\n"
      "{\"event\":\"b\",\"t_us\":2}\n"
      "{\"event\":\"torn\",\"t_us\":3");  // killed writer: no closing brace
  EXPECT_EQ(residue, 1u);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

TEST(ReadCampaignLog, ResidueBeforeDeltaPlanIsSkipped) {
  // Every run/resume/delta session opens with delta.plan.
  const auto [names, residue] = read_names(
      std::string("{\"event\":\"delta.done\",\"t_us\":5}\n") + kResidue +
      "{\"event\":\"delta.plan\",\"t_us\":1}\n"
      "{\"event\":\"journal.resume_scan\",\"t_us\":2}\n");
  EXPECT_EQ(residue, 1u);
  EXPECT_EQ(names, (std::vector<std::string>{"delta.done", "delta.plan",
                                             "journal.resume_scan"}));
}

TEST(ReadCampaignLog, ResidueBeforeResumeScanIsSkipped) {
  const auto [names, residue] = read_names(
      std::string("{\"event\":\"delta.plan\",\"t_us\":5}\n") + kResidue +
      "{\"event\":\"journal.resume_scan\",\"t_us\":2}\n");
  EXPECT_EQ(residue, 1u);
  EXPECT_EQ(names,
            (std::vector<std::string>{"delta.plan", "journal.resume_scan"}));
}

TEST(ReadCampaignLog, CompleteButCorruptLineIsAnErrorWithItsLineNumber) {
  std::istringstream in(
      "{\"event\":\"a\",\"t_us\":1}\n"
      "{\"event\":\"b\",\"t_us\":2,}\n"  // ends in '}': not a torn write
      "{\"event\":\"c\",\"t_us\":3}\n");
  try {
    read_campaign_log(in, "some.ndjson",
                      [](std::vector<Field>&, std::string_view) {});
    FAIL() << "a corrupt line must not read as residue";
  } catch (const std::runtime_error& err) {
    EXPECT_EQ(std::string(err.what()),
              "malformed telemetry line 2 in some.ndjson: "
              "{\"event\":\"b\",\"t_us\":2,}");
  }
}

TEST(ReadCampaignLog, EventWithoutNameIsAnError) {
  std::istringstream in("{\"t_us\":1}\n");
  EXPECT_THROW(read_campaign_log(in, "log",
                                 [](std::vector<Field>&, std::string_view) {}),
               std::runtime_error);
}

TEST(ReadCampaignLog, PassesTheRawLineAlong) {
  std::istringstream in("{\"event\":\"a\",\"t_us\":1}\n");
  std::string seen;
  read_campaign_log(in, "log", [&](std::vector<Field>&, std::string_view line) {
    seen = line;
  });
  EXPECT_EQ(seen, "{\"event\":\"a\",\"t_us\":1}");
}

TEST_F(CampaignLogTest, MissingFileIsAnError) {
  EXPECT_THROW(read_campaign_log(dir_ / "absent.ndjson",
                                 [](std::vector<Field>&, std::string_view) {}),
               std::runtime_error);
}

TEST_F(CampaignLogTest, FindsDispatcherFirstThenWorkersInNumericOrder) {
  for (const char* name :
       {"telemetry-w10.ndjson", "telemetry-w2.ndjson", "telemetry.ndjson",
        "telemetry-w0.ndjson", "telemetry-wx.ndjson", "telemetry-w.ndjson",
        "telemetry-w+1.ndjson", "telemetry-w4294967296.ndjson",
        "flight-w2.bin", "flight-w0.bin", "shard-000000.pjl"}) {
    write(name, "");
  }
  const CampaignLogSet set = find_campaign_logs(dir_);
  ASSERT_EQ(set.logs.size(), 4u);
  EXPECT_EQ(set.logs[0].label, "dispatcher");
  EXPECT_EQ(set.logs[0].path, dir_ / "telemetry.ndjson");
  EXPECT_FALSE(set.logs[0].worker_id.has_value());
  const std::vector<std::string> labels = {"w0", "w2", "w10"};
  const std::vector<std::uint32_t> ids = {0, 2, 10};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(set.logs[i + 1].label, labels[i]);
    EXPECT_EQ(set.logs[i + 1].worker_id, ids[i]);
    EXPECT_EQ(set.logs[i + 1].path, dir_ / worker_log_name(ids[i]));
  }
  ASSERT_EQ(set.flight_rings.size(), 2u);
  EXPECT_EQ(set.flight_rings.at(0), dir_ / "flight-w0.bin");
  EXPECT_EQ(set.flight_rings.at(2), dir_ / "flight-w2.bin");
}

TEST_F(CampaignLogTest, WorkerLogsWithoutADispatcherLog) {
  write("telemetry-w1.ndjson", "");
  const CampaignLogSet set = find_campaign_logs(dir_);
  ASSERT_EQ(set.logs.size(), 1u);
  EXPECT_EQ(set.logs[0].label, "w1");
}

TEST_F(CampaignLogTest, MetricsOutNarrowsTheLogsToThatFile) {
  write("telemetry.ndjson", "");
  write("telemetry-w0.ndjson", "");
  write("flight-w0.bin", "");
  const fs::path out = dir_ / "elsewhere.ndjson";
  const CampaignLogSet set = find_campaign_logs(dir_, out);
  ASSERT_EQ(set.logs.size(), 1u);
  EXPECT_EQ(set.logs[0].label, "dispatcher");
  EXPECT_EQ(set.logs[0].path, out);
  EXPECT_EQ(set.flight_rings.size(), 1u);
}

TEST_F(CampaignLogTest, SummaryTalliesBatchesAndOccupancyAcrossStreams) {
  write("telemetry.ndjson",
        "{\"event\":\"delta.plan\",\"t_us\":100}\n"
        "{\"event\":\"campaign.batch.done\",\"t_us\":200,\"settled\":30,"
        "\"diverged\":10,\"dur_us\":1000}\n"
        "{\"event\":\"delta.done\",\"t_us\":300,\"executed\":30}\n"
        "{\"event\":\"metric\",\"t_us\":400,\"kind\":\"histogram\","
        "\"name\":\"batch.group.lanes\",\"count\":1,\"sum\":30,\"p50\":30,"
        "\"p90\":30,\"p99\":30}\n"
        "{\"event\":\"metric\",\"t_us\":2500100,\"kind\":\"counter\","
        "\"name\":\"journal.appends\",\"value\":30}\n");
  write("telemetry-w0.ndjson",
        "{\"event\":\"campaign.batch.done\",\"t_us\":50,\"settled\":32,"
        "\"diverged\":4,\"dur_us\":3000}\n"
        "{\"event\":\"campaign.batch.done\",\"t_us\":60,\"settled\":2,"
        "\"diverged\":2,\"dur_us\":500}\n"
        "{\"event\":\"delta.done\",\"t_us\":70,\"executed\":34,"
        "\"wall_s\":0.25}\n"
        "{\"event\":\"metric\",\"t_us\":80,\"kind\":\"histogram\","
        "\"name\":\"batch.group.lanes\",\"count\":2,\"sum\":34,\"p50\":16,"
        "\"p90\":31.5,\"p99\":32}\n"
        "{\"event\":\"metric\",\"t_us\":90");  // torn
  const CampaignLogSummary summary =
      summarize_campaign_logs(find_campaign_logs(dir_).logs);

  ASSERT_EQ(summary.streams.size(), 2u);
  const LogTally& dispatcher = summary.streams[0];
  EXPECT_EQ(dispatcher.label, "dispatcher");
  EXPECT_EQ(dispatcher.events, 5u);
  EXPECT_EQ(dispatcher.batches, 1u);
  EXPECT_EQ(dispatcher.injections, 30u);
  EXPECT_EQ(dispatcher.diverged, 10u);
  EXPECT_DOUBLE_EQ(dispatcher.span_s, 2.5);
  const LogTally& worker = summary.streams[1];
  EXPECT_EQ(worker.label, "w0");
  EXPECT_EQ(worker.events, 4u);
  EXPECT_EQ(worker.torn, 1u);
  EXPECT_EQ(worker.batches, 2u);
  EXPECT_EQ(worker.injections, 34u);
  EXPECT_EQ(worker.diverged, 6u);
  EXPECT_DOUBLE_EQ(worker.batch_dur_max_us, 3000.0);

  const LogTally& total = summary.total;
  EXPECT_EQ(total.events, 9u);
  EXPECT_EQ(total.torn, 1u);
  EXPECT_EQ(total.batches, 3u);
  EXPECT_EQ(total.injections, 64u);
  EXPECT_EQ(total.diverged, 16u);
  EXPECT_DOUBLE_EQ(total.batch_dur_sum_us / 3.0, 1500.0);  // mean dur_us
  EXPECT_DOUBLE_EQ(total.batch_dur_max_us, 3000.0);
  EXPECT_DOUBLE_EQ(total.span_s, 2.5);  // the longest stream

  EXPECT_EQ(summary.event_counts.at("campaign.batch.done"), 3u);
  EXPECT_EQ(summary.event_counts.at("metric"), 3u);
  // Occupancy totals sum over sessions and streams: 64 lanes, 3 batches.
  EXPECT_EQ(summary.lane_batches, 3u);
  EXPECT_DOUBLE_EQ(summary.lanes, 64.0);
  // The last delta.done read wins, without its envelope fields.
  ASSERT_EQ(summary.last_session.size(), 2u);
  EXPECT_EQ(summary.last_session[0].key, "executed");
  EXPECT_EQ(summary.last_session[1].key, "wall_s");
  // Final metric values; the last stream's histogram wins its name.
  EXPECT_EQ(summary.final_metrics.at("journal.appends"), "30");
  EXPECT_EQ(summary.final_metrics.at("batch.group.lanes"),
            "count=2, p50=16, p90=31.5, p99=32");
}

TEST_F(CampaignLogTest, SummaryRejectsACorruptStream) {
  write("telemetry.ndjson", "{\"event\":\"a\",\"t_us\":1}\n");
  write("telemetry-w0.ndjson",
        "{\"event\":\"a\"}}\n{\"event\":\"b\",\"t_us\":2}\n");
  EXPECT_THROW(summarize_campaign_logs(find_campaign_logs(dir_).logs),
               std::runtime_error);
}

std::vector<std::vector<Field>> read_all(const fs::path& path) {
  std::vector<std::vector<Field>> events;
  read_campaign_log(path, [&](std::vector<Field>& fields, std::string_view) {
    events.push_back(fields);
  });
  return events;
}

TEST_F(CampaignLogTest, WriterAppendsOneMetricEventPerMetric) {
  CampaignLogOptions options;
  options.journal_dir = dir_ / "journal";
  CampaignLogWriter log(options);
  ASSERT_NE(log.telemetry(), nullptr);
  EXPECT_EQ(log.path(), dir_ / "journal" / "telemetry.ndjson");
  find_counter(log.telemetry(), "c")->add(7);
  find_gauge(log.telemetry(), "g")->set(2.5);
  find_histogram(log.telemetry(), "h", {1, 10})->observe(4);
  emit_event(log.telemetry(), "session.event");
  EXPECT_EQ(log.close(), 1u + 3u + 2u);  // event + 3 metrics + 2 span gauges
  EXPECT_EQ(log.close(), 6u);            // a second close adds nothing

  std::map<std::string, std::string> kinds;
  for (const auto& event : read_all(log.path())) {
    if (find_field(event, "event")->as_string() != "metric") continue;
    kinds[find_field(event, "name")->as_string()] =
        find_field(event, "kind")->as_string();
  }
  EXPECT_EQ(kinds.at("c"), "counter");
  EXPECT_EQ(kinds.at("g"), "gauge");
  EXPECT_EQ(kinds.at("h"), "histogram");
  EXPECT_EQ(kinds.at("obs.spans.buffered"), "gauge");
  EXPECT_EQ(kinds.size(), 5u);
}

TEST_F(CampaignLogTest, WriterAppendsToAResumedLog) {
  CampaignLogOptions options;
  options.journal_dir = dir_;
  write("telemetry.ndjson", "{\"event\":\"old\",\"t_us\":1}\n");
  CampaignLogWriter(options).close();
  const auto events = read_all(dir_ / "telemetry.ndjson");
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(find_field(events[0], "event")->as_string(), "old");
}

TEST_F(CampaignLogTest, DisabledWriterWritesNoFile) {
  CampaignLogOptions options;
  options.journal_dir = dir_ / "journal";
  options.enabled = false;
  options.worker_id = 0;
  {
    CampaignLogWriter log(options);
    EXPECT_EQ(log.telemetry(), nullptr);
    EXPECT_EQ(log.close(), 0u);
  }
  EXPECT_FALSE(fs::exists(dir_ / "journal"));
}

TEST_F(CampaignLogTest, MetricsOutRedirectsTheLog) {
  CampaignLogOptions options;
  options.journal_dir = dir_ / "journal";
  options.metrics_out = dir_ / "out" / "events.ndjson";
  CampaignLogWriter(options).close();
  EXPECT_TRUE(fs::exists(dir_ / "out" / "events.ndjson"));
  EXPECT_FALSE(fs::exists(dir_ / "journal"));
}

TEST_F(CampaignLogTest, WorkerTeesEventsIntoItsFlightRing) {
  CampaignLogOptions options;
  options.journal_dir = dir_;
  options.worker_id = 4;
  {
    CampaignLogWriter log(options);
    EXPECT_EQ(log.path(), dir_ / "telemetry-w4.ndjson");
    emit_event(log.telemetry(), "worker.event");
    log.close(/*clean_exit=*/true);
  }
  const auto ring = read_flight_recording(dir_ / "flight-w4.bin");
  ASSERT_TRUE(ring.has_value());
  EXPECT_EQ(ring->worker_id, 4u);
  EXPECT_TRUE(ring->clean_exit);
  // The final metric events go to the NDJSON log only.
  ASSERT_EQ(ring->lines.size(), 1u);
  EXPECT_NE(ring->lines[0].find("worker.event"), std::string::npos);
  EXPECT_GT(read_all(dir_ / "telemetry-w4.ndjson").size(), 1u);
}

TEST_F(CampaignLogTest, WorkerLogNeverClosedKeepsTheCrashFlag) {
  CampaignLogOptions options;
  options.journal_dir = dir_;
  options.worker_id = 1;
  { CampaignLogWriter log(options); }
  const auto ring = read_flight_recording(dir_ / "flight-w1.bin");
  ASSERT_TRUE(ring.has_value());
  EXPECT_FALSE(ring->clean_exit);
}

}  // namespace
}  // namespace propane::obs
