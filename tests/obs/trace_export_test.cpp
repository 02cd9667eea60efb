// Merged Chrome-trace export: stream assembly from a campaign's log set
// (pids, HELLO clock offsets, the postmortem flight-ring fold-in), and the
// render pass -- span X events with the
// cross-process parent chain in args, synthesized run/batch spans parented
// by lease containment, counter tracks, instants and metadata rows.
#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"

namespace propane::obs {
namespace {

std::vector<Field> event_row(std::string name,
                             std::vector<Field> extra = {}) {
  std::vector<Field> row = {{"event", Value(std::move(name))}};
  for (Field& field : extra) row.push_back(std::move(field));
  return row;
}

TEST(HelloClockOffsets, DatesWorkerClocksAgainstTheDispatcher) {
  TraceStream dispatcher;
  dispatcher.events.push_back(event_row(
      "serve.worker.hello", {{"worker_id", Value(std::uint64_t{0})},
                             {"t_us", Value(std::uint64_t{5000})},
                             {"worker_steady_us", Value(std::uint64_t{40})}}));
  dispatcher.events.push_back(event_row(
      "serve.worker.hello", {{"worker_id", Value(std::uint64_t{1})},
                             {"t_us", Value(std::uint64_t{9000})},
                             {"worker_steady_us", Value(std::uint64_t{25})}}));
  // A pre-trace-context hello (no worker_steady_us) contributes nothing.
  dispatcher.events.push_back(event_row(
      "serve.worker.hello", {{"worker_id", Value(std::uint64_t{2})},
                             {"t_us", Value(std::uint64_t{9500})}}));
  const auto offsets = hello_clock_offsets(dispatcher);
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets.at(0), 4960);
  EXPECT_EQ(offsets.at(1), 8975);
  EXPECT_EQ(offsets.count(2), 0u);
}

TEST(HelloClockOffsets, ShiftsByTheDispatcherOwnOffset) {
  TraceStream dispatcher;
  dispatcher.clock_offset_us = 100;
  dispatcher.events.push_back(event_row(
      "serve.worker.hello", {{"worker_id", Value(std::uint64_t{0})},
                             {"t_us", Value(std::uint64_t{1000})},
                             {"worker_steady_us", Value(std::uint64_t{10})}}));
  EXPECT_EQ(hello_clock_offsets(dispatcher).at(0), 1090);
}

TEST(WriteChromeTrace, RendersSpansWithTheCrossProcessParentChain) {
  TraceStream worker;
  worker.name = "w0";
  worker.pid = 4242;
  worker.clock_offset_us = 1000;
  worker.events.push_back(event_row(
      "span", {{"name", Value("worker.lease")},
               {"id", Value(std::uint64_t{77})},
               {"parent_id", Value(std::uint64_t{5})},
               {"tid", Value(std::uint64_t{1})},
               {"start_us", Value(std::uint64_t{100})},
               {"dur_us", Value(std::uint64_t{900})},
               {"t_us", Value(std::uint64_t{1000})},
               {"lease_id", Value(std::uint64_t{3})}}));
  std::ostringstream out;
  const TraceExportSummary summary = write_chrome_trace(out, {worker});
  const std::string trace = out.str();

  EXPECT_EQ(summary.spans, 1u);
  EXPECT_EQ(summary.trace_events, 2u);  // process_name M + the X event
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  // Process metadata names the track.
  EXPECT_NE(trace.find("\"ph\":\"M\",\"name\":\"process_name\",\"pid\":4242"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"w0\""), std::string::npos);
  // The span renders as a complete event at the clock-shifted start, with
  // the wire parent and pass-through fields in args.
  EXPECT_NE(trace.find("\"ph\":\"X\",\"name\":\"worker.lease\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"ts\":1100,\"dur\":900"), std::string::npos);
  EXPECT_NE(trace.find("\"span_id\":77"), std::string::npos);
  EXPECT_NE(trace.find("\"parent_span_id\":5"), std::string::npos);
  EXPECT_NE(trace.find("\"lease_id\":3"), std::string::npos);
}

TEST(WriteChromeTrace, ParentsSynthesizedRunsByLeaseContainment) {
  TraceStream worker;
  worker.name = "w1";
  worker.pid = 7;
  worker.events.push_back(event_row(
      "span", {{"name", Value("worker.lease")},
               {"id", Value(std::uint64_t{55})},
               {"start_us", Value(std::uint64_t{1000})},
               {"dur_us", Value(std::uint64_t{4000})}}));
  // Inside the lease window: adopted.
  worker.events.push_back(event_row(
      "campaign.run.end", {{"t_us", Value(std::uint64_t{3000})},
                           {"dur_us", Value(std::uint64_t{100})},
                           {"kind", Value("faulty")}}));
  // Outside any lease: synthesized without a parent.
  worker.events.push_back(event_row(
      "campaign.run.end", {{"t_us", Value(std::uint64_t{9000})},
                           {"dur_us", Value(std::uint64_t{50})}}));
  worker.events.push_back(event_row(
      "campaign.batch.done", {{"t_us", Value(std::uint64_t{4000})},
                              {"dur_us", Value(std::uint64_t{200})},
                              {"lanes", Value(std::uint64_t{16})}}));
  std::ostringstream out;
  const TraceExportSummary summary = write_chrome_trace(out, {worker});
  const std::string trace = out.str();

  EXPECT_EQ(summary.synthesized, 3u);
  // Runs and batches land on their virtual tracks, named via metadata.
  EXPECT_NE(trace.find("\"name\":\"campaign.run\",\"pid\":7,\"tid\":99"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"campaign.batch\",\"pid\":7,\"tid\":98"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"runs\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"batches\""), std::string::npos);
  // The contained run (and batch) carry the lease span as parent; the
  // orphan run must not.
  EXPECT_NE(trace.find("\"ts\":2900,\"dur\":100,\"args\":{\"kind\":\"faulty\","
                       "\"flat\":0,\"parent_span_id\":55}"),
            std::string::npos);
  EXPECT_NE(trace.find("\"parent_span_id\":55}"), std::string::npos);
  const std::size_t orphan = trace.find("\"ts\":8950,\"dur\":50");
  ASSERT_NE(orphan, std::string::npos);
  const std::size_t orphan_end = trace.find('\n', orphan);
  EXPECT_EQ(trace.substr(orphan, orphan_end - orphan).find("parent_span_id"),
            std::string::npos);
}

TEST(WriteChromeTrace, FallsBackToDispatcherLeaseWhenTheWorkerSpanIsLost) {
  // A worker SIGKILLed mid-lease never emits its worker.lease span; its
  // flight-recovered runs must still parent to the dispatcher's
  // serve.lease span, which the dispatcher closes on detecting the death.
  TraceStream dispatcher;
  dispatcher.name = "dispatcher";
  dispatcher.pid = 1;
  dispatcher.events.push_back(event_row(
      "span", {{"name", Value("serve.lease")},
               {"id", Value(std::uint64_t{12})},
               {"start_us", Value(std::uint64_t{1000})},
               {"dur_us", Value(std::uint64_t{8000})}}));
  TraceStream worker;
  worker.name = "w0";
  worker.pid = 2;
  worker.clock_offset_us = 500;  // HELLO-aligned onto dispatcher time
  worker.events.push_back(event_row(
      "campaign.run.end", {{"t_us", Value(std::uint64_t{2000})},
                           {"dur_us", Value(std::uint64_t{100})}}));
  std::ostringstream out;
  write_chrome_trace(out, {dispatcher, worker});
  const std::string trace = out.str();

  // Aligned run ts 2500 falls inside the dispatcher lease [1000, 9000].
  EXPECT_NE(trace.find("\"ts\":2400,\"dur\":100,\"args\":{\"kind\":\"run\","
                       "\"flat\":0,\"parent_span_id\":12}"),
            std::string::npos);
}

TEST(WriteChromeTrace, EmitsCounterTracksAndInstants) {
  TraceStream dispatcher;
  dispatcher.name = "dispatcher";
  dispatcher.pid = 1;
  dispatcher.events.push_back(event_row(
      "serve.lease.grant", {{"t_us", Value(std::uint64_t{100})},
                            {"pending", Value(std::uint64_t{9})}}));
  dispatcher.events.push_back(event_row(
      "serve.partial_estimate",
      {{"t_us", Value(std::uint64_t{200})},
       {"runs_covered", Value(std::uint64_t{64})}}));
  dispatcher.events.push_back(event_row(
      "serve.lease.complete", {{"t_us", Value(std::uint64_t{300})},
                               {"executed", Value(std::uint64_t{50})}}));
  dispatcher.events.push_back(event_row(
      "serve.lease.complete", {{"t_us", Value(std::uint64_t{500})},
                               {"executed", Value(std::uint64_t{30})}}));
  dispatcher.events.push_back(event_row(
      "metric", {{"t_us", Value(std::uint64_t{600})},
                 {"kind", Value("counter")},
                 {"name", Value("batch.kernel.ticks")},
                 {"value", Value(std::uint64_t{1234})}}));
  dispatcher.events.push_back(
      event_row("run.start", {{"t_us", Value(std::uint64_t{50})}}));
  std::ostringstream out;
  const TraceExportSummary summary = write_chrome_trace(out, {dispatcher});
  const std::string trace = out.str();

  EXPECT_NE(trace.find("\"ph\":\"C\",\"name\":\"serve.pending_ranges\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\",\"name\":\"serve.runs_covered\""),
            std::string::npos);
  // runs_done samples at both completions; runs_per_s needs a prior
  // completion to compute a rate, so only the second emits one.
  EXPECT_NE(trace.find("\"name\":\"serve.runs_done\",\"pid\":1,\"tid\":0,"
                       "\"ts\":300,\"args\":{\"value\":50}"),
            std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"value\":80}"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"serve.runs_per_s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\",\"name\":\"metric.batch.kernel.ticks\""),
            std::string::npos);
  // serve.* lifecycle events double as instants; per-run noise does not.
  EXPECT_NE(trace.find("\"ph\":\"i\",\"name\":\"serve.lease.grant\""),
            std::string::npos);
  EXPECT_EQ(trace.find("run.start"), std::string::npos);
  EXPECT_EQ(summary.instants, 4u);  // grant + partial + 2x complete
  EXPECT_GE(summary.counter_samples, 6u);
  EXPECT_EQ(summary.spans, 0u);
  EXPECT_EQ(summary.synthesized, 0u);
}

class AssembleTraceStreams : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("propane-trace-streams-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write(const std::string& name, const std::string& text) const {
    std::ofstream(dir_ / name) << text;
  }

  std::filesystem::path dir_;
};

std::string line(const std::string& event, std::uint64_t t_us) {
  return "{\"event\":\"" + event + "\",\"t_us\":" + std::to_string(t_us) +
         "}";
}

TEST_F(AssembleTraceStreams, AnchorsPidsAndClockOffsetsOnTheDispatcher) {
  write("telemetry.ndjson",
        "{\"event\":\"serve.worker.spawn\",\"t_us\":10,\"worker_id\":0,"
        "\"pid\":500}\n"
        "{\"event\":\"serve.worker.hello\",\"t_us\":5000,\"worker_id\":0,"
        "\"worker_steady_us\":40}\n"
        "{\"event\":\"serve.done\",\"t_us\":9000,\"pid\":77}\n");
  write("telemetry-w0.ndjson", line("worker.start", 1) + "\n");
  write("telemetry-w3.ndjson",
        line("worker.start", 2) + "\n{\"event\":\"torn\"");
  const TraceStreamSet set =
      assemble_trace_streams(find_campaign_logs(dir_), false);
  ASSERT_EQ(set.streams.size(), 3u);
  EXPECT_EQ(set.streams[0].name, "dispatcher");
  EXPECT_EQ(set.streams[0].pid, 77);
  EXPECT_EQ(set.streams[0].events.size(), 3u);
  EXPECT_EQ(set.streams[1].name, "w0");
  EXPECT_EQ(set.streams[1].pid, 500);
  EXPECT_EQ(set.streams[1].clock_offset_us, 4960);
  EXPECT_EQ(set.streams[2].name, "w3");
  EXPECT_EQ(set.streams[2].pid, 1003);  // never spawned: 1000 + id
  EXPECT_EQ(set.streams[2].clock_offset_us, 0);
  EXPECT_EQ(set.torn_lines, 1u);
  EXPECT_EQ(set.crashed, 0u);
  EXPECT_TRUE(set.postmortem.empty());
}

TEST_F(AssembleTraceStreams, PostmortemFoldsInOnlyLinesMissingFromTheLog) {
  // Worker 0 died: its NDJSON log holds the first two events, its flight
  // ring all four. Worker 5 left only a (clean) ring.
  write("telemetry-w0.ndjson",
        line("worker.a", 10) + "\n" + line("worker.b", 20) + "\n");
  {
    FlightRecorder ring(dir_ / flight_ring_name(0), 0);
    for (const auto& [event, t_us] :
         {std::pair<const char*, std::uint64_t>{"worker.a", 10},
          {"worker.b", 20}, {"worker.c", 40}, {"worker.d", 30}}) {
      ring.record_line(line(event, t_us));
    }
  }
  {
    FlightRecorder ring(dir_ / flight_ring_name(5), 5);
    ring.record_line(line("worker.e", 7));
    ring.mark_clean_exit();
  }
  const CampaignLogSet logs = find_campaign_logs(dir_);

  const TraceStreamSet plain = assemble_trace_streams(logs, false);
  EXPECT_EQ(plain.crashed, 1u);
  ASSERT_EQ(plain.streams.size(), 1u);
  EXPECT_EQ(plain.streams[0].events.size(), 2u);

  const TraceStreamSet set = assemble_trace_streams(logs, true);
  EXPECT_EQ(set.crashed, 1u);
  ASSERT_EQ(set.postmortem.size(), 2u);
  EXPECT_EQ(set.postmortem[0].worker_id, 0u);
  EXPECT_FALSE(set.postmortem[0].clean_exit);
  EXPECT_EQ(set.postmortem[0].ring_events, 4u);
  EXPECT_EQ(set.postmortem[0].recovered, 2u);
  EXPECT_EQ(set.postmortem[1].worker_id, 5u);
  EXPECT_TRUE(set.postmortem[1].clean_exit);
  EXPECT_EQ(set.postmortem[1].recovered, 1u);

  ASSERT_EQ(set.streams.size(), 2u);
  const std::vector<std::vector<Field>>& w0 = set.streams[0].events;
  ASSERT_EQ(w0.size(), 5u);  // 2 logged + 2 recovered + flight.recovered
  EXPECT_EQ(w0[2][0].value.as_string(), "worker.c");
  EXPECT_EQ(w0[3][0].value.as_string(), "worker.d");
  EXPECT_EQ(w0[4][0].value.as_string(), "flight.recovered");
  EXPECT_EQ(w0[4][1].value.as_uint(), 40u);  // t_us: the latest recovered
  std::size_t markers = 0;
  for (const auto& event : w0) {
    if (event[0].value.as_string() == "flight.recovered") ++markers;
  }
  EXPECT_EQ(markers, 1u);
  // A worker with only a ring gets a stream of its own.
  EXPECT_EQ(set.streams[1].name, "w5");
  EXPECT_EQ(set.streams[1].events.size(), 2u);
}

TEST_F(AssembleTraceStreams, CorruptLogIsAnError) {
  write("telemetry.ndjson", "{\"event\":\"a\",\"t_us\":}\n");
  EXPECT_THROW(assemble_trace_streams(find_campaign_logs(dir_), false),
               std::runtime_error);
}

}  // namespace
}  // namespace propane::obs
