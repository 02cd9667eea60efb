// Worker protocol-loop tests (svc/worker.hpp), driven entirely through
// stringstreams: a worker fed scripted LEASE lines must journal exactly
// the leased ranges, answer DONE with honest counts (only after the
// lease's span is out), rebuild its session on rescan leases, and FAIL
// fast on a malformed dispatcher line.
//
// The toy campaign is the one from tests/store/resume_test.cpp: 4
// injections x 3 test cases = 12 runs over a two-signal bus.
#include "svc/worker.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/system_model.hpp"
#include "obs/ndjson.hpp"
#include "obs/telemetry.hpp"
#include "store/result_cache.hpp"
#include "svc/wire.hpp"

namespace propane::svc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

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

/// Single-process reference journal through the store's campaign entry
/// point, against an empty baseline.
void run_reference(const fs::path& dir) {
  const core::SystemModel model = toy_model();
  store::run_delta_journaled_campaign(toy_run, toy_config(), model,
                                      toy_binding(model), dir,
                                      store::ResultCache{});
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = toy_model();
  std::ostringstream out;
  store::write_permeability_csv_from_journal(out, dir, model,
                                             toy_binding(model));
  return out.str();
}

WorkerConfig worker_config(const fs::path& dir, std::uint32_t id = 0) {
  WorkerConfig worker;
  worker.worker_id = id;
  worker.journal_dir = dir;
  return worker;
}

std::vector<std::string> output_lines(const std::ostringstream& out) {
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Parses an output line and returns it as a DoneMsg, failing the test on
/// anything else.
DoneMsg expect_done(const std::string& line) {
  const auto parsed = parse_wire(line);
  EXPECT_TRUE(parsed.has_value()) << line;
  if (!parsed || !std::holds_alternative<DoneMsg>(*parsed)) {
    ADD_FAILURE() << "expected DONE, got: " << line;
    return DoneMsg{};
  }
  return std::get<DoneMsg>(*parsed);
}

TEST(Worker, ExecutesLeasedRangesAndReportsDone) {
  const fs::path dir = fresh_dir("worker_basic");
  std::istringstream in("LEASE 1 0 6 0\nLEASE 2 6 12 0\nSHUTDOWN\n");
  std::ostringstream out;
  WorkerSummary summary;
  const int code = run_worker_loop(toy_run, toy_config(),
                                   worker_config(dir, 3), in, out, &summary);
  EXPECT_EQ(code, 0);

  const std::vector<std::string> lines = output_lines(out);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("HELLO 3 ", 0), 0u) << lines[0];
  EXPECT_EQ(expect_done(lines[1]).executed, 6u);
  EXPECT_EQ(expect_done(lines[2]).executed, 6u);
  EXPECT_EQ(summary.leases, 2u);
  EXPECT_EQ(summary.executed, 12u);

  const store::CampaignDirState state = store::scan_campaign_dir(dir);
  EXPECT_EQ(state.completed_count, 12u);
  EXPECT_EQ(state.duplicate_count, 0u);
}

TEST(Worker, LeasedCampaignMatchesSingleProcessByteForByte) {
  const fs::path reference = fresh_dir("worker_ref");
  run_reference(reference);

  const fs::path dir = fresh_dir("worker_leased");
  std::istringstream in("LEASE 1 0 5 0\nLEASE 2 5 12 0\nSHUTDOWN\n");
  std::ostringstream out;
  ASSERT_EQ(run_worker_loop(toy_run, toy_config(), worker_config(dir), in,
                            out, nullptr),
            0);
  EXPECT_EQ(journal_csv(dir), journal_csv(reference));
}

// With fingerprinting configured, a leased journal replays as a delta
// baseline exactly like a single-process one: every record carries the
// fingerprint run_delta_journaled_campaign would have stamped.
TEST(Worker, FingerprintedJournalServesAsADeltaBaseline) {
  const fs::path dir = fresh_dir("worker_fingerprinted");
  const core::SystemModel model = toy_model();
  WorkerConfig worker = worker_config(dir);
  worker.fingerprints =
      RecordFingerprinting{model, toy_binding(model), {{"M", 7}}};
  std::istringstream in("LEASE 1 0 12 0\nSHUTDOWN\n");
  std::ostringstream out;
  ASSERT_EQ(run_worker_loop(toy_run, toy_config(), worker, in, out), 0);

  const store::ResultCache baseline = store::ResultCache::load(dir);
  EXPECT_EQ(baseline.record_count(), 12u);
  EXPECT_EQ(baseline.unfingerprinted(), 0u);

  store::DeltaRunOptions options;
  options.module_versions = {{"M", 7}};
  const fs::path delta = fresh_dir("worker_fingerprinted_delta");
  const store::DeltaJournalSummary summary =
      store::run_delta_journaled_campaign(toy_run, toy_config(), model,
                                          toy_binding(model), delta, baseline,
                                          options);
  EXPECT_EQ(summary.executed, 0u);
  EXPECT_EQ(summary.replayed, 12u);
  EXPECT_EQ(journal_csv(delta), journal_csv(dir));
}

TEST(Worker, RescanLeaseSkipsRunsAlreadyJournaled) {
  const fs::path dir = fresh_dir("worker_rescan");
  // Lease 2 re-covers the whole plan with rescan=1, as the dispatcher does
  // after a worker death: the rebuilt session must skip the 6 runs lease 1
  // already journaled and execute only the missing 6.
  std::istringstream in("LEASE 1 0 6 0\nLEASE 2 0 12 1\nSHUTDOWN\n");
  std::ostringstream out;
  WorkerSummary summary;
  ASSERT_EQ(run_worker_loop(toy_run, toy_config(), worker_config(dir), in,
                            out, &summary),
            0);

  const std::vector<std::string> lines = output_lines(out);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(expect_done(lines[1]).executed, 6u);
  EXPECT_EQ(expect_done(lines[2]).executed, 6u);

  const store::CampaignDirState state = store::scan_campaign_dir(dir);
  EXPECT_EQ(state.completed_count, 12u);
  EXPECT_EQ(state.duplicate_count, 0u);

  const fs::path reference = fresh_dir("worker_rescan_ref");
  run_reference(reference);
  EXPECT_EQ(journal_csv(dir), journal_csv(reference));
}

/// Event sink that snapshots the wire output at every worker.lease span
/// event, so a test can see what the dispatcher had already been told.
class LeaseSpanProbe : public obs::EventSink {
 public:
  explicit LeaseSpanProbe(const std::ostringstream& wire) : wire_(wire) {}
  void emit(const obs::Event& event) override {
    if (event.name != "span") return;
    for (const obs::Field& field : event.fields) {
      if (field.key == "name" && field.value == obs::Value("worker.lease")) {
        const std::lock_guard<std::mutex> lock(mu_);
        wire_at_span_.push_back(wire_.str());
      }
    }
  }
  std::vector<std::string> wire_at_span() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return wire_at_span_;
  }

 private:
  const std::ostringstream& wire_;
  mutable std::mutex mu_;
  std::vector<std::string> wire_at_span_;
};

TEST(Worker, LeaseSpanIsEmittedBeforeDone) {
  // DONE lets the dispatcher grant the next lease or kill this worker, so
  // the lease's span event (which also feeds the crash flight ring) must
  // already be out by the time DONE is written.
  const fs::path dir = fresh_dir("worker_span_order");
  std::istringstream in("LEASE 1 0 6 0\nSHUTDOWN\n");
  std::ostringstream out;
  LeaseSpanProbe probe(out);
  obs::Telemetry telemetry;
  telemetry.events = &probe;
  WorkerConfig worker = worker_config(dir);
  worker.journal.telemetry = &telemetry;
  ASSERT_EQ(run_worker_loop(toy_run, toy_config(), worker, in, out), 0);

  const std::vector<std::string> wire_at_span = probe.wire_at_span();
  ASSERT_EQ(wire_at_span.size(), 1u);
  const std::string& wire = wire_at_span[0];
  EXPECT_EQ(wire.rfind("HELLO ", 0), 0u) << wire;
  EXPECT_EQ(wire.find("DONE"), std::string::npos) << wire;
  const std::vector<std::string> lines = output_lines(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(expect_done(lines[1]).executed, 6u);
}

TEST(Worker, MalformedDispatcherLineFailsFast) {
  const fs::path dir = fresh_dir("worker_malformed");
  std::istringstream in("BOGUS LINE\n");
  std::ostringstream out;
  EXPECT_EQ(
      run_worker_loop(toy_run, toy_config(), worker_config(dir), in, out),
      1);
  const std::vector<std::string> lines = output_lines(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1].rfind("FAIL 0 ", 0), 0u) << lines[1];
}

TEST(Worker, DispatcherEofIsACleanExit) {
  const fs::path dir = fresh_dir("worker_eof");
  std::istringstream in;  // dispatcher died before sending anything
  std::ostringstream out;
  EXPECT_EQ(
      run_worker_loop(toy_run, toy_config(), worker_config(dir), in, out),
      0);
  EXPECT_EQ(output_lines(out).size(), 1u);  // just the HELLO
}

}  // namespace
}  // namespace propane::svc
