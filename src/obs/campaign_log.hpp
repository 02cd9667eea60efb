// The telemetry log set a campaign leaves in its journal directory, and
// the one place that knows its file names:
//
//   telemetry.ndjson        the dispatcher's (or single process's) events
//   telemetry-w<id>.ndjson  worker <id>'s events (concurrent appenders to
//                           one file would tear lines)
//   flight-w<id>.bin        worker <id>'s crash flight ring (obs/flight.hpp)
//
// Damaged lines: the sink writes whole lines and, reopening a log whose
// last line lacks its newline, adds one. A writer killed mid-line thus
// leaves one truncated line -- not ending in '}' -- wherever the next
// session starts appending. That is crash residue, skipped anywhere in the
// file; any other malformed line is corruption.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/ndjson.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace propane::obs {

inline constexpr std::string_view kCampaignLogName = "telemetry.ndjson";
std::string worker_log_name(std::uint32_t worker_id);   // telemetry-w<id>...
std::string flight_ring_name(std::uint32_t worker_id);  // flight-w<id>.bin

struct CampaignLogOptions {
  std::filesystem::path journal_dir;
  std::filesystem::path metrics_out;  // empty: the log's name in journal_dir
  bool enabled = true;                // false: no file, null telemetry
  /// Set for a campaign worker: its own log, a flight ring in journal_dir
  /// that every event is teed into, and a span-id range of its own.
  std::optional<std::uint32_t> worker_id;
};

/// Where a writer with `options` appends its events.
std::filesystem::path campaign_log_path(const CampaignLogOptions& options);

/// Metrics registry, span buffer and appending NDJSON sink for one
/// campaign subcommand (plus, for a worker, the flight ring). Destroyed
/// without close() -- a failed session -- it appends no final metrics and
/// a worker's ring keeps its crash flag. Holds pointers into itself.
class CampaignLogWriter {
 public:
  explicit CampaignLogWriter(const CampaignLogOptions& options);
  CampaignLogWriter(const CampaignLogWriter&) = delete;
  CampaignLogWriter& operator=(const CampaignLogWriter&) = delete;

  /// The bundle to thread through the campaign; null when disabled.
  const Telemetry* telemetry() const {
    return sink_.has_value() ? &telemetry_ : nullptr;
  }
  const std::filesystem::path& path() const { return path_; }

  /// Publishes span stats, appends one `metric` event per final metric
  /// value (to the NDJSON log, not the flight ring) and flushes;
  /// `clean_exit` sets a worker's clean-exit flag. Returns the events this
  /// writer appended. Later calls only return the count.
  std::size_t close(bool clean_exit = true);

 private:
  std::filesystem::path path_;
  MetricsRegistry metrics_;
  SpanBuffer spans_;
  std::optional<NdjsonSink> sink_;
  std::optional<FlightRecorder> flight_;
  std::optional<FlightSink> flight_sink_;
  std::optional<TeeSink> tee_;
  Telemetry telemetry_;
  bool closed_ = false;
};

struct CampaignLog {
  std::string label;                       // "dispatcher" or "w<id>"
  std::optional<std::uint32_t> worker_id;  // set for worker logs
  std::filesystem::path path;
};

struct CampaignLogSet {
  std::vector<CampaignLog> logs;  // dispatcher first, then workers by id
  std::map<std::uint32_t, std::filesystem::path> flight_rings;  // by id
};

/// Scans `journal_dir` once. A non-empty `metrics_out` narrows the logs to
/// that one file, labelled "dispatcher"; the flight rings stay the
/// journal's.
CampaignLogSet find_campaign_logs(const std::filesystem::path& journal_dir,
                                  const std::filesystem::path& metrics_out =
                                      {});

/// Called once per event with its parsed fields and its raw line.
using CampaignLogVisitor =
    std::function<void(std::vector<Field>& fields, std::string_view line)>;

/// Reads one NDJSON log, skipping blank lines and crash residue; returns
/// the residue lines skipped. Throws std::runtime_error naming `origin`
/// and the line number on a corrupt line or an event without a name.
std::size_t read_campaign_log(std::istream& in, const std::string& origin,
                              const CampaignLogVisitor& visit);
/// As above, from a file; throws when it cannot be opened.
std::size_t read_campaign_log(const std::filesystem::path& path,
                              const CampaignLogVisitor& visit);

/// Event tallies of one stream, or of all of them.
struct LogTally {
  std::string label;
  std::size_t events = 0;
  std::size_t torn = 0;        // crash-residue lines skipped
  std::size_t batches = 0;     // campaign.batch.done events
  std::size_t injections = 0;  // their `settled` fields, summed
  std::size_t diverged = 0;    // their `diverged` fields, summed
  double batch_dur_sum_us = 0.0;
  double batch_dur_max_us = 0.0;
  double span_s = 0.0;  // first to last t_us; the total's is the longest
};

/// What `campaign top` prints.
struct CampaignLogSummary {
  LogTally total;
  std::vector<LogTally> streams;
  std::map<std::string, std::size_t> event_counts;
  std::vector<Field> last_session;  // the last delta.done, less event/t_us
  /// Final value per metric; for a histogram "count=.., p50=.., ...".
  std::map<std::string, std::string> final_metrics;
  /// batch.group.lanes totals over sessions and streams: batches, lanes.
  std::uint64_t lane_batches = 0;
  double lanes = 0.0;
};

/// Reads every log (throws as read_campaign_log does).
CampaignLogSummary summarize_campaign_logs(
    const std::vector<CampaignLog>& logs);

}  // namespace propane::obs
