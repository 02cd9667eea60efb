// Merged Chrome/Perfetto trace export for cross-process campaigns.
//
// A served campaign leaves one NDJSON telemetry stream per process: the
// dispatcher's telemetry.ndjson plus one telemetry-w<id>.ndjson per
// worker. Each stream's timestamps count from that process's own
// steady-clock epoch (obs/clock.hpp), so merging them needs a per-stream
// clock offset -- recovered from the HELLO handshake: the worker stamps
// its own steady_us on HELLO, the dispatcher logs its receipt time, and
// the difference dates one clock against the other (pipe latency, tens of
// microseconds, is the error bound).
//
// The exporter renders the merged streams as Chrome trace-event JSON
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// -- the format both chrome://tracing and ui.perfetto.dev load):
//
//   * "span" events         -> "X" complete events on their thread track,
//                              args carrying span_id/parent_span_id so the
//                              cross-process parent chain (worker run ->
//                              worker.lease -> serve.lease) is navigable;
//   * campaign.batch.done   -> synthesized "campaign.batch" X events, one
//                              per chunk of lockstep batches (or scalar
//                              batch), parented by time containment
//                              under the enclosing worker.lease span --
//                              injection runs are accounted per batch, and
//                              no per-run event exists to draw;
//   * campaign.run.end      -> synthesized "campaign.run" X events for the
//                              golden runs (paired start/end events, not
//                              spans), parented the same way;
//   * pending/runs_covered/ -> "C" counter tracks (queue depth, partial-
//     runs-per-second          estimate progress, completion rate);
//   * final "metric" counter
//     events                -> one "C" sample each (batch-kernel tick
//                              counters land here);
//   * remaining serve.*/
//     worker/golden events  -> "i" instants;
//   * campaign.run.start and other bookkeeping events are skipped -- a
//     trace is a timeline, not a replay log.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/campaign_log.hpp"
#include "obs/ndjson.hpp"

namespace propane::obs {

/// One process's parsed telemetry stream, with the clock offset that maps
/// its process-local timestamps onto the merged timeline.
struct TraceStream {
  std::string name;                 // track name, e.g. "dispatcher"
  std::int64_t pid = 0;             // trace process id (the real pid)
  std::int64_t clock_offset_us = 0; // added to every t_us/start_us
  std::vector<std::vector<Field>> events;
};

struct TraceExportSummary {
  std::size_t trace_events = 0;     // total entries in traceEvents
  std::size_t spans = 0;            // X events from real "span" events
  std::size_t synthesized = 0;      // X events synthesized from run/batch
  std::size_t counter_samples = 0;  // C samples
  std::size_t instants = 0;         // i events
};

/// Clock offsets for worker streams, from the dispatcher's
/// serve.worker.hello events: offset = dispatcher receipt t_us - the
/// worker_steady_us the worker stamped on HELLO. Workers whose hello
/// predates the trace context (no worker_steady_us field) are absent.
std::map<std::uint32_t, std::int64_t> hello_clock_offsets(
    const TraceStream& dispatcher);

/// What became of one worker's flight ring.
struct FlightReport {
  std::uint32_t worker_id = 0;
  std::uint64_t pid = 0;
  bool clean_exit = false;
  std::size_t ring_events = 0;
  std::size_t recovered = 0;  // ring lines missing from the NDJSON log
};

struct TraceStreamSet {
  std::vector<TraceStream> streams;
  std::size_t torn_lines = 0;  // crash residue skipped (read_campaign_log)
  std::size_t crashed = 0;     // flight rings without the clean-exit flag
  std::vector<FlightReport> postmortem;  // one per ring, when folded in
};

/// Reads a campaign's log set into trace streams. The dispatcher stream
/// anchors the timeline: its pid comes from serve.done, worker pids from
/// serve.worker.spawn (else 1000 + id), worker clock offsets from the
/// HELLO handshake. With `postmortem`, each flight ring's lines that the
/// worker's NDJSON log lacks are appended to its stream (a stream is
/// created for a worker that has none), followed by one flight.recovered
/// event. Throws as read_campaign_log does.
TraceStreamSet assemble_trace_streams(const CampaignLogSet& logs,
                                      bool postmortem);

/// Writes the merged streams as one Chrome trace-event JSON object.
TraceExportSummary write_chrome_trace(std::ostream& out,
                                      const std::vector<TraceStream>& streams);

}  // namespace propane::obs
