#include "obs/trace_export.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <set>
#include <string_view>

namespace propane::obs {

namespace {

void append_number(std::string& out, std::int64_t v) {
  char buffer[24];
  const auto r = std::to_chars(buffer, buffer + sizeof(buffer), v);
  out.append(buffer, r.ptr);
}

/// Builds one trace-event JSON object. `args` may be empty.
std::string trace_event(char phase, std::string_view name, std::int64_t pid,
                        std::int64_t tid, std::int64_t ts, std::int64_t dur,
                        const std::vector<Field>& args,
                        std::string_view instant_scope = {}) {
  std::string out = "{\"ph\":\"";
  out += phase;
  out += "\",\"name\":\"";
  out += json_escape(name);
  out += "\",\"pid\":";
  append_number(out, pid);
  out += ",\"tid\":";
  append_number(out, tid);
  if (phase != 'M') {
    out += ",\"ts\":";
    append_number(out, ts);
  }
  if (phase == 'X') {
    out += ",\"dur\":";
    append_number(out, dur);
  }
  if (phase == 'i' && !instant_scope.empty()) {
    out += ",\"s\":\"";
    out += instant_scope;
    out += '"';
  }
  if (!args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const Field& field : args) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += json_escape(field.key);
      out += "\":";
      append_json_value(out, field.value);
    }
    out += '}';
  }
  out += '}';
  return out;
}

/// Span keys consumed into the X event envelope; every other field of a
/// "span" event (lease_id, worker_id, ...) passes through into args.
bool is_span_envelope_key(std::string_view key) {
  return key == "event" || key == "name" || key == "id" ||
         key == "parent_id" || key == "depth" || key == "tid" ||
         key == "start_us" || key == "dur_us" || key == "t_us";
}

/// Virtual thread tracks for synthesized events (real tids are small
/// thread ordinals; these sit far above them).
constexpr std::int64_t kRunsTid = 99;
constexpr std::int64_t kBatchesTid = 98;

struct LeaseInterval {
  std::int64_t start_ts = 0;
  std::int64_t end_ts = 0;
  std::uint64_t span_id = 0;
};

/// Appends the intervals of `stream`'s spans named `name`, on the merged
/// timeline.
void append_span_intervals(const TraceStream& stream, std::string_view name,
                           std::vector<LeaseInterval>& out) {
  for (const std::vector<Field>& event : stream.events) {
    if (str_or(event, "event", "") != "span" ||
        str_or(event, "name", "") != name) {
      continue;
    }
    const std::uint64_t dur = u64_or(event, "dur_us", 0);
    const std::int64_t start =
        stream.clock_offset_us +
        static_cast<std::int64_t>(
            u64_or(event, "start_us", u64_or(event, "t_us", 0) - dur));
    out.push_back(LeaseInterval{start, start + static_cast<std::int64_t>(dur),
                                u64_or(event, "id", 0)});
  }
}

}  // namespace

std::map<std::uint32_t, std::int64_t> hello_clock_offsets(
    const TraceStream& dispatcher) {
  std::map<std::uint32_t, std::int64_t> offsets;
  for (const std::vector<Field>& event : dispatcher.events) {
    if (str_or(event, "event", "") != "serve.worker.hello") continue;
    const Value* steady = find_field(event, "worker_steady_us");
    if (steady == nullptr || !steady->is_number()) continue;
    const auto worker_id =
        static_cast<std::uint32_t>(u64_or(event, "worker_id", 0));
    const auto receipt =
        static_cast<std::int64_t>(u64_or(event, "t_us", 0)) +
        dispatcher.clock_offset_us;
    offsets[worker_id] =
        receipt - static_cast<std::int64_t>(steady->as_uint());
  }
  return offsets;
}

TraceStreamSet assemble_trace_streams(const CampaignLogSet& logs,
                                      bool postmortem) {
  TraceStreamSet set;
  // Raw lines per worker, for telling which flight-ring lines the NDJSON
  // log already holds.
  std::map<std::uint32_t, std::set<std::string>> worker_lines;
  std::map<std::uint32_t, std::size_t> worker_stream_index;
  for (const CampaignLog& log : logs.logs) {
    TraceStream stream;
    stream.name = log.label;
    stream.pid = 1;  // the dispatcher's is refined from serve.done below
    std::set<std::string>* seen = nullptr;
    if (log.worker_id.has_value()) {
      worker_stream_index[*log.worker_id] = set.streams.size();
      seen = &worker_lines[*log.worker_id];
    }
    set.torn_lines += read_campaign_log(
        log.path, [&](std::vector<Field>& fields, std::string_view line) {
          if (seen != nullptr) seen->emplace(line);
          stream.events.push_back(std::move(fields));
        });
    set.streams.push_back(std::move(stream));
  }

  std::map<std::uint32_t, std::int64_t> worker_pids;
  std::map<std::uint32_t, std::int64_t> offsets;
  for (TraceStream& stream : set.streams) {
    if (stream.name != "dispatcher") continue;
    for (const std::vector<Field>& event : stream.events) {
      const std::string name = str_or(event, "event", "");
      const Value* pid = find_field(event, "pid");
      const Value* id = find_field(event, "worker_id");
      if (pid == nullptr || !pid->is_number()) continue;
      if (name == "serve.worker.spawn" && id != nullptr && id->is_number()) {
        worker_pids[static_cast<std::uint32_t>(id->as_uint())] =
            static_cast<std::int64_t>(pid->as_uint());
      } else if (name == "serve.done") {
        stream.pid = static_cast<std::int64_t>(pid->as_uint());
      }
    }
    offsets = hello_clock_offsets(stream);
  }
  for (const auto& [id, index] : worker_stream_index) {
    TraceStream& stream = set.streams[index];
    const auto pid = worker_pids.find(id);
    stream.pid = pid != worker_pids.end()
                     ? pid->second
                     : 1000 + static_cast<std::int64_t>(id);
    if (const auto offset = offsets.find(id); offset != offsets.end()) {
      stream.clock_offset_us = offset->second;
    }
  }

  for (const auto& [ring_id, path] : logs.flight_rings) {
    const std::optional<FlightRecording> recording =
        read_flight_recording(path);
    if (!recording.has_value()) continue;
    const std::uint32_t id = recording->worker_id;
    if (!recording->clean_exit) ++set.crashed;
    if (!postmortem) continue;

    if (worker_stream_index.find(id) == worker_stream_index.end()) {
      TraceStream stream;
      stream.name = "w" + std::to_string(id);
      stream.pid = static_cast<std::int64_t>(recording->pid);
      if (const auto offset = offsets.find(id); offset != offsets.end()) {
        stream.clock_offset_us = offset->second;
      }
      worker_stream_index[id] = set.streams.size();
      set.streams.push_back(std::move(stream));
    }
    TraceStream& stream = set.streams[worker_stream_index[id]];
    const std::set<std::string>& seen = worker_lines[id];
    FlightReport report{id, recording->pid, recording->clean_exit,
                        recording->lines.size(), 0};
    std::uint64_t last_t_us = 0;
    for (const std::string& line : recording->lines) {
      if (seen.count(line) != 0) continue;
      auto fields = parse_flat_json_object(line);
      if (!fields.has_value()) continue;  // the ring reader drops these
      last_t_us = std::max(last_t_us, u64_or(*fields, "t_us", 0));
      stream.events.push_back(std::move(*fields));
      ++report.recovered;
    }
    if (report.recovered > 0) {
      stream.events.push_back({{"event", Value("flight.recovered")},
                               {"t_us", Value(last_t_us)},
                               {"worker_id", Value(id)},
                               {"recovered", Value(report.recovered)},
                               {"last_seq", Value(recording->last_seq)},
                               {"clean_exit", Value(recording->clean_exit)}});
    }
    set.postmortem.push_back(report);
  }
  return set;
}

TraceExportSummary write_chrome_trace(
    std::ostream& out, const std::vector<TraceStream>& streams) {
  TraceExportSummary summary;
  std::vector<std::string> events;

  // Dispatcher serve.lease intervals, across all streams: the fallback
  // parent for runs whose own worker.lease span never made it out (a
  // worker SIGKILLed mid-lease emits no span; its flight-recovered runs
  // still fall inside the dispatcher's lease window, which the dispatcher
  // closes itself when it detects the death).
  std::vector<LeaseInterval> serve_leases;
  for (const TraceStream& stream : streams) {
    append_span_intervals(stream, "serve.lease", serve_leases);
  }

  for (const TraceStream& stream : streams) {
    events.push_back(trace_event(
        'M', "process_name", stream.pid, 0, 0, 0,
        {{"name", Value(stream.name)}}));

    // Pass 1: worker.lease intervals, for parenting synthesized run and
    // batch spans by time containment (runs execute on pool threads, so
    // the per-thread span stack cannot relate them to the lease).
    std::vector<LeaseInterval> leases;
    append_span_intervals(stream, "worker.lease", leases);
    bool used_runs_tid = false;
    bool used_batches_tid = false;
    const auto containing_lease =
        [&leases, &serve_leases](std::int64_t ts) -> std::uint64_t {
      for (const LeaseInterval& lease : leases) {
        if (ts >= lease.start_ts && ts <= lease.end_ts) return lease.span_id;
      }
      for (const LeaseInterval& lease : serve_leases) {
        if (ts >= lease.start_ts && ts <= lease.end_ts) return lease.span_id;
      }
      return 0;
    };

    // Pass 2: render.
    std::uint64_t done_runs = 0;
    std::int64_t last_done_ts = 0;
    for (const std::vector<Field>& event : stream.events) {
      const std::string name = str_or(event, "event", "");
      const std::int64_t t_us =
          stream.clock_offset_us +
          static_cast<std::int64_t>(u64_or(event, "t_us", 0));

      if (name == "span") {
        const std::uint64_t dur = u64_or(event, "dur_us", 0);
        const std::int64_t start =
            stream.clock_offset_us +
            static_cast<std::int64_t>(u64_or(
                event, "start_us",
                u64_or(event, "t_us", 0) - dur));
        std::vector<Field> args = {
            {"span_id", Value(u64_or(event, "id", 0))},
            {"parent_span_id", Value(u64_or(event, "parent_id", 0))}};
        for (const Field& field : event) {
          if (!is_span_envelope_key(field.key)) args.push_back(field);
        }
        events.push_back(trace_event(
            'X', str_or(event, "name", "span"), stream.pid,
            static_cast<std::int64_t>(u64_or(event, "tid", 0)), start,
            static_cast<std::int64_t>(dur), args));
        ++summary.spans;
        continue;
      }

      if (name == "campaign.run.end") {
        const std::uint64_t dur = u64_or(event, "dur_us", 0);
        const std::int64_t start = t_us - static_cast<std::int64_t>(dur);
        std::vector<Field> args = {
            {"kind", Value(str_or(event, "kind", "run"))},
            {"flat", Value(u64_or(event, "flat", 0))}};
        if (const std::uint64_t lease = containing_lease(t_us); lease != 0) {
          args.push_back({"parent_span_id", Value(lease)});
        }
        events.push_back(trace_event('X', "campaign.run", stream.pid,
                                     kRunsTid, start,
                                     static_cast<std::int64_t>(dur), args));
        used_runs_tid = true;
        ++summary.synthesized;
        continue;
      }

      if (name == "campaign.batch.done") {
        const std::uint64_t dur = u64_or(event, "dur_us", 0);
        const std::int64_t start = t_us - static_cast<std::int64_t>(dur);
        std::vector<Field> args = {
            {"fire_ms", Value(u64_or(event, "fire_ms", 0))},
            {"test_cases", Value(u64_or(event, "test_cases", 1))},
            {"lanes", Value(u64_or(event, "lanes", 0))},
            {"phase", Value(str_or(event, "phase", ""))},
            {"settled", Value(u64_or(event, "settled", 0))},
            {"diverged", Value(u64_or(event, "diverged", 0))}};
        if (const std::uint64_t lease = containing_lease(t_us); lease != 0) {
          args.push_back({"parent_span_id", Value(lease)});
        }
        events.push_back(trace_event('X', "campaign.batch", stream.pid,
                                     kBatchesTid, start,
                                     static_cast<std::int64_t>(dur), args));
        used_batches_tid = true;
        ++summary.synthesized;
        continue;
      }

      // Counter tracks.
      if (const Value* pending = find_field(event, "pending");
          pending != nullptr && pending->is_number()) {
        events.push_back(trace_event(
            'C', "serve.pending_ranges", stream.pid, 0, t_us, 0,
            {{"value", *pending}}));
        ++summary.counter_samples;
      }
      if (name == "serve.partial_estimate") {
        events.push_back(trace_event(
            'C', "serve.runs_covered", stream.pid, 0, t_us, 0,
            {{"value", Value(u64_or(event, "runs_covered", 0))}}));
        ++summary.counter_samples;
      }
      if (name == "serve.lease.complete") {
        const std::uint64_t executed = u64_or(event, "executed", 0);
        if (last_done_ts != 0 && t_us > last_done_ts) {
          const double rate =
              static_cast<double>(executed) * 1e6 /
              static_cast<double>(t_us - last_done_ts);
          events.push_back(trace_event('C', "serve.runs_per_s", stream.pid,
                                       0, t_us, 0, {{"value", Value(rate)}}));
          ++summary.counter_samples;
        }
        done_runs += executed;
        last_done_ts = t_us;
        events.push_back(trace_event('C', "serve.runs_done", stream.pid, 0,
                                     t_us, 0,
                                     {{"value", Value(done_runs)}}));
        ++summary.counter_samples;
      }
      if (name == "metric" && str_or(event, "kind", "") == "counter") {
        const Value* value = find_field(event, "value");
        if (value != nullptr && value->is_number()) {
          events.push_back(trace_event(
              'C', "metric." + str_or(event, "name", "?"), stream.pid, 0,
              t_us, 0, {{"value", *value}}));
          ++summary.counter_samples;
        }
      }

      // Instants: lifecycle events worth a timeline mark. Bookkeeping
      // (campaign.run.start, metric) is skipped.
      const bool instant =
          name.rfind("serve.", 0) == 0 || name.rfind("worker.", 0) == 0 ||
          name.rfind("flight.", 0) == 0 || name == "golden.done" ||
          name == "delta.done" ||
          name == "journal.resume_scan";
      if (instant) {
        std::vector<Field> args;
        for (const Field& field : event) {
          if (field.key != "event" && field.key != "t_us") {
            args.push_back(field);
          }
        }
        events.push_back(
            trace_event('i', name, stream.pid, 0, t_us, 0, args, "p"));
        ++summary.instants;
      }
    }

    if (used_runs_tid) {
      events.push_back(trace_event('M', "thread_name", stream.pid, kRunsTid,
                                   0, 0, {{"name", Value("runs")}}));
    }
    if (used_batches_tid) {
      events.push_back(trace_event('M', "thread_name", stream.pid,
                                   kBatchesTid, 0, 0,
                                   {{"name", Value("batches")}}));
    }
  }

  summary.trace_events = events.size();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out << ',';
    out << '\n' << events[i];
  }
  out << "\n]}\n";
  return summary;
}

}  // namespace propane::obs
