#include "obs/campaign_log.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <stdexcept>

namespace propane::obs {

namespace {

constexpr std::string_view kWorkerLogPrefix = "telemetry-w";
constexpr std::string_view kWorkerLogSuffix = ".ndjson";
constexpr std::string_view kFlightPrefix = "flight-w";
constexpr std::string_view kFlightSuffix = ".bin";

/// The worker id in `name` when it reads <prefix><decimal id><suffix>.
std::optional<std::uint32_t> worker_file_id(const std::string& name,
                                            std::string_view prefix,
                                            std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  std::uint32_t id = 0;
  const auto [end, error] = std::from_chars(first, last, id);
  if (error != std::errc() || end != last) return std::nullopt;
  return id;
}

/// One flat "metric" event per final metric value.
void append_metric_events(EventSink& sink, const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    sink.emit(make_event("metric", {{"kind", Value("counter")},
                                    {"name", Value(name)},
                                    {"value", Value(value)}}));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    sink.emit(make_event("metric", {{"kind", Value("gauge")},
                                    {"name", Value(name)},
                                    {"value", Value(value)}}));
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    sink.emit(make_event("metric", {{"kind", Value("histogram")},
                                    {"name", Value(name)},
                                    {"count", Value(histogram.count)},
                                    {"sum", Value(histogram.sum)},
                                    {"p50", Value(histogram.quantile(0.50))},
                                    {"p90", Value(histogram.quantile(0.90))},
                                    {"p99", Value(histogram.quantile(0.99))}}));
  }
}

/// Folds one `metric` event into the summary's final values.
void fold_metric(const std::vector<Field>& fields,
                 CampaignLogSummary& summary) {
  const std::string name = str_or(fields, "name", "");
  if (name.empty()) return;
  if (str_or(fields, "kind", "") != "histogram") {
    if (const Value* value = find_field(fields, "value")) {
      summary.final_metrics[name] = to_text(*value);
    }
    return;
  }
  std::string cell;
  for (const char* key : {"count", "p50", "p90", "p99"}) {
    const Value* value = find_field(fields, key);
    if (value == nullptr) continue;
    if (!cell.empty()) cell += ", ";
    cell += std::string(key) + "=" + to_text(*value);
  }
  summary.final_metrics[name] = cell;
  const Value* sum = find_field(fields, "sum");
  if (name == "batch.group.lanes" && sum != nullptr && sum->is_number()) {
    summary.lane_batches += u64_or(fields, "count", 0);
    summary.lanes += sum->as_double();
  }
}

}  // namespace

std::string worker_log_name(std::uint32_t worker_id) {
  return std::string(kWorkerLogPrefix) + std::to_string(worker_id) +
         std::string(kWorkerLogSuffix);
}

std::string flight_ring_name(std::uint32_t worker_id) {
  return std::string(kFlightPrefix) + std::to_string(worker_id) +
         std::string(kFlightSuffix);
}

std::filesystem::path campaign_log_path(const CampaignLogOptions& options) {
  if (!options.metrics_out.empty()) return options.metrics_out;
  return options.journal_dir /
         (options.worker_id.has_value() ? worker_log_name(*options.worker_id)
                                        : std::string(kCampaignLogName));
}

CampaignLogWriter::CampaignLogWriter(const CampaignLogOptions& options)
    : path_(campaign_log_path(options)) {
  if (!options.enabled) return;
  if (!path_.parent_path().empty()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  sink_.emplace(path_, /*append=*/true);
  telemetry_.metrics = &metrics_;
  telemetry_.events = &*sink_;
  telemetry_.spans = &spans_;
  if (options.worker_id.has_value()) {
    const std::uint32_t id = *options.worker_id;
    // Every event also lands in the mmap'd flight ring, which survives
    // SIGKILL where the buffered ofstream tail does not.
    std::filesystem::create_directories(options.journal_dir);
    flight_.emplace(options.journal_dir / flight_ring_name(id), id);
    flight_sink_.emplace(*flight_);
    tee_.emplace(&*sink_, &*flight_sink_);
    telemetry_.events = &*tee_;
    // Disjoint span-id range per process: worker w draws from
    // (w+1) << 40, the dispatcher from 0, so ids never collide in the
    // merged trace.
    spans_.set_id_base((static_cast<std::uint64_t>(id) + 1) << 40);
  }
}

std::size_t CampaignLogWriter::close(bool clean_exit) {
  if (!sink_.has_value()) return 0;
  if (!closed_) {
    closed_ = true;
    publish_span_stats(&telemetry_);
    append_metric_events(*sink_, metrics_.snapshot());
    sink_->flush();
    if (flight_.has_value() && clean_exit) flight_->mark_clean_exit();
  }
  return sink_->event_count();
}

CampaignLogSet find_campaign_logs(const std::filesystem::path& journal_dir,
                                  const std::filesystem::path& metrics_out) {
  CampaignLogSet set;
  if (!metrics_out.empty()) {
    set.logs.push_back({"dispatcher", std::nullopt, metrics_out});
  } else if (std::filesystem::exists(journal_dir / kCampaignLogName)) {
    set.logs.push_back(
        {"dispatcher", std::nullopt, journal_dir / kCampaignLogName});
  }
  std::map<std::uint32_t, std::filesystem::path> worker_logs;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(journal_dir, ec), end;
       !ec && it != end; ++it) {
    const std::string name = it->path().filename().string();
    if (const auto id = worker_file_id(name, kWorkerLogPrefix,
                                       kWorkerLogSuffix)) {
      worker_logs[*id] = it->path();
    } else if (const auto ring =
                   worker_file_id(name, kFlightPrefix, kFlightSuffix)) {
      set.flight_rings[*ring] = it->path();
    }
  }
  if (metrics_out.empty()) {
    for (const auto& [id, path] : worker_logs) {
      set.logs.push_back({"w" + std::to_string(id), id, path});
    }
  }
  return set;
}

std::size_t read_campaign_log(std::istream& in, const std::string& origin,
                              const CampaignLogVisitor& visit) {
  std::size_t residue = 0;
  std::size_t number = 0;
  for (std::string line; std::getline(in, line);) {
    ++number;
    if (line.empty()) continue;
    auto fields = parse_flat_json_object(line);
    if (!fields.has_value()) {
      if (line.back() != '}') {
        ++residue;  // a writer killed (or still busy) mid-line
        continue;
      }
      throw std::runtime_error("malformed telemetry line " +
                               std::to_string(number) + " in " + origin +
                               ": " + line);
    }
    const Value* event = find_field(*fields, "event");
    if (event == nullptr || event->kind() != Value::Kind::kString) {
      throw std::runtime_error("telemetry line " + std::to_string(number) +
                               " in " + origin + " has no event name");
    }
    visit(*fields, line);
  }
  return residue;
}

std::size_t read_campaign_log(const std::filesystem::path& path,
                              const CampaignLogVisitor& visit) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open telemetry log '" + path.string() +
                             "'");
  }
  return read_campaign_log(in, path.string(), visit);
}

CampaignLogSummary summarize_campaign_logs(
    const std::vector<CampaignLog>& logs) {
  CampaignLogSummary summary;
  LogTally& total = summary.total;
  for (const CampaignLog& log : logs) {
    LogTally tally;
    tally.label = log.label;
    std::optional<std::uint64_t> t_first;
    std::uint64_t t_last = 0;
    tally.torn = read_campaign_log(
        log.path, [&](std::vector<Field>& fields, std::string_view) {
          const std::string event = str_or(fields, "event", "");
          ++summary.event_counts[event];
          ++tally.events;
          if (const Value* t_us = find_field(fields, "t_us");
              t_us != nullptr && t_us->is_number()) {
            t_last = t_us->as_uint();
            t_first = std::min(t_first.value_or(t_last), t_last);
          }
          if (event == "campaign.batch.done") {
            const Value* dur = find_field(fields, "dur_us");
            const double dur_us =
                dur != nullptr && dur->is_number() ? dur->as_double() : 0.0;
            for (LogTally* sum : {&tally, &total}) {
              ++sum->batches;
              sum->injections += u64_or(fields, "settled", 0);
              sum->diverged += u64_or(fields, "diverged", 0);
              sum->batch_dur_sum_us += dur_us;
              sum->batch_dur_max_us = std::max(sum->batch_dur_max_us, dur_us);
            }
          } else if (event == "delta.done") {
            summary.last_session.clear();
            for (Field& field : fields) {
              if (field.key != "event" && field.key != "t_us") {
                summary.last_session.push_back(std::move(field));
              }
            }
          } else if (event == "metric") {
            fold_metric(fields, summary);
          }
        });
    tally.span_s = static_cast<double>(t_last - t_first.value_or(t_last)) / 1e6;
    total.events += tally.events;
    total.torn += tally.torn;
    total.span_s = std::max(total.span_s, tally.span_s);
    summary.streams.push_back(std::move(tally));
  }
  return summary;
}

}  // namespace propane::obs
