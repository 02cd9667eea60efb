#include "recorder.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

void SpanRecorder::push(const SpanRecord& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> SpanRecorder::spans_of_rep(std::uint64_t rep) const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& span : spans_) {
    if (span.rep == rep) out.push_back(span);
  }
  return out;
}

std::vector<SpanRecord> SpanRecorder::all() const {
  std::lock_guard lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       std::uint64_t parent, std::uint64_t lanes)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  record_.name = name;
  record_.id = recorder_->next_id();
  record_.parent = parent;
  record_.rep = recorder_->rep();
  record_.tid = this_thread_index();
  record_.lanes = lanes;
  record_.cpu_ns = thread_cpu_ns();
  record_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  record_.end_ns = now_ns();
  record_.cpu_ns = thread_cpu_ns() - record_.cpu_ns;
  recorder_->push(record_);
}

fi::CampaignRunner wrap_runner(const fi::CampaignRunner& inner,
                               SpanRecorder& recorder) {
  fi::CampaignRunner wrapped;
  wrapped.run = [run = inner.run, &recorder](const fi::RunRequest& request) {
    const ScopedSpan span(&recorder, "arrestment.golden", recorder.scope());
    return run(request);
  };
  if (inner.batch) {
    wrapped.batch = [batch = inner.batch,
                     &recorder](const fi::BatchRunRequest& request) {
      const ScopedSpan span(&recorder, "arrestment.batch", recorder.scope(),
                            request.lanes.size());
      return batch(request);
    };
  }
  return wrapped;
}

void TimedSink::emit(const propane::obs::Event& event) {
  const std::uint64_t start = now_ns();
  inner_.emit(event);
  busy_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
}

std::map<std::string, LayerRow> layer_rows(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, LayerRow> rows;
  for (const SpanRecord& span : spans) {
    const std::uint64_t duration = span.end_ns - span.start_ns;
    // Children may run on other threads and overlap each other, so the
    // covered part is the union of their intervals inside the span.
    std::uint64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
      for (const std::size_t c : it->second) {
        const std::uint64_t lo = std::max(spans[c].start_ns, span.start_ns);
        const std::uint64_t hi = std::min(spans[c].end_ns, span.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t reach = 0;
      for (const auto& [lo, hi] : intervals) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
    }
    LayerRow& row = rows[span.name];
    row.calls += 1;
    row.busy_s += seconds(duration);
    row.self_s += seconds(duration - covered);
    row.wait_s += seconds(duration > span.cpu_ns ? duration - span.cpu_ns : 0);
  }
  return rows;
}

void write_trace_json(const std::filesystem::path& path,
                      const std::vector<SpanRecord>& spans,
                      const std::string& metadata_json) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  std::uint64_t origin = UINT64_MAX;
  for (const SpanRecord& span : spans) origin = std::min(origin, span.start_ns);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
      << ",\"traceEvents\":[";
  char line[512];
  bool first = true;
  for (const SpanRecord& span : spans) {
    std::snprintf(
        line, sizeof(line),
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"rep\":%llu,\"cpu_us\":%.3f,\"lanes\":%llu}}",
        first ? "" : ",", span.name, span.tid,
        static_cast<double>(span.start_ns - origin) * 1e-3,
        static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.rep),
        static_cast<double>(span.cpu_ns) * 1e-3,
        static_cast<unsigned long long>(span.lanes));
    out << line;
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to " + path.string());
}

}  // namespace perfbench
