// Layer timing from outside the program: in-memory spans around the calls
// the benchmark makes into each layer, a wrapper around the two function
// objects of fi::CampaignRunner, and a timing decorator around the event
// sink the program writes its telemetry to. Nothing here reaches into
// src/; spans inside the program are not recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fi/campaign.hpp"
#include "obs/ndjson.hpp"

namespace perfbench {

namespace fi = propane::fi;

/// steady_clock reading in nanoseconds.
std::uint64_t now_ns();
/// CPU time of the calling thread in nanoseconds.
std::uint64_t thread_cpu_ns();

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root of its repetition
  std::uint64_t rep = 0;     // workload repetition the span belongs to
  std::uint32_t tid = 0;     // small per-thread index, stable per process
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;  // CPU time of `tid` while the span was open
  std::uint64_t lanes = 0;   // arrestment.batch: lanes in the batch
};

/// Thread-safe span store. Spans opened on campaign pool threads take the
/// current scope (the enclosing layer call on the client thread) as parent.
class SpanRecorder {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void set_rep(std::uint64_t rep) { rep_.store(rep); }
  std::uint64_t rep() const { return rep_.load(); }
  void set_scope(std::uint64_t id) { scope_.store(id); }
  std::uint64_t scope() const { return scope_.load(); }

  void push(const SpanRecord& span);
  std::vector<SpanRecord> spans_of_rep(std::uint64_t rep) const;
  std::vector<SpanRecord> all() const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> rep_{0};
  std::atomic<std::uint64_t> scope_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Records one span from construction to destruction; a null recorder
/// makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t parent,
             std::uint64_t lanes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  SpanRecorder* recorder_;
  SpanRecord record_;
};

/// The runner with both function objects wrapped: `run` (golden runs) as
/// arrestment.golden spans, `batch` as arrestment.batch spans carrying
/// their lane count. `recorder` must outlive the returned runner.
fi::CampaignRunner wrap_runner(const fi::CampaignRunner& inner,
                               SpanRecorder& recorder);

/// Timing decorator around the sink the program emits telemetry into:
/// sums the wall time spent inside emit().
class TimedSink final : public propane::obs::EventSink {
 public:
  explicit TimedSink(propane::obs::EventSink& inner) : inner_(inner) {}
  void emit(const propane::obs::Event& event) override;
  void flush() override { inner_.flush(); }

  std::uint64_t busy_ns() const { return busy_ns_.load(); }

 private:
  propane::obs::EventSink& inner_;
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// Per span name, over one repetition: busy = summed span durations,
/// self = busy minus the part of each span its child spans cover, wait =
/// busy minus the CPU time the span's thread got while it was open.
struct LayerRow {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
  double wait_s = 0.0;
};
std::map<std::string, LayerRow> layer_rows(
    const std::vector<SpanRecord>& spans);

/// Writes spans as Chrome/Perfetto trace-event JSON ("X" events, one
/// process, one track per thread); `metadata` lands in "otherData".
void write_trace_json(const std::filesystem::path& path,
                      const std::vector<SpanRecord>& spans,
                      const std::string& metadata_json);

}  // namespace perfbench
