// propane benchmark program.
//
//   propane_perfbench run --workload paper_full|delta_vreg|serve_full
//                         --seed N --seconds S --trace 0|1
//                         --expect FILE --out DIR [--scale full|smoke]
//                         [--commit TEXT] [--source TEXT]
//
// Runs one workload as a single closed-loop client -- one campaign at a
// time, the next repetition starting when the previous one has ended --
// for S seconds, through the same public calls `propane campaign
// run|delta|bootstrap|serve` make, with the CLI's defaults (4 journal
// shards, NDJSON telemetry on). Every repetition's final estimate is
// checked against the Table-1 expectation file. The last line of stdout
// is one JSON object {correct, attempted, failed, metrics}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. Exit status 1
// when a repetition fails the correctness gate, 2 on a usage error.
//
//   propane_perfbench worker --journal DIR --seed N --scale NAME
//                            --worker-id K
//
// The serve_full worker process: the same calls as `propane campaign
// worker`. The benchmark spawns itself in this role because the CLI's
// worker re-derives its plan from --scale alone and has no seed flag.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "arrestment/batch_runner.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "build_info.hpp"
#include "core/analysis.hpp"
#include "exp/paper_experiment.hpp"
#include "fi/bootstrap.hpp"
#include "fi/campaign.hpp"
#include "isa_probe.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/ndjson.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "recorder.hpp"
#include "store/result_cache.hpp"
#include "store/resume.hpp"
#include "svc/dispatcher.hpp"
#include "svc/worker.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace arr = propane::arr;
namespace core = propane::core;
namespace exp = propane::exp;
namespace obs = propane::obs;
namespace store = propane::store;
namespace svc = propane::svc;

constexpr const char* kPaperFull = "paper_full";
constexpr const char* kDeltaVreg = "delta_vreg";
constexpr const char* kServeFull = "serve_full";
/// The CLI's default journal shard count (`--shards`).
constexpr std::size_t kShards = 4;
/// The CLI's default bootstrap replicate count (`campaign bootstrap -B`).
constexpr std::size_t kReplicates = 1000;
/// delta_vreg simulates an edit of this module (`campaign delta
/// --invalidate V_REG`); the CLI perturbs the version token the same way.
constexpr const char* kInvalidatedModule = "V_REG";
constexpr std::uint64_t kTokenPerturbation = 0x5EED5EED5EED5EEDULL;
/// Cap on repetitions per run, for smoke-scale runs that take milliseconds.
constexpr std::size_t kMaxReps = 200;
/// Set-up repetitions: delta_vreg's set-up runs a whole baseline campaign
/// and repeats 3 times; the others repeat in bursts before every timed
/// repetition.
constexpr std::size_t kDeltaSetupReps = 3;
constexpr std::size_t kSetupBurst = 20;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (selftest.py checks both directions).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"cpu_s", "s"},            {"runs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},     {"journal_bytes", "B"},
    {"telemetry_bytes", "B"},
};

constexpr MetricDef kPerLayer[] = {
    {"arrestment.golden.calls", "count"},
    {"arrestment.golden.busy_s", "s"},
    {"arrestment.batch.calls", "count"},
    {"arrestment.batch.lanes", "count"},
    {"arrestment.batch.busy_s", "s"},
    {"arrestment.batch.p50_ms", "ms"},
    {"arrestment.batch.p99_ms", "ms"},
    {"arrestment.batch.occupancy", "ratio"},
    {"arrestment.batch.saved_lane_frac", "ratio"},
    {"arrestment.batch.ns_per_lane_tick", "ns"},
    {"arrestment.batch.utilization", "ratio"},
    {"store.campaign.wall_s", "s"},
    {"store.campaign.self_cpu_s", "s"},
    {"store.journal.records", "count"},
    {"store.journal.flushes", "count"},
    {"store.journal.flushes_per_record", "ratio"},
    {"store.cache.load_s", "s"},
    {"store.cache.records", "count"},
    {"store.delta.executed", "count"},
    {"store.delta.replayed", "count"},
    {"store.delta.hit_frac", "ratio"},
    {"store.estimate.wall_s", "s"},
    {"store.estimate.records_per_s", "1/s"},
    {"obs.events.count", "count"},
    {"obs.events.bytes", "B"},
    {"obs.events.per_run", "ratio"},
    {"obs.emit.busy_s", "s"},
    {"obs.telemetry_per_journal_byte", "ratio"},
    {"fi.bootstrap.add_s", "s"},
    {"fi.bootstrap.run_s", "s"},
    {"fi.bootstrap.replicates_per_s", "1/s"},
    {"core.analyze.wall_s", "s"},
    {"svc.serve.wall_s", "s"},
    {"svc.dispatcher.cpu_s", "s"},
    {"svc.worker.cpu_s", "s"},
    {"svc.leases.granted", "count"},
    {"svc.leases.requeued", "count"},
    {"svc.partial_estimates", "count"},
    {"svc.lease_log.bytes", "B"},
    {"svc.worker.batch.kernel_ticks", "count"},
    {"svc.worker.journal.flushes", "count"},
    {"trace.overhead_wall_s", "s"},
};

// --- arguments -----------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scale = "full";
  fs::path expect;
  fs::path out;
  std::string commit = "unknown";
  std::string source = "unknown";
  // worker mode
  fs::path journal;
  std::uint32_t worker_id = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "propane_perfbench: %s (see the header of main.cpp)\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usage(flag + " expects a whole number, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing mode (run | worker)");
  Args args;
  args.mode = argv[1];
  if (args.mode != "run" && args.mode != "worker") {
    usage("unknown mode '" + args.mode + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") {
        usage("--scale expects full or smoke");
      }
      args.scale = value;
    } else if (flag == "--expect") {
      args.expect = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source") {
      args.source = value;
    } else if (flag == "--journal") {
      args.journal = value;
    } else if (flag == "--worker-id") {
      args.worker_id = static_cast<std::uint32_t>(parse_u64(flag, value));
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (args.mode == "run") {
    if (args.workload != kPaperFull && args.workload != kDeltaVreg &&
        args.workload != kServeFull) {
      usage("--workload expects paper_full, delta_vreg or serve_full");
    }
    if (args.expect.empty() || args.out.empty()) {
      usage("run needs --expect and --out");
    }
  } else if (args.journal.empty()) {
    usage("worker needs --journal");
  }
  return args;
}

// --- host and build block --------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  return "\"" + obs::json_escape(text) + "\"";
}

std::string host_json(const Args& args) {
  std::ostringstream out;
  out << "{\"cpu_model\":" << json_string(cpu_model())
      << ",\"nproc\":" << cpus_available()
      << ",\"screen_tier\":" << json_string(compiled_screen_tier())
      << ",\"compiler\":" << json_string(build::kCompiler)
      << ",\"build_type\":" << json_string(build::kBuildType)
      << ",\"cxx_flags\":" << json_string(build::kCxxFlags)
      << ",\"batch_opts\":" << json_string(build::kBatchOpts)
      << ",\"PROPANE_BATCH_NATIVE\":" << json_string(build::kBatchNative)
      << ",\"threads\":" << cpus_available() << ",\"workload\":"
      << json_string(args.workload) << ",\"scale\":" << json_string(args.scale)
      << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"commit\":" << json_string(args.commit)
      << ",\"source\":" << json_string(args.source) << "}";
  return out.str();
}

// --- the plan ------------------------------------------------------------

struct Plan {
  exp::ExperimentScale scale;
  fi::CampaignConfig config;
  std::vector<arr::TestCase> cases;
  core::SystemModel model;
  fi::SignalBinding binding;

  std::size_t planned_runs() const {
    return config.injections.size() * config.test_case_count;
  }
};

/// The plan for `scale_name` with the workload seed and the thread budget:
/// every CPU this process may run on.
std::unique_ptr<Plan> make_plan(const std::string& scale_name,
                                std::uint64_t seed) {
  exp::ExperimentScale scale =
      scale_name == "smoke" ? exp::smoke_scale() : exp::paper_scale();
  fi::CampaignConfig config = exp::make_campaign_config(scale);
  config.seed = seed;
  config.threads = cpus_available();
  std::vector<arr::TestCase> cases =
      arr::grid_test_cases(scale.mass_count, scale.velocity_count);
  core::SystemModel model = arr::make_arrestment_model();
  fi::SignalBinding binding = arr::make_arrestment_binding(model);
  return std::make_unique<Plan>(Plan{std::move(scale), std::move(config),
                                     std::move(cases), std::move(model),
                                     std::move(binding)});
}

// --- telemetry, arranged as the CLI arranges it ------------------------------

/// Appends the final value of every metric to the event log, as the CLI
/// does at the end of each campaign subcommand.
void emit_metric_events(obs::EventSink& sink,
                        const obs::MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    sink.emit(obs::make_event("metric", {{"kind", obs::Value("counter")},
                                         {"name", obs::Value(name)},
                                         {"value", obs::Value(value)}}));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    sink.emit(obs::make_event("metric", {{"kind", obs::Value("gauge")},
                                         {"name", obs::Value(name)},
                                         {"value", obs::Value(value)}}));
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    sink.emit(obs::make_event(
        "metric", {{"kind", obs::Value("histogram")},
                   {"name", obs::Value(name)},
                   {"count", obs::Value(histogram.count)},
                   {"sum", obs::Value(histogram.sum)},
                   {"p50", obs::Value(histogram.quantile(0.50))},
                   {"p90", obs::Value(histogram.quantile(0.90))},
                   {"p99", obs::Value(histogram.quantile(0.99))}}));
  }
}

/// Metrics registry + span buffer + NDJSON sink, optionally behind the
/// timing decorator. Holds pointers into itself: neither copied nor moved.
class TelemetrySession {
 public:
  TelemetrySession(const fs::path& events_path, bool timed)
      : sink_(events_path, /*append=*/true) {
    if (timed) timed_.emplace(sink_);
    telemetry_.metrics = &metrics_;
    telemetry_.events = timed_.has_value()
                            ? static_cast<obs::EventSink*>(&*timed_)
                            : static_cast<obs::EventSink*>(&sink_);
    telemetry_.spans = &spans_;
  }
  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  const obs::Telemetry* telemetry() const { return &telemetry_; }
  const TimedSink* timed() const {
    return timed_.has_value() ? &*timed_ : nullptr;
  }
  std::uint64_t counter(const std::string& name) const {
    const obs::MetricsSnapshot snapshot = metrics_.snapshot();
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  }
  std::size_t events() const { return sink_.event_count(); }
  std::size_t bytes() const { return sink_.bytes_written(); }

  /// The CLI's end-of-command sequence.
  void finish() {
    obs::publish_span_stats(&telemetry_);
    emit_metric_events(sink_, metrics_.snapshot());
    sink_.flush();
  }

 private:
  obs::MetricsRegistry metrics_;
  obs::SpanBuffer spans_;
  obs::NdjsonSink sink_;
  std::optional<TimedSink> timed_;
  obs::Telemetry telemetry_;
};

// --- measurement helpers -----------------------------------------------------

double cpu_seconds(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Summed size of the regular files in `dir` whose names start with
/// `prefix` and end with `suffix`.
std::uint64_t bytes_in(const fs::path& dir, const std::string& prefix,
                       const std::string& suffix) {
  std::uint64_t total = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.size() >= suffix.size() &&
        name.rfind(prefix, 0) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += entry.file_size();
    }
  }
  return total;
}

/// Type-7 quantile (linear interpolation between order statistics).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- correctness gate --------------------------------------------------------

struct Expectation {
  /// (module, input, output) -> (n_inj, n_err), Table 1.
  std::map<std::tuple<std::string, std::string, std::string>,
           std::pair<std::size_t, std::size_t>>
      pairs;
  std::size_t delta_executed = 0;
  std::size_t delta_replayed = 0;
};

Expectation load_expectation(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  Expectation expect;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key) || key.front() == '#') continue;
    bool ok = false;
    if (key == "pair") {
      std::string module, input, output;
      std::size_t injections = 0, errors = 0;
      ok = static_cast<bool>(fields >> module >> input >> output >>
                             injections >> errors);
      expect.pairs[{module, input, output}] = {injections, errors};
    } else if (key == "delta_executed") {
      ok = static_cast<bool>(fields >> expect.delta_executed);
    } else if (key == "delta_replayed") {
      ok = static_cast<bool>(fields >> expect.delta_replayed);
    }
    if (!ok) {
      throw std::runtime_error(path.string() + ": bad line '" + line + "'");
    }
  }
  if (expect.pairs.empty()) {
    throw std::runtime_error(path.string() + " names no Table-1 pair");
  }
  return expect;
}

/// Compares a final estimate with Table 1; each mismatch becomes a problem.
void check_estimate(const Plan& plan, const store::JournalStats& stats,
                    const Expectation& expect,
                    std::vector<std::string>& problems) {
  std::size_t matched = 0;
  for (const fi::PairEstimate& pair : stats.estimation.pairs) {
    if (pair.injections == 0) continue;
    const std::string module = plan.model.module(pair.pair.module).name;
    const auto it =
        expect.pairs.find({module, pair.input_name, pair.output_name});
    const std::string label =
        module + " " + pair.input_name + " -> " + pair.output_name;
    if (it == expect.pairs.end()) {
      problems.push_back("unexpected pair " + label);
      continue;
    }
    ++matched;
    if (it->second != std::pair{pair.injections, pair.errors}) {
      problems.push_back(
          label + ": n_inj/n_err " + std::to_string(pair.injections) + "/" +
          std::to_string(pair.errors) + ", expected " +
          std::to_string(it->second.first) + "/" +
          std::to_string(it->second.second));
    }
  }
  if (matched != expect.pairs.size()) {
    problems.push_back(std::to_string(expect.pairs.size() - matched) +
                       " expected pair(s) missing from the estimate");
  }
  if (stats.record_count != plan.planned_runs()) {
    problems.push_back("journal holds " + std::to_string(stats.record_count) +
                       " of " + std::to_string(plan.planned_runs()) +
                       " planned run(s)");
  }
}

// --- one repetition ------------------------------------------------------------

struct Rep {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t delivered = 0;
  std::size_t planned = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t telemetry_bytes = 0;
  /// Gate failures; any one fails every run of the repetition (a run
  /// missing from the journal is one of them).
  std::vector<std::string> problems;
  std::map<std::string, double> layer;  // complete on traced repetitions
  std::map<std::string, LayerRow> rows;  // traced repetitions only

  std::size_t failed() const { return problems.empty() ? 0 : planned; }
};

/// Wall time of `fn`, recorded as a span under `parent` when tracing.
template <typename Fn>
double timed_call(SpanRecorder* recorder, const char* name,
                  std::uint64_t parent, Fn&& fn) {
  const ScopedSpan span(recorder, name, parent);
  const std::uint64_t start = now_ns();
  std::forward<Fn>(fn)();
  return seconds_since(start);
}

/// Fills the arrestment.* and store.campaign.* rows of a traced
/// repetition from its spans and the registry counters.
void derive_campaign_layers(const std::vector<SpanRecord>& spans,
                            const Plan& plan, const TelemetrySession& session,
                            const arr::BatchRunStats& batch_stats,
                            double campaign_wall_s, double campaign_cpu_s,
                            double campaign_emit_s, Rep& rep) {
  double golden_busy = 0.0, batch_busy = 0.0, lanes = 0.0, batches = 0.0;
  std::vector<double> batch_ms;
  double goldens = 0.0;
  for (const SpanRecord& span : spans) {
    const double s = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    if (std::string_view(span.name) == "arrestment.golden") {
      goldens += 1.0;
      golden_busy += s;
    } else if (std::string_view(span.name) == "arrestment.batch") {
      batches += 1.0;
      batch_busy += s;
      lanes += static_cast<double>(span.lanes);
      batch_ms.push_back(s * 1e3);
    }
  }
  const double width = static_cast<double>(
      plan.config.batch_size > 0 ? plan.config.batch_size
                                 : fi::kDefaultBatchSize);
  const double run_ms = static_cast<double>(plan.scale.duration) /
                        static_cast<double>(propane::sim::kMillisecond);
  auto& m = rep.layer;
  m["arrestment.golden.calls"] = goldens;
  m["arrestment.golden.busy_s"] = golden_busy;
  m["arrestment.batch.calls"] = batches;
  m["arrestment.batch.lanes"] = lanes;
  m["arrestment.batch.busy_s"] = batch_busy;
  m["arrestment.batch.p50_ms"] = quantile(batch_ms, 0.50);
  m["arrestment.batch.p99_ms"] = quantile(batch_ms, 0.99);
  m["arrestment.batch.occupancy"] = ratio(lanes, batches * width);
  m["arrestment.batch.saved_lane_frac"] =
      ratio(static_cast<double>(batch_stats.saved_lane_ms.load()),
            lanes * run_ms);
  m["arrestment.batch.ns_per_lane_tick"] =
      ratio(batch_busy * 1e9,
            static_cast<double>(session.counter("batch.kernel.lut_gathers")));
  m["arrestment.batch.utilization"] =
      ratio(batch_busy,
            static_cast<double>(plan.config.threads) * campaign_wall_s);
  m["store.campaign.wall_s"] = campaign_wall_s;
  m["store.campaign.self_cpu_s"] =
      campaign_cpu_s - golden_busy - batch_busy - campaign_emit_s;
  const double records =
      static_cast<double>(session.counter("journal.appends"));
  const double flushes =
      static_cast<double>(session.counter("journal.flushes"));
  m["store.journal.records"] = records;
  m["store.journal.flushes"] = flushes;
  m["store.journal.flushes_per_record"] = ratio(flushes, records);
}

void derive_obs_layers(const TelemetrySession& session, Rep& rep) {
  auto& m = rep.layer;
  m["obs.events.count"] = static_cast<double>(session.events());
  m["obs.events.bytes"] = static_cast<double>(session.bytes());
  m["obs.events.per_run"] = ratio(static_cast<double>(session.events()),
                                  static_cast<double>(rep.delivered));
  m["obs.emit.busy_s"] =
      static_cast<double>(session.timed()->busy_ns()) * 1e-9;
  m["obs.telemetry_per_journal_byte"] =
      ratio(static_cast<double>(rep.telemetry_bytes),
            static_cast<double>(rep.journal_bytes));
}

/// Options `campaign run|delta` pass: 4 shards, telemetry, and the module
/// version tokens (perturbed for the invalidated module on delta runs).
store::DeltaRunOptions delta_options(const obs::Telemetry* telemetry,
                                     bool invalidate) {
  store::DeltaRunOptions options;
  options.base.shard_count = kShards;
  options.base.telemetry = telemetry;
  options.module_versions = arr::module_version_tokens();
  if (invalidate) {
    bool found = false;
    for (fi::ModuleVersion& entry : options.module_versions) {
      if (entry.module == kInvalidatedModule) {
        entry.token ^= kTokenPerturbation;
        found = true;
      }
    }
    if (!found) throw std::runtime_error("no module V_REG in the model");
  }
  return options;
}

/// paper_full and delta_vreg: (cache load,) journaled campaign, estimate,
/// (bootstrap,) analyze -- `campaign run` then `stats`, or `campaign delta`
/// then `stats` and `bootstrap`, in one process.
Rep run_local(const Plan& plan, const fs::path& dir, const fs::path* baseline,
              const Expectation& expect, SpanRecorder* recorder) {
  Rep rep;
  rep.traced = recorder != nullptr;
  rep.planned = plan.planned_runs();
  const bool delta = baseline != nullptr;
  auto& m = rep.layer;

  const std::uint64_t start = now_ns();
  const double cpu_start =
      cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN);
  std::optional<store::JournalStats> stats;
  store::DeltaJournalSummary summary;
  {
    std::optional<ScopedSpan> root;  // ends with the timed phase
    root.emplace(recorder, delta ? kDeltaVreg : kPaperFull, 0);
    store::ResultCache cache;
    if (delta) {
      m["store.cache.load_s"] =
          timed_call(recorder, "store.cache.load", root->id(),
                     [&] { cache = store::ResultCache::load(*baseline); });
      m["store.cache.records"] = static_cast<double>(cache.record_count());
    }
    fs::create_directories(dir);
    TelemetrySession session(dir / "telemetry.ndjson", rep.traced);
    auto batch_stats = std::make_shared<arr::BatchRunStats>();
    const fi::CampaignRunner runner = arr::batched_campaign_runner(
        plan.cases, plan.config, plan.scale.duration, nullptr,
        rep.traced ? batch_stats : nullptr, session.telemetry());
    const store::DeltaRunOptions options =
        delta_options(session.telemetry(), delta);
    const double cpu_before = cpu_seconds(RUSAGE_SELF);
    const std::uint64_t emit_before =
        rep.traced ? session.timed()->busy_ns() : 0;
    double campaign_wall = 0.0;
    {
      const ScopedSpan span(recorder, "store.campaign", root->id());
      if (recorder != nullptr) recorder->set_scope(span.id());
      const std::uint64_t t0 = now_ns();
      summary = store::run_delta_journaled_campaign(
          rep.traced ? wrap_runner(runner, *recorder) : runner, plan.config,
          plan.model, plan.binding, dir, cache, options);
      campaign_wall = seconds_since(t0);
    }
    const double campaign_cpu = cpu_seconds(RUSAGE_SELF) - cpu_before;
    const double campaign_emit =
        rep.traced
            ? static_cast<double>(session.timed()->busy_ns() - emit_before) *
                  1e-9
            : 0.0;

    m["store.estimate.wall_s"] =
        timed_call(recorder, "store.estimate", root->id(), [&] {
          stats = store::estimate_from_journal(dir, plan.model, plan.binding);
        });
    if (delta) {
      std::optional<fi::BootstrapResampler> resampler;
      m["fi.bootstrap.add_s"] =
          timed_call(recorder, "fi.bootstrap.add", root->id(), [&] {
            store::for_each_journal_record(
                dir, [&](const fi::InjectionRecord& record, std::size_t) {
                  if (!resampler.has_value()) {
                    resampler.emplace(
                        plan.model, plan.binding,
                        std::max(plan.binding.bus_upper_bound(),
                                 record.report.per_signal.size()));
                  }
                  resampler->add(record);
                });
          });
      fi::BootstrapOptions boot;
      boot.replicates = kReplicates;
      boot.threads = plan.config.threads;
      std::size_t replicates = 0;
      m["fi.bootstrap.run_s"] =
          timed_call(recorder, "fi.bootstrap.run", root->id(), [&] {
            replicates =
                resampler->run(boot, session.telemetry()).replicates;
          });
      m["fi.bootstrap.replicates_per_s"] =
          ratio(static_cast<double>(replicates), m["fi.bootstrap.run_s"]);
      if (replicates != kReplicates) {
        rep.problems.push_back("bootstrap produced " +
                               std::to_string(replicates) + " replicates");
      }
    }
    std::optional<core::AnalysisReport> report;
    m["core.analyze.wall_s"] =
        timed_call(recorder, "core.analyze", root->id(), [&] {
          report = core::analyze(plan.model, stats->estimation.permeability);
        });
    session.finish();
    rep.wall_s = seconds_since(start);
    rep.cpu_s = cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN) -
                cpu_start;
    root.reset();
    if (report->paths.empty()) rep.problems.push_back("analysis found no path");

    rep.delivered = summary.executed + summary.replayed;
    rep.journal_bytes = bytes_in(dir, "shard-", ".pjl");
    rep.telemetry_bytes = bytes_in(dir, "telemetry", ".ndjson");
    if (rep.traced) {
      const std::vector<SpanRecord> spans =
          recorder->spans_of_rep(recorder->rep());
      derive_campaign_layers(spans, plan, session, *batch_stats,
                             campaign_wall, campaign_cpu, campaign_emit, rep);
      derive_obs_layers(session, rep);
      m["store.delta.executed"] = static_cast<double>(summary.executed);
      m["store.delta.replayed"] = static_cast<double>(summary.replayed);
      m["store.delta.hit_frac"] =
          ratio(static_cast<double>(summary.replayed),
                static_cast<double>(rep.delivered));
      m["store.estimate.records_per_s"] = ratio(
          static_cast<double>(stats->record_count), m["store.estimate.wall_s"]);
    }
  }

  check_estimate(plan, *stats, expect, rep.problems);
  if (delta && (summary.executed != expect.delta_executed ||
                summary.replayed != expect.delta_replayed)) {
    rep.problems.push_back(
        "delta executed/replayed " + std::to_string(summary.executed) + "/" +
        std::to_string(summary.replayed) + ", expected " +
        std::to_string(expect.delta_executed) + "/" +
        std::to_string(expect.delta_replayed));
  }
  return rep;
}

/// Final value of the counter `name` in a worker's NDJSON event log (the
/// "metric" events the worker appends on shutdown); 0 when absent.
std::uint64_t worker_counter(const fs::path& file, const std::string& name) {
  std::ifstream in(file);
  std::string line;
  std::uint64_t value = 0;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"metric\"") == std::string::npos ||
        line.find(name) == std::string::npos) {
      continue;
    }
    const auto fields = obs::parse_flat_json_object(line);
    if (!fields.has_value()) continue;
    const obs::Value* kind = nullptr;
    const obs::Value* metric = nullptr;
    const obs::Value* number = nullptr;
    for (const obs::Field& field : *fields) {
      if (field.key == "kind") kind = &field.value;
      if (field.key == "name") metric = &field.value;
      if (field.key == "value") number = &field.value;
    }
    if (kind != nullptr && metric != nullptr && number != nullptr &&
        kind->kind() == obs::Value::Kind::kString &&
        kind->as_string() == "counter" &&
        metric->kind() == obs::Value::Kind::kString &&
        metric->as_string() == name && number->is_number()) {
      value = number->as_uint();
    }
  }
  return value;
}

std::string self_executable() {
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot resolve /proc/self/exe");
  return exe.string();
}

/// serve_full: `campaign serve --workers 1` -- one worker process, partial
/// estimates on. The estimate for the gate is taken after the timed phase.
Rep run_serve(const Plan& plan, const Args& args, const fs::path& dir,
              const Expectation& expect, SpanRecorder* recorder) {
  Rep rep;
  rep.traced = recorder != nullptr;
  rep.planned = plan.planned_runs();
  auto& m = rep.layer;

  const std::uint64_t start = now_ns();
  const double self_start = cpu_seconds(RUSAGE_SELF);
  const double children_start = cpu_seconds(RUSAGE_CHILDREN);
  svc::ServeSummary summary;
  {
    std::optional<ScopedSpan> root;  // ends with the timed phase
    root.emplace(recorder, kServeFull, 0);
    fs::create_directories(dir);
    TelemetrySession session(dir / "telemetry.ndjson", rep.traced);
    svc::ServeOptions options;
    options.worker_count = 1;
    options.worker_command = {self_executable(),
                              "worker",
                              "--journal",
                              dir.string(),
                              "--seed",
                              std::to_string(plan.config.seed),
                              "--scale",
                              args.scale};
    options.telemetry = session.telemetry();
    options.model = &plan.model;
    options.binding = &plan.binding;
    options.bus_signal_count = plan.binding.bus_upper_bound();
    double dispatcher_cpu = 0.0, worker_cpu = 0.0;
    m["svc.serve.wall_s"] =
        timed_call(recorder, "svc.serve", root->id(), [&] {
          const double self_before = cpu_seconds(RUSAGE_SELF);
          const double children_before = cpu_seconds(RUSAGE_CHILDREN);
          summary = svc::serve_campaign(plan.config, dir, options);
          dispatcher_cpu = cpu_seconds(RUSAGE_SELF) - self_before;
          worker_cpu = cpu_seconds(RUSAGE_CHILDREN) - children_before;
        });
    session.finish();
    rep.wall_s = seconds_since(start);
    rep.cpu_s = cpu_seconds(RUSAGE_SELF) - self_start +
                cpu_seconds(RUSAGE_CHILDREN) - children_start;
    root.reset();

    rep.delivered = summary.executed;
    rep.journal_bytes = bytes_in(dir, "shard-", ".pjl");
    rep.telemetry_bytes = bytes_in(dir, "telemetry", ".ndjson");
    if (rep.traced) {
      derive_obs_layers(session, rep);
      m["svc.dispatcher.cpu_s"] = dispatcher_cpu;
      m["svc.worker.cpu_s"] = worker_cpu;
      m["svc.leases.granted"] = static_cast<double>(summary.leases_granted);
      m["svc.leases.requeued"] = static_cast<double>(summary.leases_requeued);
      m["svc.partial_estimates"] =
          static_cast<double>(summary.partial_estimates);
      m["svc.lease_log.bytes"] =
          static_cast<double>(fs::file_size(summary.lease_log_path));
      const fs::path worker_log = dir / "telemetry-w0.ndjson";
      m["svc.worker.batch.kernel_ticks"] =
          static_cast<double>(worker_counter(worker_log, "batch.kernel.ticks"));
      m["svc.worker.journal.flushes"] =
          static_cast<double>(worker_counter(worker_log, "journal.flushes"));
    }
  }

  const store::JournalStats stats =
      store::estimate_from_journal(dir, plan.model, plan.binding);
  check_estimate(plan, stats, expect, rep.problems);
  if (summary.workers_died != 0 || summary.leases_requeued != 0) {
    rep.problems.push_back(std::to_string(summary.workers_died) +
                           " worker death(s), " +
                           std::to_string(summary.leases_requeued) +
                           " requeued lease(s)");
  }
  return rep;
}

/// delta_vreg's baseline: `campaign run` into `dir`, in a child process so
/// that its memory does not count toward the workload's peak RSS. The
/// benchmark has started no thread yet, so forking is safe.
void build_baseline(const Plan& plan, const fs::path& dir) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      fs::create_directories(dir);
      TelemetrySession session(dir / "telemetry.ndjson", false);
      const store::DeltaJournalSummary summary =
          store::run_delta_journaled_campaign(
              arr::batched_campaign_runner(plan.cases, plan.config,
                                           plan.scale.duration, nullptr,
                                           nullptr, session.telemetry()),
              plan.config, plan.model, plan.binding, dir, store::ResultCache{},
              delta_options(session.telemetry(), false));
      session.finish();
      if (summary.executed != plan.planned_runs()) code = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "propane_perfbench: baseline: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("baseline campaign into " + dir.string() +
                             " failed");
  }
}

// --- worker mode ---------------------------------------------------------------

/// `propane campaign worker`, call for call, with the plan's seed taken
/// from --seed. stdout belongs to the wire protocol.
int worker_main(const Args& args) {
  const std::unique_ptr<Plan> plan =
      make_plan(args.scale, args.seed);
  obs::MetricsRegistry metrics;
  obs::SpanBuffer spans;
  obs::NdjsonSink sink(
      args.journal / ("telemetry-w" + std::to_string(args.worker_id) +
                      ".ndjson"),
      /*append=*/true);
  obs::FlightRecorder flight(
      args.journal / ("flight-w" + std::to_string(args.worker_id) + ".bin"),
      args.worker_id);
  obs::FlightSink flight_sink(flight);
  obs::TeeSink tee(&sink, &flight_sink);
  spans.set_id_base((static_cast<std::uint64_t>(args.worker_id) + 1) << 40);
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.events = &tee;
  telemetry.spans = &spans;

  svc::WorkerConfig worker;
  worker.worker_id = args.worker_id;
  worker.journal_dir = args.journal;
  worker.journal.shard_count = kShards;
  worker.journal.telemetry = &telemetry;
  const int code = svc::run_worker_loop(
      arr::batched_campaign_runner(plan->cases, plan->config,
                                   plan->scale.duration, nullptr, nullptr,
                                   &telemetry),
      plan->config, worker, std::cin, std::cout);
  obs::publish_span_stats(&telemetry);
  emit_metric_events(sink, metrics.snapshot());
  sink.flush();
  if (code == 0) flight.mark_clean_exit();
  return code;
}

// --- the benchmark run ---------------------------------------------------------

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

double median_of(const std::vector<Rep>& reps, bool traced,
                 double (*field)(const Rep&)) {
  std::vector<double> values;
  for (const Rep& rep : reps) {
    if (rep.traced == traced) values.push_back(field(rep));
  }
  return quantile(values, 0.5);
}

/// Span rows, then the two rows no span carries: the sink decorator's emit
/// time and the campaign's CPU that no layer accounts for.
void print_layer_table(const std::vector<Rep>& reps,
                       const std::map<std::string, double>& layer) {
  std::map<std::string, std::vector<LayerRow>> by_name;
  for (const Rep& rep : reps) {
    for (const auto& [name, row] : rep.rows) by_name[name].push_back(row);
  }
  std::printf("\nper-layer spans (median over %zu traced repetition(s)):\n",
              by_name.empty() ? std::size_t{0}
                              : by_name.begin()->second.size());
  std::printf("%-22s %10s %11s %11s %11s\n", "layer", "calls", "busy_s",
              "self_s", "wait_s");
  for (const auto& [name, rows] : by_name) {
    auto pick = [&](double LayerRow::*member) {
      std::vector<double> values;
      for (const LayerRow& row : rows) values.push_back(row.*member);
      return quantile(values, 0.5);
    };
    std::vector<double> calls;
    for (const LayerRow& row : rows) {
      calls.push_back(static_cast<double>(row.calls));
    }
    std::printf("%-22s %10.0f %11.4f %11.4f %11.4f\n", name.c_str(),
                quantile(calls, 0.5), pick(&LayerRow::busy_s),
                pick(&LayerRow::self_s), pick(&LayerRow::wait_s));
  }
  std::printf("%-22s %10.0f %11.4f %11.4f %11s\n", "obs.emit",
              layer.at("obs.events.count"), layer.at("obs.emit.busy_s"),
              layer.at("obs.emit.busy_s"), "-");
  std::printf("%-22s %10s %11s %11.4f %11s  (store.campaign.self_cpu_s: CPU "
              "in the campaign call outside arrestment and obs)\n",
              "unattributed", "-", "-", layer.at("store.campaign.self_cpu_s"),
              "-");
}

int run_benchmark(const Args& args) {
  const std::string host = host_json(args);
  std::printf("host: %s\n", host.c_str());
  const Expectation expect = load_expectation(args.expect);
  fs::create_directories(args.out);
  const bool delta = args.workload == kDeltaVreg;
  const bool serve = args.workload == kServeFull;

  // Set-up, repeated: the plan, and for delta_vreg the baseline journal
  // (rebuilt per seed: run fingerprints depend on it). A plan alone takes
  // a fraction of a millisecond, so the cheap set-ups run in bursts
  // before every timed repetition, sampling the whole run rather than
  // one moment of it; delta_vreg's takes seconds and runs up front.
  std::unique_ptr<Plan> plan;
  fs::path baseline;
  std::vector<double> setup_times;
  auto set_up = [&] {
    const fs::path next =
        args.out / ("baseline-" + std::to_string(setup_times.size()));
    if (delta) fs::remove_all(next);
    const std::uint64_t start = now_ns();
    plan = make_plan(args.scale, args.seed);
    if (delta) build_baseline(*plan, next);
    setup_times.push_back(seconds_since(start));
    if (delta) {
      if (!baseline.empty()) fs::remove_all(baseline);
      baseline = next;
    }
  };
  if (delta) {
    for (std::size_t i = 0; i < kDeltaSetupReps; ++i) set_up();
  }

  // Timed phase: closed loop, one campaign at a time, fresh output
  // directory per repetition (removal untimed). With --trace 1 the
  // repetitions alternate traced / untraced so the overhead is measured.
  SpanRecorder recorder;
  std::vector<Rep> reps;
  const fs::path dir = args.out / "rep";
  const std::uint64_t loop_start = now_ns();
  const std::size_t min_reps = args.trace ? 4 : 3;
  while (reps.size() < kMaxReps &&
         (reps.size() < min_reps || seconds_since(loop_start) < args.seconds)) {
    if (!delta) {
      for (std::size_t i = 0; i < kSetupBurst; ++i) set_up();
    }
    const bool traced = args.trace && reps.size() % 2 == 0;
    recorder.set_rep(reps.size() + 1);
    fs::remove_all(dir);
    SpanRecorder* active = traced ? &recorder : nullptr;
    Rep rep = serve ? run_serve(*plan, args, dir, expect, active)
                    : run_local(*plan, dir, delta ? &baseline : nullptr,
                                expect, active);
    if (traced) rep.rows = layer_rows(recorder.spans_of_rep(recorder.rep()));
    fs::remove_all(dir);
    std::printf("rep %zu%s: wall %.4f s, cpu %.4f s, %zu run(s), journal %llu "
                "B, telemetry %llu B, %s\n",
                reps.size() + 1, traced ? " [traced]" : "", rep.wall_s,
                rep.cpu_s, rep.delivered,
                static_cast<unsigned long long>(rep.journal_bytes),
                static_cast<unsigned long long>(rep.telemetry_bytes),
                rep.problems.empty() ? "ok" : "FAILED");
    for (const std::string& problem : rep.problems) {
      std::printf("  gate: %s\n", problem.c_str());
    }
    reps.push_back(std::move(rep));
  }
  if (delta) fs::remove_all(baseline);
  std::printf("setup: %zu repetition(s), median %.6f s (p10 %.6f, p90 "
              "%.6f)\n",
              setup_times.size(), quantile(setup_times, 0.5),
              quantile(setup_times, 0.1), quantile(setup_times, 0.9));

  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  for (const Rep& rep : reps) {
    correct = correct && rep.problems.empty();
    attempted += rep.planned;
    failed += rep.failed();
  }

  std::map<std::string, double> end_to_end;
  end_to_end["setup_s"] = quantile(setup_times, 0.5);
  end_to_end["wall_s"] =
      median_of(reps, false, [](const Rep& r) { return r.wall_s; });
  end_to_end["cpu_s"] =
      median_of(reps, false, [](const Rep& r) { return r.cpu_s; });
  end_to_end["runs_per_s"] = median_of(reps, false, [](const Rep& r) {
    return ratio(static_cast<double>(r.delivered), r.wall_s);
  });
  end_to_end["peak_rss_mb"] = peak_rss_mb();
  end_to_end["journal_bytes"] = median_of(reps, false, [](const Rep& r) {
    return static_cast<double>(r.journal_bytes);
  });
  end_to_end["telemetry_bytes"] = median_of(reps, false, [](const Rep& r) {
    return static_cast<double>(r.telemetry_bytes);
  });
  const std::size_t untraced = static_cast<std::size_t>(std::count_if(
      reps.begin(), reps.end(), [](const Rep& r) { return !r.traced; }));
  std::printf("\n%s, seed %llu: %zu repetition(s) (%zu untraced), median "
              "of the untraced ones:\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps.size(),
              untraced);
  for (const MetricDef& def : kEndToEnd) {
    std::printf("  %-16s %16.4f %s\n", def.name, end_to_end[def.name],
                def.unit);
  }
  std::printf("  %-16s %16.6f ratio (%zu failed of %zu run(s) attempted)\n",
              "failed_frac", ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted)),
              failed, attempted);

  std::string metrics;
  auto add_metric = [&](const MetricDef& def, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(def.name) + "\": {\"value\": " +
               number(value) + ", \"unit\": \"" + def.unit + "\"}";
  };
  if (!args.trace) {
    for (const MetricDef& def : kEndToEnd) {
      add_metric(def, end_to_end[def.name]);
    }
  } else {
    const double traced_wall =
        median_of(reps, true, [](const Rep& r) { return r.wall_s; });
    std::map<std::string, double> layer;
    for (const MetricDef& def : kPerLayer) {
      std::vector<double> values;
      for (const Rep& rep : reps) {
        if (!rep.traced) continue;
        const auto it = rep.layer.find(def.name);
        values.push_back(it == rep.layer.end() ? 0.0 : it->second);
      }
      layer[def.name] = quantile(values, 0.5);
    }
    layer["trace.overhead_wall_s"] = traced_wall - end_to_end["wall_s"];
    print_layer_table(reps, layer);
    std::printf("\nper-layer metrics (median over traced repetitions; 0 "
                "where the workload does not call the layer):\n");
    for (const MetricDef& def : kPerLayer) {
      std::printf("  %-34s %18.6f %s\n", def.name, layer[def.name], def.unit);
      add_metric(def, layer[def.name]);
    }
    std::printf("tracing overhead: traced wall_s %.4f - untraced %.4f = "
                "%+.4f s\n",
                traced_wall, end_to_end["wall_s"],
                traced_wall - end_to_end["wall_s"]);
    const fs::path trace_file =
        args.out / ("trace-" + args.workload + ".json");
    write_trace_json(trace_file, recorder.all(), host);
    std::printf("trace: %s (Chrome/Perfetto trace-event JSON)\n",
                trace_file.string().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return args.mode == "worker" ? perfbench::worker_main(args)
                                 : perfbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "propane_perfbench: %s\n", e.what());
    return 1;
  }
}
