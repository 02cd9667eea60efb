// propane — command-line front end for the analysis framework.
//
//   propane analyze <model.txt> [perm.csv]   full report (Tables 2-4 style)
//   propane paths   <model.txt> [perm.csv]   ranked propagation paths
//   propane advise  <model.txt> [perm.csv]   EDM/ERM placement advice
//   propane tree    <model.txt> [perm.csv]   backtrack/trace trees (ASCII)
//   propane dot     <model.txt> [perm.csv]   Graphviz DOT (model+graph+trees)
//   propane influence <model.txt> [perm.csv] max-product influence matrix
//   propane report  <model.txt> [perm.csv]   full markdown report to stdout
//   propane check   <model.txt>              validate a model file
//
// Durable campaigns against the built-in arrestment system (store/):
//
//   propane campaign run    --journal <dir> [--scale full|default|small]
//                           [--shards N] [--processes N --index I]
//                           [--metrics-out <file.ndjson>] [--no-telemetry]
//                           [--progress|--no-progress]
//   propane campaign resume --journal <dir> ...   (alias of run: a journal
//                           directory resumes wherever it left off)
//   propane campaign delta  --journal <dir> --baseline <journal-dir>
//                           [--invalidate MODULE[,...]] [--explain] ...
//                           incremental run: replays baseline records whose
//                           fingerprints still match, executes the rest
//   propane campaign merge  --journal <dest> <src-dir>...
//   propane campaign stats  --journal <dir> [--csv <perm.csv>]
//   propane campaign top    --journal <dir> [--metrics-out <file.ndjson>]
//   propane campaign trace  --journal <dir> [--out <trace.json>]
//                           [--postmortem]
//
// Telemetry: campaign run streams NDJSON events (src/obs) to
// <journal>/telemetry.ndjson by default (--metrics-out redirects,
// --no-telemetry disables) and shows a live progress HUD on a TTY
// (--progress forces it on, --no-progress off). `campaign top` summarises
// the journal's event logs (the dispatcher's and every worker's) and
// `campaign trace` merges them into one Chrome/Perfetto trace-event JSON;
// --postmortem adds the events SIGKILLed workers left in their flight
// rings. src/obs/campaign_log.hpp owns that log set.
//
// The model file uses the text format of core/model_parser.hpp; the
// optional CSV supplies permeabilities (core/permeability_io.hpp). Without
// a CSV all permeabilities are 0 and only structural outputs are useful.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "arrestment/batch_runner.hpp"
#include "arrestment/model.hpp"
#include "arrestment/system.hpp"
#include "arrestment/testcase.hpp"
#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "core/propane.hpp"
#include "exp/paper_experiment.hpp"
#include "exp/report/bootstrap_report.hpp"
#include "fi/bootstrap.hpp"
#include "fi/campaign.hpp"
#include "obs/campaign_log.hpp"
#include "obs/progress.hpp"
#include "obs/trace_export.hpp"
#include "store/result_cache.hpp"
#include "store/resume.hpp"
#include "svc/dispatcher.hpp"
#include "svc/worker.hpp"

namespace {

using namespace propane;
using namespace propane::core;

// The usage text is assembled from per-area blocks so every error path can
// print the block it belongs to; the concatenation (`propane --help`) must
// match the fenced usage block in tools/README.md verbatim (CI runs
// tools/check_cli_help.py against both).
constexpr char kAnalysisUsage[] =
    "usage: propane <analyze|paths|advise|tree|dot|influence|report|"
    "check> <model.txt> [perm.csv]\n";
constexpr char kCampaignUsage[] =
    "       propane campaign <run|resume> --journal <dir>"
    " [--scale full|default|small] [--shards N] [--processes N --index I]\n"
    "                        [--metrics-out <file.ndjson>] [--no-telemetry]"
    " [--progress|--no-progress]\n"
    "       propane campaign delta --journal <dir> --baseline <dir>"
    " [--invalidate MODULE[,MODULE...]] [--explain]\n"
    "                        [plus any campaign run flag]\n"
    "       propane campaign serve --journal <dir> [--workers N]"
    " [--lease-runs N] [plus any campaign run flag]\n"
    "       propane campaign worker --journal <dir> --worker-id N"
    " [plus any campaign run flag]\n"
    "       propane campaign merge --journal <dest-dir> <src-dir>...\n"
    "       propane campaign stats --journal <dir> [--csv <perm.csv>]\n"
    "       propane campaign bootstrap --journal <dir> [-B N] [--seed N]"
    " [--top-k N]\n"
    "                        [--fractions F1,F2,...] [--threads N]"
    " [--out <report-dir>]\n"
    "       propane campaign top   --journal <dir>"
    " [--metrics-out <file.ndjson>]\n"
    "       propane campaign trace --journal <dir> [--out <trace.json>]"
    " [--postmortem]\n";
constexpr char kTrailerUsage[] =
    "       propane --help\n"
    "exit codes: 0 success, 1 runtime/contract error, 2 usage error,"
    " 3 multiple worker failures\n";
const std::string kUsageText =
    std::string(kAnalysisUsage) + kCampaignUsage + kTrailerUsage;

int usage() {
  std::fputs(kUsageText.c_str(), stderr);
  return 2;
}

/// The one shape every usage error takes: the offending detail, then the
/// usage block it violated, then exit code 2. `block` defaults to the full
/// text; campaign paths pass kCampaignUsage.
int usage_error(const std::string& message, const char* block = nullptr) {
  std::fprintf(stderr, "propane: %s\n", message.c_str());
  if (block != nullptr) {
    std::fputs(block, stderr);
  } else {
    std::fputs(kUsageText.c_str(), stderr);
  }
  return 2;
}

SystemModel load_model(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "propane: cannot open model file '%s'\n", path);
    std::exit(1);
  }
  return parse_system_model(in);
}

SystemPermeability load_permeability(const SystemModel& model,
                                     const char* path) {
  if (path == nullptr) return SystemPermeability(model);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "propane: cannot open CSV '%s'\n", path);
    std::exit(1);
  }
  return load_permeability_csv(in, model);
}

void cmd_analyze(const SystemModel& model, const AnalysisReport& report) {
  std::puts("Module measures (Eqs. 2-5):");
  std::puts(module_measures_table(report).render().c_str());
  std::puts("Signal error exposures (Eq. 6):");
  std::puts(signal_exposure_table(report).render().c_str());
  std::puts("Propagation paths (non-zero):");
  std::puts(path_table(report, true).render().c_str());
  std::puts("Placement advice:");
  std::puts(placement_table(report.placement).render().c_str());
  for (const auto& exclusion : report.placement.exclusions) {
    std::printf("do not instrument %-12s %s\n", exclusion.name.c_str(),
                exclusion.reason.c_str());
  }
  (void)model;
}

void cmd_paths(const SystemModel& model, const AnalysisReport& report) {
  (void)model;
  std::puts(path_table(report, false).render().c_str());
}

void cmd_advise(const SystemModel& model, const AnalysisReport& report) {
  (void)model;
  std::puts(placement_table(report.placement).render().c_str());
}

void cmd_tree(const SystemModel& model, const AnalysisReport& report) {
  for (std::uint32_t o = 0; o < model.system_output_count(); ++o) {
    std::printf("Backtrack tree of system output %s:\n",
                model.system_output_name(o).c_str());
    std::puts(render_ascii_tree(model, report.backtrack_trees[o]).c_str());
  }
  for (std::uint32_t i = 0; i < model.system_input_count(); ++i) {
    std::printf("Trace tree of system input %s:\n",
                model.system_input_name(i).c_str());
    std::puts(render_ascii_tree(model, report.trace_trees[i]).c_str());
  }
}

void cmd_dot(const SystemModel& model, const AnalysisReport& report) {
  std::puts(to_dot(model).c_str());
  std::puts(to_dot(model, report.graph).c_str());
  for (std::uint32_t o = 0; o < model.system_output_count(); ++o) {
    std::puts(to_dot(model, report.backtrack_trees[o],
                     "backtrack " + model.system_output_name(o))
                  .c_str());
  }
}

// --- propane campaign ----------------------------------------------------

struct CampaignArgs {
  std::string sub;
  std::filesystem::path journal;
  std::string scale_name;  // empty: defer to PROPANE_SCALE
  std::size_t shards = 4;
  std::uint32_t processes = 1;
  std::uint32_t index = 0;
  std::string csv_path;
  std::string metrics_out;   // empty: <journal>/telemetry.ndjson
  bool no_telemetry = false;
  int progress = -1;         // -1 auto (TTY), 0 off, 1 forced on
  std::filesystem::path baseline;  // delta: cached journal directory
  std::string invalidate;    // delta: comma-separated module names
  bool explain = false;      // delta: per-module hit/miss table
  std::vector<std::filesystem::path> sources;  // merge positionals
  std::uint32_t workers = 2;     // serve: worker processes to spawn
  std::uint64_t lease_runs = 0;  // serve: runs per lease (0 = auto)
  std::uint32_t worker_id = 0;   // worker: dispatcher-assigned identity
  std::string trace_out;         // trace: output path (empty: <journal>/trace.json)
  bool postmortem = false;       // trace: recover flight-recorder tails
  std::size_t replicates = 1000;   // bootstrap: -B
  std::uint64_t boot_seed = 42;    // bootstrap: --seed (resampling streams)
  std::size_t top_k = 3;           // bootstrap: ranking-stability threshold
  std::string fractions;           // bootstrap: convergence-study ladder
  std::size_t threads = 0;         // bootstrap: worker threads (0 = auto)
};

std::uint64_t parse_count(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::exit(usage_error(std::string(flag) + " expects a number, got '" +
                              text + "'",
                          kCampaignUsage));
  }
  return value;
}

bool parse_campaign_args(int argc, char** argv, CampaignArgs& args) {
  args.sub = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage_error(arg + " needs a value", kCampaignUsage));
      }
      return argv[++i];
    };
    if (arg == "--journal") {
      args.journal = value();
    } else if (arg == "--scale") {
      args.scale_name = value();
    } else if (arg == "--shards") {
      args.shards = static_cast<std::size_t>(parse_count("--shards", value()));
    } else if (arg == "--processes") {
      args.processes =
          static_cast<std::uint32_t>(parse_count("--processes", value()));
    } else if (arg == "--index") {
      args.index = static_cast<std::uint32_t>(parse_count("--index", value()));
    } else if (arg == "--csv") {
      args.csv_path = value();
    } else if (arg == "--metrics-out") {
      args.metrics_out = value();
    } else if (arg == "--no-telemetry") {
      args.no_telemetry = true;
    } else if (arg == "--baseline") {
      args.baseline = value();
    } else if (arg == "--invalidate") {
      args.invalidate = value();
    } else if (arg == "--explain") {
      args.explain = true;
    } else if (arg == "--progress") {
      args.progress = 1;
    } else if (arg == "--no-progress") {
      args.progress = 0;
    } else if (arg == "--workers") {
      args.workers =
          static_cast<std::uint32_t>(parse_count("--workers", value()));
    } else if (arg == "--lease-runs") {
      args.lease_runs = parse_count("--lease-runs", value());
    } else if (arg == "--worker-id") {
      args.worker_id =
          static_cast<std::uint32_t>(parse_count("--worker-id", value()));
    } else if (arg == "--out") {
      args.trace_out = value();
    } else if (arg == "--postmortem") {
      args.postmortem = true;
    } else if (arg == "-B" || arg == "--replicates") {
      args.replicates =
          static_cast<std::size_t>(parse_count("-B", value()));
    } else if (arg == "--seed") {
      args.boot_seed = parse_count("--seed", value());
    } else if (arg == "--top-k") {
      args.top_k = static_cast<std::size_t>(parse_count("--top-k", value()));
    } else if (arg == "--fractions") {
      args.fractions = value();
    } else if (arg == "--threads") {
      args.threads =
          static_cast<std::size_t>(parse_count("--threads", value()));
    } else if (!arg.empty() && arg.front() == '-') {
      usage_error("unknown campaign flag '" + arg + "'", kCampaignUsage);
      return false;
    } else {
      args.sources.emplace_back(arg);
    }
  }
  // `campaign bootstrap --baseline <dir>` is accepted as an alias for
  // --journal: the bootstrap reads a journal the way delta reads its
  // baseline, so both spellings name the same thing.
  if (args.sub == "bootstrap" && args.journal.empty()) {
    args.journal = args.baseline;
  }
  if (args.journal.empty()) {
    usage_error("campaign commands need --journal <dir>", kCampaignUsage);
    return false;
  }
  return true;
}

exp::ExperimentScale pick_scale(const std::string& name) {
  if (name.empty()) return exp::scale_from_env();
  if (name == "full" || name == "paper") return exp::paper_scale();
  if (name == "small" || name == "smoke") return exp::smoke_scale();
  if (name == "default") return exp::default_scale();
  std::exit(usage_error("unknown scale '" + name + "' (full|default|small)",
                        kCampaignUsage));
}

void print_warnings(const std::vector<std::string>& warnings) {
  for (const std::string& warning : warnings) {
    std::fprintf(stderr, "propane: warning: %s\n", warning.c_str());
  }
}

/// Lane-occupancy summary from batch.group.lanes histogram totals: batched
/// injection lanes over total kernel lane slots (batches x lane width).
/// 1.00 means the planner ran every batch full. Quiet when no batched
/// session contributed.
void print_batch_occupancy(std::uint64_t batches, double lanes) {
  if (batches == 0) return;
  const std::size_t width = fi::kDefaultBatchSize;
  std::printf(
      "batch occupancy: %.2f (%.0f lane(s) across %llu batch(es), "
      "width %zu)\n",
      lanes / (static_cast<double>(batches) * static_cast<double>(width)),
      lanes, static_cast<unsigned long long>(batches), width);
}

/// The telemetry log a campaign subcommand writes: --metrics-out and
/// --no-telemetry mapped onto the log writer's options.
obs::CampaignLogOptions log_options(
    const CampaignArgs& args,
    std::optional<std::uint32_t> worker_id = std::nullopt) {
  return {args.journal, args.metrics_out, !args.no_telemetry, worker_id};
}

/// Closes an enabled log and says where its events went.
void print_log_closed(obs::CampaignLogWriter& log) {
  if (log.telemetry() == nullptr) return;
  const std::size_t events = log.close();
  std::printf("telemetry: %zu event(s) appended to %s\n", events,
              log.path().string().c_str());
}

/// `campaign run|resume` and `campaign delta` share this body: a plain run
/// is a delta run against an empty baseline (every lookup misses), which
/// also means every CLI-written journal carries fingerprints and can serve
/// as a later delta's baseline.
int cmd_campaign_execute(const CampaignArgs& args, bool delta_mode) {
  const exp::ExperimentScale scale = pick_scale(args.scale_name);
  std::printf("%s\n", exp::describe(scale).c_str());
  const fi::CampaignConfig config = exp::make_campaign_config(scale);
  const std::vector<arr::TestCase> cases =
      scale.custom_cases.empty()
          ? arr::grid_test_cases(scale.mass_count, scale.velocity_count)
          : scale.custom_cases;
  const SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  store::ResultCache baseline;
  if (delta_mode) {
    if (args.baseline.empty()) {
      return usage_error("campaign delta needs --baseline <journal-dir>",
                         kCampaignUsage);
    }
    baseline = store::ResultCache::load(args.baseline);
    std::printf("baseline %s: %zu cached record(s), %zu without "
                "fingerprints\n",
                args.baseline.string().c_str(), baseline.record_count(),
                baseline.unfingerprinted());
  }

  fi::ModuleVersionMap versions = arr::module_version_tokens();
  if (!args.invalidate.empty()) {
    // Simulate "module M changed" by perturbing its version token: every
    // cached run whose target feeds M now misses. The code itself is
    // unchanged, so the re-executed runs reproduce the cached outcomes --
    // which is exactly what makes this a safe what-if flag.
    std::string names = args.invalidate;
    for (std::size_t start = 0; start < names.size();) {
      std::size_t comma = names.find(',', start);
      if (comma == std::string::npos) comma = names.size();
      const std::string name = names.substr(start, comma - start);
      bool found = false;
      for (fi::ModuleVersion& entry : versions) {
        if (entry.module == name) {
          entry.token ^= 0x5EED5EED5EED5EEDULL;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "propane: --invalidate: unknown module '%s'\n",
                     name.c_str());
        return 2;
      }
      start = comma + 1;
    }
  }

  // Telemetry is on by default and appends to <journal>/telemetry.ndjson,
  // so resumed sessions concatenate into one log and `campaign top` works
  // without extra flags. Observation-only: results are bit-identical with
  // --no-telemetry.
  obs::CampaignLogWriter log(log_options(args));
  obs::ProgressReporter::Options hud_options;
  hud_options.force = args.progress == 1;
  std::optional<obs::ProgressReporter> hud;
  if (args.progress != 0) hud.emplace(hud_options);

  store::DeltaRunOptions options;
  options.base.shard_count = args.shards;
  options.base.process_count = args.processes;
  options.base.process_index = args.index;
  options.base.telemetry = log.telemetry();
  options.base.progress = hud.has_value() ? &*hud : nullptr;
  options.module_versions = versions;
  const store::DeltaJournalSummary summary =
      store::run_delta_journaled_campaign(
          arr::batched_campaign_runner(cases, config, scale.duration, nullptr,
                                       nullptr, options.base.telemetry),
          config, model, binding, args.journal, baseline, options);
  if (hud.has_value()) hud->finish();
  print_warnings(summary.warnings);
  if (!summary.invalidated_modules.empty()) {
    std::string names;
    for (core::ModuleId m : summary.invalidated_modules) {
      if (!names.empty()) names += ", ";
      names += model.module_name(m);
    }
    std::printf("invalidated module(s): %s\n", names.c_str());
  }
  std::printf(
      "journal %s: %zu run(s) executed, %zu replayed from baseline, "
      "%zu already journaled, %zu owned by other process(es), %zu planned\n",
      args.journal.string().c_str(), summary.executed, summary.replayed,
      summary.skipped_completed, summary.skipped_foreign, summary.total_runs);
  const double hit_rate =
      summary.executed > 0 ? 100.0 * static_cast<double>(summary.diverged) /
                                 static_cast<double>(summary.executed)
                           : 0.0;
  std::printf(
      "campaign summary: %.2fs wall, %zu executed, %zu replayed, "
      "%zu skipped, %zu diverged (%.1f%% of executed), journal +%llu bytes\n",
      summary.wall_seconds, summary.executed, summary.replayed,
      summary.skipped_completed + summary.skipped_foreign, summary.diverged,
      hit_rate, static_cast<unsigned long long>(summary.journal_bytes));
  if (args.explain) {
    TextTable table({"Module", "Replayed", "Executed", "Invalidated"});
    for (const store::ModuleDeltaExplain& row : summary.per_module) {
      table.add_row({row.module, std::to_string(row.replayed),
                     std::to_string(row.executed),
                     row.invalidated ? "yes" : ""});
    }
    std::puts(table.render().c_str());
  }
  print_log_closed(log);
  return 0;
}

/// Path workers are spawned from: the running binary itself, resolved via
/// /proc/self/exe so a PATH-looked-up argv[0] still execs.
std::string executable_path(const char* argv0) {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(argv0) : exe.string();
}

int cmd_campaign_serve(const CampaignArgs& args, const char* argv0) {
  const exp::ExperimentScale scale = pick_scale(args.scale_name);
  std::printf("%s\n", exp::describe(scale).c_str());
  const fi::CampaignConfig config = exp::make_campaign_config(scale);
  const SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  obs::CampaignLogWriter log(log_options(args));

  svc::ServeOptions options;
  options.worker_count = args.workers;
  options.lease_runs = args.lease_runs;
  // Workers re-derive the same config from the scale's canonical name (the
  // plan hash check in their resume scan catches any drift). Telemetry is
  // per-worker NDJSON files; sharing the dispatcher's would tear lines.
  options.worker_command = {executable_path(argv0),
                            "campaign",
                            "worker",
                            "--journal",
                            args.journal.string(),
                            "--scale",
                            scale.name,
                            "--shards",
                            std::to_string(args.shards)};
  if (args.no_telemetry) options.worker_command.push_back("--no-telemetry");
  options.telemetry = log.telemetry();
  options.model = &model;
  options.binding = &binding;
  options.bus_signal_count = binding.bus_upper_bound();
  const svc::ServeSummary summary =
      svc::serve_campaign(config, args.journal, options);

  std::printf(
      "serve %s: %llu lease(s) granted, %llu completed, %llu requeued, "
      "%u worker(s) spawned (%u died), %llu executed, %llu diverged, "
      "%.2fs wall\n",
      args.journal.string().c_str(),
      static_cast<unsigned long long>(summary.leases_granted),
      static_cast<unsigned long long>(summary.leases_completed),
      static_cast<unsigned long long>(summary.leases_requeued),
      summary.workers_spawned, summary.workers_died,
      static_cast<unsigned long long>(summary.executed),
      static_cast<unsigned long long>(summary.diverged),
      summary.wall_seconds);
  if (summary.partial_estimates > 0) {
    std::printf("partial estimates: %llu emitted, final covers %llu of %zu "
                "run(s)\n",
                static_cast<unsigned long long>(summary.partial_estimates),
                static_cast<unsigned long long>(summary.estimated_runs),
                summary.total_runs);
  }
  std::printf("lease log: %s\n", summary.lease_log_path.string().c_str());
  print_log_closed(log);
  if (summary.workers_died > 0 && !args.no_telemetry) {
    std::printf(
        "worker death(s) detected -- `propane campaign trace --journal %s "
        "--postmortem` recovers the dead workers' final events from their "
        "flight recorders\n",
        args.journal.string().c_str());
  }
  return 0;
}

/// `campaign worker`: stdout belongs to the wire protocol, so every human
/// readable line goes to stderr.
int cmd_campaign_worker(const CampaignArgs& args) {
  const exp::ExperimentScale scale = pick_scale(args.scale_name);
  const fi::CampaignConfig config = exp::make_campaign_config(scale);
  const std::vector<arr::TestCase> cases =
      scale.custom_cases.empty()
          ? arr::grid_test_cases(scale.mass_count, scale.velocity_count)
          : scale.custom_cases;

  // One event log per worker (concurrent appenders would tear lines),
  // teed into the worker's crash flight ring.
  obs::CampaignLogWriter log(log_options(args, args.worker_id));

  svc::WorkerConfig worker;
  worker.worker_id = args.worker_id;
  worker.journal_dir = args.journal;
  worker.journal.shard_count = args.shards;
  worker.journal.telemetry = log.telemetry();
  // Fingerprinted like `campaign run`, so the served journal can be a
  // delta baseline.
  {
    SystemModel model = arr::make_arrestment_model();
    fi::SignalBinding binding = arr::make_arrestment_binding(model);
    worker.fingerprints = svc::RecordFingerprinting{
        std::move(model), std::move(binding), arr::module_version_tokens()};
  }

  svc::WorkerSummary summary;
  const int code = svc::run_worker_loop(
      arr::batched_campaign_runner(cases, config, scale.duration, nullptr,
                                   nullptr, worker.journal.telemetry),
      config, worker, std::cin, std::cout, &summary);
  log.close(/*clean_exit=*/code == 0);
  std::fprintf(stderr,
               "propane worker %u: %llu lease(s), %llu executed, "
               "%llu diverged, exit %d\n",
               args.worker_id, static_cast<unsigned long long>(summary.leases),
               static_cast<unsigned long long>(summary.executed),
               static_cast<unsigned long long>(summary.diverged), code);
  return code;
}

int cmd_campaign_merge(const CampaignArgs& args) {
  if (args.sources.empty()) {
    return usage_error("campaign merge needs source directories",
                       kCampaignUsage);
  }
  const store::MergeSummary summary =
      store::merge_journals(args.journal, args.sources);
  print_warnings(summary.warnings);
  std::printf("merged into %s: %zu unique record(s), %zu duplicate(s) dropped\n",
              args.journal.string().c_str(), summary.record_count,
              summary.duplicate_count);
  return 0;
}

int cmd_campaign_stats(const CampaignArgs& args) {
  const SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);
  store::JournalStats stats = [&] {
    if (args.csv_path.empty()) {
      return store::estimate_from_journal(args.journal, model, binding);
    }
    std::ofstream out(args.csv_path);
    if (!out) {
      std::fprintf(stderr, "propane: cannot write CSV '%s'\n",
                   args.csv_path.c_str());
      std::exit(1);
    }
    return store::write_permeability_csv_from_journal(out, args.journal,
                                                      model, binding);
  }();
  print_warnings(stats.warnings);
  std::printf("journal %s: plan 0x%016llx, seed 0x%016llx, %zu of %zu "
              "run(s) journaled (%zu replayed from a delta baseline), "
              "%zu duplicate(s)\n",
              args.journal.string().c_str(),
              static_cast<unsigned long long>(stats.manifest.plan_hash),
              static_cast<unsigned long long>(stats.manifest.seed),
              stats.record_count, stats.manifest.total_runs(),
              stats.replayed_count, stats.duplicate_count);
  std::puts("Estimated permeabilities (Table 1 style):");
  std::puts(exp::table1_permeability(model, stats.estimation).render().c_str());
  // Telemetry only enriches stats: an unreadable log costs the occupancy
  // line, with a warning, not the estimate.
  try {
    const obs::CampaignLogSummary logs = obs::summarize_campaign_logs(
        obs::find_campaign_logs(args.journal, args.metrics_out).logs);
    print_batch_occupancy(logs.lane_batches, logs.lanes);
  } catch (const std::exception& err) {
    print_warnings({std::string(err.what()) + " (batch occupancy omitted)"});
  }
  if (!args.csv_path.empty()) {
    std::printf("permeability CSV written to %s\n", args.csv_path.c_str());
  }
  return 0;
}

// --- propane campaign bootstrap ------------------------------------------

/// Parses the --fractions ladder ("0.25,0.5,0.75"); exits with a usage
/// error on anything that is not a comma-separated list of numbers.
std::vector<double> parse_fractions(const std::string& text) {
  std::vector<double> fractions;
  for (std::size_t start = 0; start < text.size();) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string field = text.substr(start, comma - start);
    char* end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0' || !(value > 0.0) ||
        value > 1.0) {
      std::exit(usage_error("--fractions expects numbers in (0,1], got '" +
                                field + "'",
                            kCampaignUsage));
    }
    fractions.push_back(value);
    start = comma + 1;
  }
  return fractions;
}

/// `campaign bootstrap`: resamples the journal's records (no re-simulation)
/// into replicate permeability draws and propagates each through the whole
/// analysis pipeline; prints confidence tables and writes the summary.json
/// / bands.svg / confidence.dot artifact set.
int cmd_campaign_bootstrap(const CampaignArgs& args) {
  const SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  // Same telemetry arrangement as every other campaign subcommand: append
  // to <journal>/telemetry.ndjson unless told otherwise. Observation-only;
  // the artifacts are bit-identical with --no-telemetry.
  obs::CampaignLogWriter log(log_options(args));

  // Stream the journal once; the resampler's bus width comes from the
  // first record's report, as in store::estimate_from_journal.
  std::optional<fi::BootstrapResampler> resampler;
  const store::CampaignDirState state = store::for_each_journal_record(
      args.journal, [&](const fi::InjectionRecord& record, std::size_t) {
        if (!resampler.has_value()) {
          const std::size_t bus_count = std::max(
              binding.bus_upper_bound(), record.report.per_signal.size());
          resampler.emplace(model, binding, bus_count);
        }
        resampler->add(record);
      });
  print_warnings(state.warnings);
  if (!resampler.has_value() || resampler->record_count() == 0) {
    std::fprintf(stderr,
                 "propane: journal '%s' holds no injection records to "
                 "bootstrap\n",
                 args.journal.string().c_str());
    return 1;
  }
  std::printf("journal %s: plan 0x%016llx, seed 0x%016llx, %zu record(s) in "
              "%zu (signal, test case) cell(s)\n",
              args.journal.string().c_str(),
              static_cast<unsigned long long>(state.manifest.plan_hash),
              static_cast<unsigned long long>(state.manifest.seed),
              resampler->record_count(), resampler->cell_count());

  fi::BootstrapOptions options;
  options.replicates = args.replicates;
  options.seed = args.boot_seed;
  options.top_k = args.top_k;
  options.threads = args.threads;
  if (!args.fractions.empty()) {
    options.run_fractions = parse_fractions(args.fractions);
  }
  const fi::BootstrapResult result =
      resampler->run(options, log.telemetry());

  std::printf("bootstrap: %zu replicate(s), seed %llu, top-k %zu, "
              "%zu convergence point(s)\n",
              result.replicates,
              static_cast<unsigned long long>(result.seed), result.top_k,
              result.convergence.size());

  std::puts("Module uncertainty (Eq. 5 exposure and rankings):");
  TextTable modules({"Module", "X~ (Eq.5)", "2.5%", "97.5%", "P(top1 EDM)",
                     "P~ (Eq.3)", "P(top1 ERM)"});
  for (const fi::ModuleCloud& m : result.modules) {
    modules.add_row(
        {m.name, format_double(m.nonweighted_exposure.point, 3),
         format_double(m.nonweighted_exposure.band.p2_5, 3),
         format_double(m.nonweighted_exposure.band.p97_5, 3),
         format_double(m.p_top1_exposure, 2),
         format_double(m.nonweighted_permeability.point, 3),
         format_double(m.p_top1_permeability, 2)});
  }
  std::puts(modules.render().c_str());

  std::puts("Propagation-path ranking stability (Table 4 with bands):");
  TextTable paths({"#", "Propagation path", "Weight", "2.5%", "97.5%",
                   "P(top1)", "P(topk)"});
  paths.set_align(1, Align::kLeft);
  std::size_t rank = 0;
  for (const fi::PathCloud& p : result.paths) {
    if (p.weight.point <= 0.0) continue;
    ++rank;
    if (rank > 10) break;
    paths.add_row({std::to_string(rank), p.description,
                   format_double(p.weight.point, 3),
                   format_double(p.weight.band.p2_5, 3),
                   format_double(p.weight.band.p97_5, 3),
                   format_double(p.p_top1, 2), format_double(p.p_topk, 2)});
  }
  std::puts(paths.render().c_str());

  std::puts("Convergence (\"how many runs is enough?\"):");
  TextTable conv({"Fraction", "Draws/replicate", "EDM pick", "P(top-1)"});
  for (const fi::ConvergencePoint& cp : result.convergence) {
    // The module most often ranked first at this campaign size.
    std::size_t best = 0;
    for (std::size_t m = 1; m < cp.module_p_top1.size(); ++m) {
      if (cp.module_p_top1[m] > cp.module_p_top1[best]) best = m;
    }
    conv.add_row({format_double(cp.fraction, 2), std::to_string(cp.draws),
                  result.module_names[best],
                  format_double(cp.module_p_top1[best], 2)});
  }
  std::puts(conv.render().c_str());

  std::printf("placement confidence: EDM %s P(top-1)=%s, ERM %s "
              "P(top-1)=%s\n",
              result.edm_module.c_str(),
              format_double(result.edm_p_top1, 2).c_str(),
              result.erm_module.c_str(),
              format_double(result.erm_p_top1, 2).c_str());

  const std::filesystem::path out_dir = args.trace_out.empty()
                                            ? args.journal / "bootstrap"
                                            : std::filesystem::path(
                                                  args.trace_out);
  const exp::BootstrapArtifactPaths artifacts =
      exp::write_bootstrap_artifacts(out_dir, model, result);
  std::printf("bootstrap artifacts: %s, %s, %s\n",
              artifacts.json.string().c_str(),
              artifacts.svg.string().c_str(),
              artifacts.dot.string().c_str());
  const double replicates_per_s =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.replicates *
                                result.convergence.size()) /
                result.wall_seconds
          : 0.0;
  std::printf("bootstrap summary: %.2fs wall, %.0f replicate(s)/s\n",
              result.wall_seconds, replicates_per_s);

  print_log_closed(log);
  return 0;
}

// --- propane campaign top / trace --------------------------------------

/// The journal's telemetry logs; prints the error and returns nullopt when
/// there are none.
std::optional<obs::CampaignLogSet> find_logs_or_complain(
    const CampaignArgs& args, const char* why) {
  obs::CampaignLogSet set =
      obs::find_campaign_logs(args.journal, args.metrics_out);
  if (set.logs.empty()) {
    std::fprintf(stderr, "propane: no telemetry log at '%s'%s\n",
                 obs::campaign_log_path(log_options(args)).string().c_str(),
                 why);
    return std::nullopt;
  }
  return set;
}

/// Summarises the campaign telemetry logs -- the dispatcher's plus every
/// worker's. Doubles as an NDJSON validity check: any malformed line other
/// than crash residue is a hard error (obs::read_campaign_log).
int cmd_campaign_top(const CampaignArgs& args) {
  const auto set = find_logs_or_complain(
      args, " (campaign run writes it; --metrics-out overrides the location)");
  if (!set.has_value()) return 1;
  const obs::CampaignLogSummary summary =
      obs::summarize_campaign_logs(set->logs);
  const obs::LogTally& total = summary.total;

  std::string torn_note;
  if (total.torn > 0) {
    torn_note = " (" + std::to_string(total.torn) + " torn line(s) skipped)";
  }
  std::printf("telemetry %s: %zu event(s) across %zu stream(s), %.2fs%s\n",
              args.journal.string().c_str(), total.events, set->logs.size(),
              total.span_s, torn_note.c_str());

  TextTable events_table({"Event", "Count"});
  for (const auto& [event, count] : summary.event_counts) {
    events_table.add_row({event, std::to_string(count)});
  }
  std::puts(events_table.render().c_str());

  if (summary.streams.size() > 1) {
    TextTable streams_table(
        {"Stream", "Events", "Batches", "Injections", "Diverged", "Span s"});
    for (const obs::LogTally& tally : summary.streams) {
      streams_table.add_row({tally.label, std::to_string(tally.events),
                             std::to_string(tally.batches),
                             std::to_string(tally.injections),
                             std::to_string(tally.diverged),
                             format_double(tally.span_s, 2)});
    }
    std::puts(streams_table.render().c_str());
  }

  if (total.injections > 0) {
    std::printf("injections: %zu done, %zu diverged (%.1f%%)\n",
                total.injections, total.diverged,
                100.0 * static_cast<double>(total.diverged) /
                    static_cast<double>(total.injections));
  }
  if (total.batches > 0) {
    // Measured per batch: a batch's wall time is not divided among its
    // lanes.
    std::printf("batches: %zu, mean %.1f ms, max %.1f ms\n", total.batches,
                total.batch_dur_sum_us / static_cast<double>(total.batches) /
                    1e3,
                total.batch_dur_max_us / 1e3);
  }
  // Journal size from the shard files themselves.
  const std::vector<std::filesystem::path> shards =
      store::ShardedJournalWriter::list_shards(args.journal);
  if (!shards.empty()) {
    std::uint64_t bytes = 0;
    for (const std::filesystem::path& shard : shards) {
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(shard, ec);
      if (!ec) bytes += size;
    }
    std::printf("journal: %llu bytes across %zu shard(s)\n",
                static_cast<unsigned long long>(bytes), shards.size());
  }
  print_batch_occupancy(summary.lane_batches, summary.lanes);
  if (!summary.last_session.empty()) {
    std::string line = "last session:";
    for (const obs::Field& field : summary.last_session) {
      line += " " + field.key + "=" + obs::to_text(field.value);
    }
    std::puts(line.c_str());
  }
  if (!summary.final_metrics.empty()) {
    TextTable metrics_table({"Metric", "Value"});
    for (const auto& [metric, value] : summary.final_metrics) {
      metrics_table.add_row({metric, value});
    }
    std::puts(metrics_table.render().c_str());
  }
  return 0;
}

/// Merges the dispatcher's and every worker's telemetry into one
/// Chrome/Perfetto trace-event JSON; --postmortem folds in the tail events
/// dead workers left in their flight-recorder rings.
int cmd_campaign_trace(const CampaignArgs& args) {
  const auto logs = find_logs_or_complain(
      args,
      " -- `campaign trace` needs the NDJSON streams a telemetry-enabled "
      "campaign writes");
  if (!logs.has_value()) return 1;
  const obs::TraceStreamSet set =
      obs::assemble_trace_streams(*logs, args.postmortem);
  for (const obs::FlightReport& ring : set.postmortem) {
    std::printf(
        "postmortem w%u: pid %llu, %s, %zu ring event(s), %zu recovered "
        "(missing from the NDJSON stream)\n",
        ring.worker_id, static_cast<unsigned long long>(ring.pid),
        ring.clean_exit ? "clean exit" : "crashed (no clean-exit flag)",
        ring.ring_events, ring.recovered);
  }
  if (set.crashed > 0 && !args.postmortem) {
    std::printf(
        "%zu flight recorder(s) flag a crash; re-run with --postmortem to "
        "fold their final events into the trace\n",
        set.crashed);
  }

  const std::filesystem::path out_path =
      args.trace_out.empty() ? args.journal / "trace.json"
                             : std::filesystem::path(args.trace_out);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "propane: cannot write trace '%s'\n",
                 out_path.string().c_str());
    return 1;
  }
  const obs::TraceExportSummary summary =
      obs::write_chrome_trace(out, set.streams);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "propane: write failed for trace '%s'\n",
                 out_path.string().c_str());
    return 1;
  }
  std::string skipped_note;
  if (set.torn_lines > 0) {
    skipped_note =
        " (" + std::to_string(set.torn_lines) + " torn line(s) skipped)";
  }
  std::printf(
      "trace %s: %zu event(s) from %zu stream(s) -- %zu span(s), "
      "%zu synthesized, %zu counter sample(s), %zu instant(s)%s\n",
      out_path.string().c_str(), summary.trace_events, set.streams.size(),
      summary.spans, summary.synthesized, summary.counter_samples,
      summary.instants, skipped_note.c_str());
  std::printf("open in ui.perfetto.dev or chrome://tracing\n");
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
  CampaignArgs args;
  if (!parse_campaign_args(argc, argv, args)) return 2;
  if (args.sub == "run" || args.sub == "resume") {
    return cmd_campaign_execute(args, /*delta_mode=*/false);
  }
  if (args.sub == "delta") return cmd_campaign_execute(args, /*delta_mode=*/true);
  if (args.sub == "serve") return cmd_campaign_serve(args, argv[0]);
  if (args.sub == "worker") return cmd_campaign_worker(args);
  if (args.sub == "merge") return cmd_campaign_merge(args);
  if (args.sub == "stats") return cmd_campaign_stats(args);
  if (args.sub == "bootstrap") return cmd_campaign_bootstrap(args);
  if (args.sub == "top") return cmd_campaign_top(args);
  if (args.sub == "trace") return cmd_campaign_trace(args);
  return usage_error("unknown campaign subcommand '" + args.sub + "'",
                     kCampaignUsage);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string first = argv[1];
    if (first == "--help" || first == "-h" || first == "help") {
      std::fputs(kUsageText.c_str(), stdout);  // asked-for help is not an error
      return 0;
    }
  }
  if (argc < 3) return usage();
  const std::string command = argv[1];
  try {
    if (command == "campaign") return cmd_campaign(argc, argv);
    const SystemModel model = load_model(argv[2]);
    if (command == "check") {
      std::printf("OK: %zu modules, %zu system inputs, %zu system outputs, "
                  "%zu I/O pairs\n",
                  model.module_count(), model.system_input_count(),
                  model.system_output_count(), model.io_pair_count());
      return 0;
    }
    const SystemPermeability permeability =
        load_permeability(model, argc >= 4 ? argv[3] : nullptr);
    const AnalysisReport report = analyze(model, permeability);
    if (command == "analyze") {
      cmd_analyze(model, report);
    } else if (command == "paths") {
      cmd_paths(model, report);
    } else if (command == "advise") {
      cmd_advise(model, report);
    } else if (command == "tree") {
      cmd_tree(model, report);
    } else if (command == "dot") {
      cmd_dot(model, report);
    } else if (command == "report") {
      ReportOptions report_options;
      report_options.title =
          std::string("Error propagation analysis: ") + argv[2];
      write_markdown_report(std::cout, model, report, report_options);
    } else if (command == "influence") {
      const InfluenceMatrix matrix(model, permeability);
      std::puts("Strongest-route influence, system inputs x outputs:");
      std::puts(matrix.boundary_table(model).render().c_str());
      std::puts("Full signal x signal matrix:");
      std::puts(matrix.full_table().render().c_str());
    } else {
      return usage();
    }
  } catch (const propane::TaskGroupError& err) {
    // Worker threads raised more than one exception; the campaign's result
    // is incomplete in a way a single error message cannot fully convey, so
    // this exits with a code distinct from ordinary failures.
    std::fprintf(stderr, "propane: %s\n", err.what());
    return 3;
  } catch (const propane::ContractViolation& err) {
    std::fprintf(stderr, "propane: %s\n", err.what());
    return 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "propane: %s\n", err.what());
    return 1;
  }
  return 0;
}
