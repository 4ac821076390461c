// drbw — the command-line front-end to the DR-BW reproduction.
//
//   drbw train    [--seed N] [--out model.json]
//       Collect the Table II mini-program runs and train the classifier.
//
//   drbw record   --benchmark NAME [--input I] [--config Tt-Nn]
//                 [--placement original|interleave|colocate|replicate]
//                 [--out trace.csv] [--seed N] [--format csv|binary]
//                 [--shards N] [--jobs N]
//       Run a proxy benchmark on the simulated machine with DR-BW attached
//       and write the PEBS sample trace + allocation events.  --format
//       binary writes the compact v3 body (10-100x faster to load);
//       --shards N splits the trace into N per-worker artifacts behind a
//       shard-set index at --out, written in parallel across --jobs.
//
//   drbw analyze  --trace trace.csv [--model model.json] [--windows N]
//                 [--jobs N] [--expect-trace-version V]
//       Offline analysis of a recorded trace: per-channel verdicts,
//       Contribution Fractions, and optimization advice.  Sharded sets are
//       detected from the index header and loaded across --jobs workers
//       (the merged trace is byte-identical at any value).
//       --expect-trace-version V rejects artifacts newer than vV with the
//       version-skew exit code (69).  NOTE: offline page-home lookups need
//       the recording address space, so analyze re-materializes the
//       benchmark's layout from the trace's allocation events
//       (bind-to-node-0 fallback for unknown ranges).
//
//   drbw explain  --trace trace.csv [--model model.json] [--windows N]
//                 [--out explain.json] [--report FILE] [--jobs N]
//       Model observability for a recorded trace: every windowed channel
//       verdict comes back with its exact decision path through the tree,
//       a leaf-purity confidence score, and Saabas-style per-feature
//       attribution.  Writes a checksummed `#drbw-explain v1` JSON artifact
//       (decision-path frequency and attribution aggregates included) and,
//       with --report, a per-window Markdown report.  Byte-identical at any
//       --jobs value.
//
//   drbw serve    --replay trace.csv [--model model.json] [--clients N]
//                 [--queue-depth D] [--overload block|shed-oldest|reject]
//                 [--window-cycles W] [--drain-rate R] [--max-cycles C]
//                 [--max-retries K] [--breaker-threshold K]
//                 [--snapshot-out FILE] [--snapshot-every N]
//                 [--drift-threshold F] [--jobs N]
//       Online contention detection: replay a recorded trace as N simulated
//       client streams through bounded ingest queues, sliding-window
//       featurization, and incremental classification.  Overload behaviour
//       is an explicit policy; failed operations retry with deterministic
//       backoff and a circuit breaker quarantines misbehaving clients.
//       With a missing/corrupt --model the server degrades to pass-through
//       telemetry and still exits 0 (the manifest records degraded=true).
//       A checksummed serve_snapshot.json lands in --run-dir either way.
//       Models saved at format v3 embed their training distribution; the
//       server then measures per-client PSI drift against it, records a
//       windowed contention timeline in the snapshot, and --drift-threshold
//       F marks the run drift-suspected (typed, never fatal — the manifest
//       records drift="suspected" and `drbw doctor` surfaces it).  Older
//       models still serve with drift reported unavailable.
//
//   drbw convert  --in trace.csv --out trace.bin [--format csv|binary]
//                 [--shards N] [--jobs N]
//       Re-encode a trace artifact: csv <-> binary, shard or unshard.  The
//       loaded records round-trip exactly, so converting down to csv v2 is
//       the escape hatch for consumers pinned to the older format.
//
//   drbw inspect  --model model.json
//       Pretty-print a trained model (Fig. 3 style).
//
//   drbw topology [--machine xeon|opteron]
//       Print the machine description and channel table.
//
//   drbw stats    --trace obs_trace.json [--width N] [--top N] [--serve]
//       Render the per-epoch channel-utilization ASCII timeline from a trace
//       produced with --trace-out.  With --serve the input is a
//       serve_snapshot.json instead and the windowed contention timeline is
//       rendered (classified-rmc fraction, confidence p50, drift score).
//
//   drbw doctor   [run-dir]
//       Post-mortem: load the run manifest (run.json) and flight dump
//       (flight.log) a previous run left in run-dir and print a ranked
//       diagnosis.  Diagnosing a failed run successfully exits 0.
//
//   drbw perf diff <baseline/run.json> <after/run.json>... [--threshold F]
//       Compare span statistics and metric counters between run manifests:
//       the first is the baseline, every following manifest is diffed
//       against it.  Exits 3 when any comparison regressed past the
//       threshold (default 0.25 = +25%), which CI uses as a perf gate.
//
//   drbw fleet <root-dir> [--baseline run.json] [--threshold F]
//              [--filter status=ok|failed] [--top N] [--jobs N]
//              [--out report.md] [--json-out report.json]
//              [--flame-out profile.folded]
//       Aggregate every run dir under root-dir (recursively) into a fleet
//       report: outcome histogram, span-time distributions, fault-fire and
//       quarantine tallies; corrupt manifests are quarantined into the
//       report, never fatal.  --baseline perf-diffs every passing run
//       against the given manifest and exits 3 when any regresses;
//       --flame-out merges every run's flight.log spans into one
//       collapsed-stack profile.  All outputs are byte-identical at any
//       --jobs value.
//
//   drbw flame <run-dir|trace> [--out FILE]
//       Fold one run's deterministic spans into collapsed-stack format
//       (`stage;substage;span weight` — what flamegraph.pl and speedscope
//       ingest).  A directory folds its flight.log; a file is either a
//       flight dump or a trace_event JSON from --trace-out.
//
// train/record/analyze/serve additionally accept --trace-out FILE (Chrome
// trace_event JSON), --metrics-out FILE (.json => JSON, else Prometheus
// text), --timing sim|wall (wall-clock span durations; marks the trace
// non-golden), --inject-faults SPEC (deterministic fault injection,
// grammar: seed=N,site:kind:rate,...), and --run-dir DIR (where the run
// manifest `run.json` and flight dump `flight.log` land; default ".").
// analyze also accepts --load-mode strict|lenient and --max-bad-fraction F
// (lenient loads quarantine malformed trace records and escalate past the
// cap).
//
// Every train/record/analyze run leaves a provenance manifest behind, and on
// any typed failure the flight recorder's last events are dumped next to it
// before the process exits — `drbw doctor` turns the pair into a diagnosis.
//
// Exit codes: 0 success, 1 runtime error, 2 analyze found contention,
// 3 perf diff found a regression, 64 malformed arguments, 65 unknown
// subcommand, 66 missing input file, 67 parse error, 68 corrupt artifact,
// 69 artifact version skew, 70 injected fault, 74 I/O error.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "drbw/drbw.hpp"
#include "drbw/fault/injector.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/manifest.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/obs/flame.hpp"
#include "drbw/report/fleet.hpp"
#include "drbw/report/markdown.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/ascii_chart.hpp"
#include "drbw/util/cli.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/task_pool.hpp"
#include "drbw/util/table.hpp"
#include "drbw/workloads/evaluation.hpp"
#include "drbw/workloads/suite.hpp"
#include "drbw/workloads/training.hpp"

using namespace drbw;

namespace {

constexpr int kExitUsage = 64;           // malformed arguments (EX_USAGE)
constexpr int kExitUnknownCommand = 65;  // unrecognized subcommand
constexpr int kExitPerfRegression = 3;   // perf diff crossed the threshold

/// Flight-ring capacity for CLI runs.  Deliberately far above what any
/// pipeline run emits, so the ring never wraps: a wrapped ring keeps the
/// last N events by *arrival* order, which is scheduling-dependent, and the
/// manifest's flight_dropped counter (asserted 0 in the determinism tests)
/// would flag it.
constexpr std::size_t kFlightCapacity = 65536;

/// Provenance plumbing shared by the pipeline subcommands (train / record /
/// analyze).  Owns what ObsSinks + FaultOptions used to: the
/// --trace-out/--metrics-out/--timing sinks and the --inject-faults arming —
/// plus the run manifest and flight recorder lifecycle:
///
///   begin()    arms trace/flight/fault sinks before any pipeline work
///   stage(s)   leaves a "stage" breadcrumb in the flight ring
///   finish(c)  writes sinks, then flight.log, then run.json *last* — a
///              manifest on disk always describes a finished run
///   fail(e)    records the outcome, disarms the injector (so the post-
///              mortem writes cannot themselves be faulted), and best-effort
///              dumps flight.log + run.json before returning the exit code
struct RunSession {
  static void add_options(ArgParser& parser) {
    parser.add_option("trace-out",
                      "write a Chrome trace_event JSON trace here", "");
    parser.add_option("metrics-out",
                      "write the metrics registry here (.json => JSON, "
                      "otherwise Prometheus text format)",
                      "");
    parser.add_option("timing",
                      "sim | wall: span-duration clock for --trace-out "
                      "(wall marks the trace non-golden)",
                      "sim");
    parser.add_option(
        "inject-faults",
        "deterministic fault spec: seed=N,site:kind:rate,... (sites: "
        "pebs.sample, engine.epoch, trace.read, trace.write, "
        "trace.shard.read, trace.shard.write, model.write, model.drift, "
        "artifact.write, diagnose.cf, report.render, serve.ingest, "
        "serve.session, serve.window, serve.classify; kinds: drop, corrupt, "
        "truncate, malform, short-write, fail)",
        "");
    parser.add_option("run-dir",
                      "directory for the run manifest (run.json) and flight "
                      "dump (flight.log)",
                      ".");
  }

  RunSession(std::string subcommand, const ArgParser& parser)
      : parser_(parser) {
    manifest_.subcommand = std::move(subcommand);
  }

  /// Arms all sinks.  Must run after parse() and before any pipeline work;
  /// malformed --timing/--inject-faults surface as usage errors (exit 64)
  /// before anything is armed.
  void begin() {
    const std::string& timing = parser_.option("timing");
    obs::TimingMode mode;
    if (timing == "sim") {
      mode = obs::TimingMode::kSim;
    } else if (timing == "wall") {
      mode = obs::TimingMode::kWall;
    } else {
      throw UsageError("--timing expects sim or wall, got '" + timing + "'");
    }
    const std::string& spec = parser_.option("inject-faults");
    if (!spec.empty()) {
      try {
        fault::Plan plan = fault::Plan::parse(spec);
        manifest_.fault_spec = plan.to_string();
        fault::Injector::global().arm(std::move(plan));
      } catch (const Error& e) {
        throw UsageError(std::string("--inject-faults: ") + e.what());
      }
      if (!fault::kEnabled) {
        std::cerr << "drbw: warning: built with -DDRBW_FAULT=OFF; "
                     "--inject-faults is accepted but no fault can fire\n";
      }
    }
    run_dir_ = parser_.option("run-dir");
    if (run_dir_.empty()) run_dir_ = ".";
    std::error_code ec;
    std::filesystem::create_directories(run_dir_, ec);  // best-effort

    const bool tracing = !parser_.option("trace-out").empty();
    if (tracing) obs::Trace::instance().enable(mode);
    obs::FlightRecorder::instance().enable(kFlightCapacity);

    manifest_.timing = timing;
    // Span durations are golden (sim-cycle / seq based) unless the trace
    // sink is in wall mode — then Span reports wall micros (see obs::Span).
    manifest_.spans_golden = !(tracing && mode == obs::TimingMode::kWall);
    manifest_.jobs = 1;
    for (const auto& [name, value] : parser_.resolved_options()) {
      if (name == "jobs") {
        manifest_.jobs = static_cast<int>(parser_.option_int("jobs"));
        continue;  // context, not golden — see obs/manifest.hpp
      }
      if (name == "run-dir") continue;  // the manifest's own location
      manifest_.config.emplace_back(name, value);
    }
    begun_ = true;
  }

  /// Stage-transition breadcrumb; `drbw doctor` reports the last one as the
  /// failing stage.
  void stage(const char* name) { obs::flight().note("stage", name); }

  void note_input(const std::string& role, const std::string& path) {
    manifest_.inputs.push_back(make_ref(role, path));
  }
  void note_output(const std::string& role, const std::string& path) {
    manifest_.outputs.push_back(make_ref(role, path));
  }

  /// Marks the run as degraded (completed in a reduced mode, e.g. serve
  /// without a usable model); recorded in the manifest's golden block.
  void set_degraded(bool degraded) { manifest_.degraded = degraded; }

  /// Records serve's drift verdict ("ok" | "suspected" | "unavailable") in
  /// the manifest's golden block — what `drbw doctor` and fleet read.
  void set_drift(std::string verdict) { manifest_.drift = std::move(verdict); }

  /// Records `drbw train`'s tree-shape provenance (node/leaf counts, depth,
  /// per-feature split counts) in the manifest's golden block.
  void set_model_shape(
      std::size_t nodes, std::size_t leaves, int depth,
      std::vector<std::pair<std::string, std::uint64_t>> splits) {
    manifest_.has_model_shape = true;
    manifest_.model_nodes = nodes;
    manifest_.model_leaves = leaves;
    manifest_.model_depth = static_cast<std::uint64_t>(depth);
    manifest_.model_splits = std::move(splits);
  }

  void set_load_stats(const util::LoadStats& stats) {
    manifest_.has_load_stats = true;
    manifest_.records_seen = stats.records_seen;
    manifest_.records_ok = stats.records_ok;
    manifest_.records_quarantined = stats.records_quarantined;
    manifest_.checksum_ok = stats.checksum_ok;
  }

  /// Success path: trace/metrics sinks, then flight.log, then run.json.
  int finish(int exit_code) {
    const std::string& trace_out = parser_.option("trace-out");
    if (!trace_out.empty()) {
      obs::Trace::instance().write_json(trace_out);
      std::cout << "trace (" << obs::Trace::instance().event_count()
                << " events) written to " << trace_out << '\n';
      note_output("obs-trace-out", trace_out);
    }
    const std::string& metrics_out = parser_.option("metrics-out");
    if (!metrics_out.empty()) {
      util::atomic_write_file(metrics_out,
                              metrics_out.ends_with(".json")
                                  ? obs::Registry::global().json_text()
                                  : obs::Registry::global().prometheus_text());
      std::cout << "metrics written to " << metrics_out << '\n';
      note_output("metrics-out", metrics_out);
    }
    manifest_.status = "ok";
    manifest_.exit_code = exit_code;
    write_postmortem(/*best_effort=*/false);
    std::cout << "run manifest written to " << manifest_path() << '\n';
    return exit_code;
  }

  /// Failure path: record the outcome, disarm the injector, dump what we
  /// can.  The exit code is exactly what the error would have produced had
  /// it reached main()'s catch block.
  int fail(const Error& e) {
    std::cerr << "drbw: " << e.what() << '\n';
    manifest_.status = "error";
    manifest_.error_code = error_code_name(e.code());
    manifest_.exit_code = exit_code_for(e.code());
    manifest_.message = e.what();
    write_postmortem(/*best_effort=*/true);
    return manifest_.exit_code;
  }

 private:
  std::string manifest_path() const {
    return run_dir_ + "/" + obs::kManifestFileName;
  }

  /// Content-identifies an artifact: its own `#drbw-*` header when it has a
  /// checksummed one, a whole-file crc otherwise.  Never throws — an
  /// unreadable path is itself provenance worth recording.
  static obs::ArtifactRef make_ref(const std::string& role,
                                   const std::string& path) {
    obs::ArtifactRef ref;
    ref.role = role;
    ref.path = path;
    try {
      const std::string content = util::read_file_or_throw(path, role);
      const auto header =
          util::parse_artifact_header(content.substr(0, content.find('\n')));
      if (header.has_value() && header->has_checksum) {
        ref.kind = header->kind;
        ref.version = header->version;
        ref.crc = header->crc;
        ref.bytes = header->bytes;
      } else {
        ref.kind = "raw";
        ref.crc = util::crc32(content);
        ref.bytes = content.size();
      }
    } catch (const Error&) {
      ref.kind = "unreadable";
    }
    return ref;
  }

  void write_postmortem(bool best_effort) {
    if (!begun_) return;
    // Tally fires *before* disarming; disarm so the post-mortem writes
    // below cannot be faulted into recursion (artifact.write is a site).
    manifest_.fault_fires = fault::Injector::global().fire_counts();
    fault::Injector::global().disarm();
    auto& flight = obs::FlightRecorder::instance();
    manifest_.spans = flight.span_stats();
    manifest_.flight_events = flight.event_count();
    manifest_.flight_dropped = flight.dropped();
    manifest_.metrics_json = obs::Registry::global().json_text();
    const auto write_one = [&](const char* what, const auto& fn) {
      try {
        fn();
      } catch (const std::exception& e) {
        if (!best_effort) throw;
        std::cerr << "drbw: warning: could not write " << what << ": "
                  << e.what() << '\n';
      }
    };
    if (flight.enabled()) {
      write_one("flight dump", [&] {
        flight.write(run_dir_ + "/" + obs::kFlightFileName);
      });
    }
    write_one("run manifest", [&] { manifest_.write(manifest_path()); });
  }

  const ArgParser& parser_;
  obs::RunManifest manifest_;
  std::string run_dir_ = ".";
  bool begun_ = false;
};

topology::Machine machine_by_name(const std::string& name) {
  const std::string lower = to_lower(name);
  if (lower == "xeon") return topology::Machine::xeon_e5_4650();
  if (lower == "opteron") return topology::Machine::opteron_6174();
  throw Error("unknown machine '" + name + "' (use xeon or opteron)");
}

workloads::RunConfig parse_config(const std::string& name) {
  const auto parts = split(name, '-');
  DRBW_CHECK_MSG(parts.size() == 2 && parts[0].size() > 1 && parts[1].size() > 1,
                 "config must look like T32-N4, got '" << name << "'");
  return workloads::RunConfig{std::stoi(parts[0].substr(1)),
                              std::stoi(parts[1].substr(1))};
}

workloads::PlacementMode parse_placement(const std::string& name) {
  for (const auto mode :
       {workloads::PlacementMode::kOriginal, workloads::PlacementMode::kInterleave,
        workloads::PlacementMode::kColocate, workloads::PlacementMode::kReplicate}) {
    if (name == workloads::placement_mode_name(mode)) return mode;
  }
  throw Error("unknown placement '" + name + "'");
}

int cmd_train(int argc, char** argv) {
  ArgParser parser("drbw train", "Train the bandwidth-contention classifier");
  parser.add_option("seed", "training seed", "2017");
  parser.add_option("out", "model output path", "drbw_model.json");
  parser.add_option("machine", "xeon | opteron", "xeon");
  parser.add_option("jobs",
                    "parallel mini-program runs (0 = one per hardware "
                    "thread); the trained model is identical at any value",
                    "0");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("train", parser);
  session.begin();
  try {
    session.stage("train");
    const auto machine = machine_by_name(parser.option("machine"));
    DRBW_CHECK_MSG(parser.option("machine") == "xeon",
                   "the Table II generator targets the Xeon's Tt-Nn grid");
    const auto model = workloads::train_default_classifier(
        machine, static_cast<std::uint64_t>(parser.option_int("seed")),
        static_cast<int>(parser.option_int("jobs")));
    session.stage("persist");
    model.save(parser.option("out"));
    session.note_output("model-out", parser.option("out"));
    // Tree-shape provenance: printed, and recorded in the run manifest so a
    // later `drbw doctor`/fleet pass can spot a degenerate train.
    const ml::DecisionTree& tree = model.tree();
    std::vector<std::pair<std::string, std::uint64_t>> splits;
    std::ostringstream shape;
    shape << "tree shape: " << tree.nodes().size() << " nodes, "
          << tree.leaf_count() << " leaves, depth " << tree.depth()
          << "; splits:";
    for (const auto& [feature, count] : tree.split_counts()) {
      // Short machine-readable keys ("remote_dram_count"), not the prose
      // Table I names — these land in the manifest as JSON keys.
      const std::string& name =
          features::selected_feature_keys()[static_cast<std::size_t>(feature)];
      splits.emplace_back(name, static_cast<std::uint64_t>(count));
      shape << ' ' << name << " x" << count;
    }
    session.set_model_shape(tree.nodes().size(), tree.leaf_count(),
                            tree.depth(), std::move(splits));
    std::cout << "trained on 192 mini-program runs; model written to "
              << parser.option("out") << '\n'
              << shape.str() << "\n\n"
              << model.describe();
    return session.finish(0);
  } catch (const Error& e) {
    return session.fail(e);
  } catch (const std::exception& e) {
    return session.fail(Error(e.what()));
  }
}

int cmd_record(int argc, char** argv) {
  ArgParser parser("drbw record", "Profile a proxy benchmark into a trace");
  parser.add_option("benchmark", "suite benchmark name", "streamcluster");
  parser.add_option("input", "input index", "1");
  parser.add_option("config", "Tt-Nn configuration", "T32-N4");
  parser.add_option("placement", "placement mode", "original");
  parser.add_option("out", "trace output path", "drbw_trace.csv");
  parser.add_option("seed", "run seed", "7");
  parser.add_option("format",
                    "trace body encoding: csv (v2, greppable) | binary "
                    "(v3, 10-100x faster to load)",
                    "csv");
  parser.add_option("shards",
                    "split the trace into N artifacts behind a shard-set "
                    "index at --out (1 = single file)",
                    "1");
  parser.add_option("jobs",
                    "parallel shard writers (0 = one per hardware thread); "
                    "the written set is identical at any value",
                    "1");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("record", parser);
  session.begin();
  try {
    session.stage("build");
    const auto machine = topology::Machine::xeon_e5_4650();
    const auto bench =
        workloads::make_suite_benchmark(parser.option("benchmark"));
    mem::AddressSpace space(machine);
    sim::EngineConfig engine;
    engine.seed = static_cast<std::uint64_t>(parser.option_int("seed"));
    const auto built = bench->build(
        space, machine, parse_config(parser.option("config")),
        parse_placement(parser.option("placement")),
        static_cast<std::size_t>(parser.option_int("input")));
    session.stage("execute");
    const auto run = workloads::execute(machine, space, built, engine);

    session.stage("persist");
    pebs::SaveOptions save;
    save.format = pebs::trace_format_from_name(parser.option("format"));
    const long long shards = parser.option_int("shards");
    if (shards < 1 ||
        shards > static_cast<long long>(pebs::kMaxTraceShards)) {
      throw UsageError("--shards must be between 1 and " +
                       std::to_string(pebs::kMaxTraceShards) + ", got '" +
                       parser.option("shards") + "'");
    }
    save.shards = static_cast<std::size_t>(shards);
    save.jobs = static_cast<int>(parser.option_int("jobs"));
    const std::vector<std::string> written = pebs::save_trace(
        parser.option("out"), {run.alloc_events, run.samples}, save);
    session.note_output("trace-out", written.front());
    for (std::size_t i = 1; i < written.size(); ++i) {
      session.note_output("trace-shard-out", written[i]);
    }
    std::cout << "recorded " << run.samples.size() << " samples over "
              << format_count(run.total_accesses) << " accesses ("
              << format_fixed(run.seconds(machine) * 1e3, 2)
              << " ms simulated) -> " << parser.option("out") << " ("
              << parser.option("format");
    if (written.size() > 1) {
      std::cout << ", " << written.size() - 1 << " shards";
    }
    std::cout << ")\n";
    return session.finish(0);
  } catch (const Error& e) {
    return session.fail(e);
  } catch (const std::exception& e) {
    return session.fail(Error(e.what()));
  }
}

int cmd_analyze(int argc, char** argv) {
  ArgParser parser("drbw analyze", "Analyze a recorded trace offline");
  parser.add_option("trace", "trace file from `drbw record`", "drbw_trace.csv");
  parser.add_option("model", "trained model (empty = train now)", "");
  parser.add_option("windows", "split the run into N time windows", "1");
  parser.add_option("report", "also write a Markdown report here", "");
  parser.add_option("load-mode",
                    "strict (reject the first malformed record) | lenient "
                    "(quarantine malformed records, escalate past "
                    "--max-bad-fraction)",
                    "strict");
  parser.add_option("max-bad-fraction",
                    "lenient only: tolerated quarantined/seen record "
                    "fraction before the load fails as corrupt",
                    "0.25");
  parser.add_option("jobs",
                    "parallel shard readers for sharded traces (0 = one per "
                    "hardware thread); the merged trace is identical at any "
                    "value",
                    "1");
  parser.add_option("expect-trace-version",
                    "reject trace artifacts newer than vN with the "
                    "version-skew exit code (0 = newest supported)",
                    "0");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("analyze", parser);
  session.begin();
  try {
    session.stage("load");
    util::LoadPolicy policy;
    try {
      policy = util::load_policy_from_name(
          parser.option("load-mode"), parser.option_double("max-bad-fraction"));
    } catch (const Error& e) {
      throw UsageError(std::string("--load-mode: ") + e.what());
    }
    pebs::LoadOptions load;
    load.policy = policy;
    load.jobs = static_cast<int>(parser.option_int("jobs"));
    const long long expect = parser.option_int("expect-trace-version");
    if (expect < 0 || expect > pebs::kTraceVersion) {
      throw UsageError("--expect-trace-version must be between 0 and " +
                       std::to_string(pebs::kTraceVersion) + ", got '" +
                       parser.option("expect-trace-version") + "'");
    }
    if (expect > 0) load.max_version = static_cast<int>(expect);
    // Fail fast on missing inputs (exit 66 with a sibling hint) before any
    // model training or trace parsing happens.
    util::require_input_file(parser.option("trace"), "trace file");
    if (!parser.option("model").empty()) {
      util::require_input_file(parser.option("model"), "model file");
    }
    // A sharded trace is many artifacts; the manifest lists the index first
    // and then every shard, each content-identified, so provenance covers
    // the whole set (and the listing is index-ordered, hence golden).
    const std::vector<std::string> trace_files =
        pebs::trace_artifact_paths(parser.option("trace"));
    session.note_input("trace-in", trace_files.front());
    for (std::size_t i = 1; i < trace_files.size(); ++i) {
      session.note_input("trace-shard-in", trace_files[i]);
    }

    const auto machine = topology::Machine::xeon_e5_4650();
    // load_trace fills the stats incrementally, so record them in the
    // manifest even when the load escalates — the quarantine tally at the
    // moment of failure is exactly what `drbw doctor` needs.
    util::LoadStats load_stats;
    pebs::Trace trace;
    try {
      trace = pebs::load_trace(parser.option("trace"), load, &load_stats);
    } catch (...) {
      session.set_load_stats(load_stats);
      throw;
    }
    session.set_load_stats(load_stats);
    std::cout << "loaded " << trace.samples.size() << " samples, "
              << trace.events.size() << " allocation events";
    if (load_stats.records_quarantined > 0 || !load_stats.checksum_ok) {
      std::cout << " (" << load_stats.records_quarantined << " of "
                << load_stats.records_seen << " records quarantined"
                << (load_stats.checksum_ok ? "" : ", checksum FAILED") << ")";
    }
    std::cout << '\n';

    session.stage("classify");
    const ml::Classifier model =
        parser.option("model").empty()
            ? workloads::train_default_classifier(machine)
            : ml::Classifier::load(parser.option("model"), policy);
    if (!parser.option("model").empty()) {
      session.note_input("model-in", parser.option("model"));
    }
    const DrBw tool(machine, model);

    core::MasterNodeLocator locator;
    core::Profiler profiler(machine, locator);

    const auto windows = parser.option_int("windows");
    if (windows <= 1) {
      const Report report =
          tool.analyze_profile(profiler.profile(trace.events, trace.samples));
      std::cout << report.to_string(machine);
      if (!parser.option("report").empty()) {
        session.stage("report");
        report::ReportMeta meta;
        meta.workload = parser.option("trace");
        report::write_file(
            parser.option("report"),
            report::to_markdown(report, machine, meta) +
                report::robustness_markdown(load_stats, parser.option("trace"),
                                            parser.option("load-mode")) +
                report::telemetry_markdown(obs::Registry::global()));
        session.note_output("report-out", parser.option("report"));
        std::cout << "report written to " << parser.option("report") << '\n';
      }
      return session.finish(report.rmc ? 2 : 0);  // exit signals the verdict
    }

    // Windowed: derive the span from the sample timestamps.
    session.stage("windows");
    std::uint64_t last_cycle = 0;
    for (const auto& s : trace.samples) last_cycle = std::max(last_cycle, s.cycle);
    const std::uint64_t window =
        std::max<std::uint64_t>(1, last_cycle / static_cast<std::uint64_t>(windows) + 1);
    sim::RunResult pseudo;
    pseudo.total_cycles = last_cycle + 1;
    pseudo.samples = trace.samples;
    pseudo.alloc_events = trace.events;
    bool any = false;
    for (const auto& v : tool.analyze_windows(pseudo, locator, window)) {
      std::cout << "[" << v.start_cycle << ", " << v.end_cycle << ") "
                << v.samples << " samples: "
                << (v.rmc ? "RMC" : "good");
      for (const auto& ch : v.contended) std::cout << ' ' << machine.channel_name(ch);
      std::cout << '\n';
      any |= v.rmc;
    }
    return session.finish(any ? 2 : 0);
  } catch (const Error& e) {
    return session.fail(e);
  } catch (const std::exception& e) {
    return session.fail(Error(e.what()));
  }
}

/// Version of the `#drbw-explain` JSON artifact.
constexpr int kExplainVersion = 1;

/// Lower-median (nearest-rank) over an unsorted copy.
double lower_median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

int cmd_explain(int argc, char** argv) {
  ArgParser parser("drbw explain",
                   "Explain per-window verdicts: decision paths, confidence, "
                   "feature attribution");
  parser.add_option("trace", "trace file from `drbw record`", "drbw_trace.csv");
  parser.add_option("model", "trained model (empty = train now)", "");
  parser.add_option("windows", "split the trace into N time windows", "8");
  parser.add_option("out", "checksummed #drbw-explain JSON artifact path",
                    "explain.json");
  parser.add_option("report", "also write a per-window Markdown report here",
                    "");
  parser.add_option("load-mode",
                    "strict (reject the first malformed record) | lenient "
                    "(quarantine malformed records, escalate past "
                    "--max-bad-fraction)",
                    "strict");
  parser.add_option("max-bad-fraction",
                    "lenient only: tolerated quarantined/seen record "
                    "fraction before the load fails as corrupt",
                    "0.25");
  parser.add_option("jobs",
                    "parallel window explainers (0 = one per hardware "
                    "thread); every artifact is byte-identical at any value",
                    "1");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("explain", parser);
  session.begin();
  try {
    session.stage("load");
    util::LoadPolicy policy;
    try {
      policy = util::load_policy_from_name(
          parser.option("load-mode"), parser.option_double("max-bad-fraction"));
    } catch (const Error& e) {
      throw UsageError(std::string("--load-mode: ") + e.what());
    }
    const long long windows_opt = parser.option_int("windows");
    if (windows_opt < 1) {
      throw UsageError("--windows must be >= 1, got '" +
                       parser.option("windows") + "'");
    }
    const std::size_t windows = static_cast<std::size_t>(windows_opt);
    pebs::LoadOptions load;
    load.policy = policy;
    load.jobs = static_cast<int>(parser.option_int("jobs"));
    util::require_input_file(parser.option("trace"), "trace file");
    if (!parser.option("model").empty()) {
      util::require_input_file(parser.option("model"), "model file");
    }
    const std::vector<std::string> trace_files =
        pebs::trace_artifact_paths(parser.option("trace"));
    session.note_input("trace-in", trace_files.front());
    for (std::size_t i = 1; i < trace_files.size(); ++i) {
      session.note_input("trace-shard-in", trace_files[i]);
    }
    util::LoadStats load_stats;
    pebs::Trace trace;
    try {
      trace = pebs::load_trace(parser.option("trace"), load, &load_stats);
    } catch (...) {
      session.set_load_stats(load_stats);
      throw;
    }
    session.set_load_stats(load_stats);

    const auto machine = topology::Machine::xeon_e5_4650();
    const ml::Classifier model =
        parser.option("model").empty()
            ? workloads::train_default_classifier(machine)
            : ml::Classifier::load(parser.option("model"), policy);
    if (!parser.option("model").empty()) {
      session.note_input("model-in", parser.option("model"));
    }

    session.stage("explain");
    // Bucket the samples into cycle windows (analyze's windowing), then
    // explain each window's channels in an indexed fan-out; everything below
    // aggregates in window order, so every artifact is golden at any --jobs.
    std::uint64_t last_cycle = 0;
    for (const auto& s : trace.samples) {
      last_cycle = std::max(last_cycle, s.cycle);
    }
    const std::uint64_t window_cycles = std::max<std::uint64_t>(
        1, last_cycle / static_cast<std::uint64_t>(windows) + 1);
    std::vector<std::vector<pebs::MemorySample>> buckets(windows);
    for (const auto& s : trace.samples) {
      buckets[std::min<std::size_t>(windows - 1, s.cycle / window_cycles)]
          .push_back(s);
    }
    core::MasterNodeLocator locator;
    struct Verdict {
      std::string channel;
      ml::Explanation exp;
    };
    struct WindowSlot {
      std::vector<Verdict> verdicts;
    };
    std::vector<WindowSlot> slots(windows);
    {
      obs::Span explain_span("explain");
      util::TaskPool pool(static_cast<int>(parser.option_int("jobs")));
      pool.parallel_for(windows, [&](std::size_t w) {
        if (buckets[w].empty()) return;
        core::Profiler profiler(machine, locator);
        const core::ProfileResult profile =
            profiler.profile(trace.events, buckets[w]);
        for (const features::ChannelFeatures& ch :
             features::extract_channels(profile, machine)) {
          // The serve loop's sparse-window guards: a nearly-empty channel
          // scope yields all-zero features whose "verdict" explains nothing.
          if (ch.features.scope_samples < 8) continue;
          if (ch.features.values[5] < 2.0) continue;
          slots[w].verdicts.push_back(Verdict{
              machine.channel_name(ch.channel),
              model.predict_explained(ch.features.as_row())});
        }
      });
    }

    // Serial aggregation: per-window verdict rows, decision-path frequency,
    // and per-feature attribution sums.
    const std::array<std::string, features::kNumSelected>& keys =
        features::selected_feature_keys();
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> paths;
    std::vector<double> attr_sum(model.feature_names().size(), 0.0);
    std::vector<double> attr_abs(model.feature_names().size(), 0.0);
    std::vector<double> confidences;
    std::uint64_t rows = 0, rmc_rows = 0;
    std::uint64_t windows_explained = 0, windows_rmc = 0;
    auto& conf_hist = obs::Registry::global().histogram(
        "drbw_model_confidence_bucket",
        "Per-window classification confidence (leaf purity, percent)",
        {50, 60, 70, 80, 90, 95, 100});
    for (const WindowSlot& slot : slots) {
      if (slot.verdicts.empty()) continue;
      ++windows_explained;
      bool window_rmc = false;
      for (const Verdict& v : slot.verdicts) {
        ++rows;
        const bool is_rmc = v.exp.label == ml::Label::kRmc;
        if (is_rmc) {
          ++rmc_rows;
          window_rmc = true;
        }
        confidences.push_back(v.exp.confidence);
        conf_hist.observe(
            static_cast<std::uint64_t>(v.exp.confidence * 100.0 + 0.5));
        auto& tally = paths[v.exp.path_signature()];
        ++tally.first;
        if (is_rmc) ++tally.second;
        for (std::size_t f = 0; f < v.exp.attributions.size(); ++f) {
          attr_sum[f] += v.exp.attributions[f];
          attr_abs[f] += std::abs(v.exp.attributions[f]);
        }
      }
      if (window_rmc) ++windows_rmc;
    }
    const double confidence_p50 = lower_median(confidences);
    const double confidence_min =
        confidences.empty()
            ? 0.0
            : *std::min_element(confidences.begin(), confidences.end());

    // The `#drbw-explain v1` artifact: golden-vs-context split like the
    // manifest, but nothing here depends on --jobs, so the whole document
    // (and its header checksum) is byte-identical at any value.
    Json golden = JsonObject{};
    Json summary = JsonObject{};
    summary.set("windows", windows);
    summary.set("windows_explained", windows_explained);
    summary.set("windows_rmc", windows_rmc);
    summary.set("rows", rows);
    summary.set("rmc_rows", rmc_rows);
    summary.set("confidence_p50", confidence_p50);
    summary.set("confidence_min", confidence_min);
    golden.set("summary", std::move(summary));
    Json window_list = JsonArray{};
    for (std::size_t w = 0; w < windows; ++w) {
      Json entry = JsonObject{};
      entry.set("window", w);
      entry.set("start", w * window_cycles);
      entry.set("end", std::min<std::uint64_t>(last_cycle + 1,
                                               (w + 1) * window_cycles));
      entry.set("samples", buckets[w].size());
      Json verdicts = JsonArray{};
      for (const Verdict& v : slots[w].verdicts) {
        Json row = JsonObject{};
        row.set("channel", v.channel);
        row.set("label", v.exp.label == ml::Label::kRmc ? "rmc" : "good");
        row.set("confidence", v.exp.confidence);
        row.set("path", v.exp.path_signature());
        row.set("leaf", v.exp.leaf);
        verdicts.push_back(std::move(row));
      }
      entry.set("verdicts", std::move(verdicts));
      window_list.push_back(std::move(entry));
    }
    golden.set("windows", std::move(window_list));
    // Path frequency: most common first, signature as the tie-break.
    std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
        ranked(paths.begin(), paths.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       if (a.second.first != b.second.first) {
                         return a.second.first > b.second.first;
                       }
                       return a.first < b.first;
                     });
    Json path_list = JsonArray{};
    for (const auto& [signature, tally] : ranked) {
      Json entry = JsonObject{};
      entry.set("signature", signature);
      entry.set("count", tally.first);
      entry.set("rmc", tally.second);
      path_list.push_back(std::move(entry));
    }
    golden.set("paths", std::move(path_list));
    Json attribution_list = JsonArray{};
    for (std::size_t f = 0; f < attr_sum.size(); ++f) {
      Json entry = JsonObject{};
      entry.set("feature", f < keys.size() ? keys[f]
                                           : model.feature_names()[f]);
      entry.set("mean", rows > 0 ? attr_sum[f] / static_cast<double>(rows)
                                 : 0.0);
      entry.set("mean_abs",
                rows > 0 ? attr_abs[f] / static_cast<double>(rows) : 0.0);
      attribution_list.push_back(std::move(entry));
    }
    golden.set("attributions", std::move(attribution_list));
    Json context = JsonObject{};
    context.set("trace", parser.option("trace"));
    context.set("model", parser.option("model").empty()
                             ? "(trained in-process)"
                             : parser.option("model"));
    Json doc = JsonObject{};
    doc.set("drbw_explain", kExplainVersion);
    doc.set("golden", std::move(golden));
    doc.set("context", std::move(context));

    session.stage("persist");
    util::write_versioned_artifact(parser.option("out"), "explain",
                                   kExplainVersion, doc.dump(2) + "\n");
    session.note_output("explain-out", parser.option("out"));

    if (!parser.option("report").empty()) {
      std::ostringstream md;
      md << "# DR-BW explain report\n\n`" << parser.option("trace") << "` vs "
         << (parser.option("model").empty()
                 ? std::string("an in-process model")
                 : "`" + parser.option("model") + "`")
         << ": " << windows_explained << " of " << windows
         << " window(s) explained, " << rows << " channel verdict(s) ("
         << rmc_rows << " rmc), confidence p50 "
         << format_fixed(confidence_p50, 3) << ", min "
         << format_fixed(confidence_min, 3) << "\n";
      md << "\n## Decision paths\n\n| path | count | rmc |\n|---|---:|---:|\n";
      for (const auto& [signature, tally] : ranked) {
        md << "| `" << signature << "` | " << tally.first << " | "
           << tally.second << " |\n";
      }
      md << "\n## Feature attribution (mean delta-P(rmc) per verdict)\n\n"
            "| feature | mean | mean abs |\n|---|---:|---:|\n";
      for (std::size_t f = 0; f < attr_sum.size(); ++f) {
        const double denom = rows > 0 ? static_cast<double>(rows) : 1.0;
        md << "| " << (f < keys.size() ? keys[f] : model.feature_names()[f])
           << " | " << format_fixed(attr_sum[f] / denom, 4) << " | "
           << format_fixed(attr_abs[f] / denom, 4) << " |\n";
      }
      md << "\n## Windows\n";
      for (std::size_t w = 0; w < windows; ++w) {
        md << "\n### window " << w << " [" << w * window_cycles << ", "
           << std::min<std::uint64_t>(last_cycle + 1, (w + 1) * window_cycles)
           << ") — " << buckets[w].size() << " sample(s)\n\n";
        if (slots[w].verdicts.empty()) {
          md << "no explainable channel (sparse window)\n";
          continue;
        }
        md << "| channel | verdict | confidence | path |\n"
              "|---|---|---:|---|\n";
        for (const Verdict& v : slots[w].verdicts) {
          md << "| " << v.channel << " | "
             << (v.exp.label == ml::Label::kRmc ? "RMC" : "good") << " | "
             << format_fixed(v.exp.confidence, 3) << " | `"
             << v.exp.path_signature() << "` |\n";
        }
      }
      report::write_file(parser.option("report"), md.str());
      session.note_output("report-out", parser.option("report"));
      std::cout << "report written to " << parser.option("report") << '\n';
    }

    std::cout << "explained " << rows << " channel verdict(s) across "
              << windows_explained << " of " << windows << " window(s): "
              << rmc_rows << " rmc, " << paths.size()
              << " distinct decision path(s), confidence p50 "
              << format_fixed(confidence_p50, 3) << '\n';
    std::cout << "explain artifact written to " << parser.option("out")
              << '\n';
    return session.finish(0);
  } catch (const Error& e) {
    return session.fail(e);
  } catch (const std::exception& e) {
    return session.fail(Error(e.what()));
  }
}

int cmd_serve(int argc, char** argv) {
  ArgParser parser("drbw serve",
                   "Replay a recorded trace through the online serving loop");
  parser.add_option("replay", "trace file from `drbw record`",
                    "drbw_trace.csv");
  parser.add_option("model",
                    "trained model (empty = train now; a missing or corrupt "
                    "model degrades the server to pass-through telemetry "
                    "instead of failing)",
                    "");
  parser.add_option("clients", "simulated client streams", "4");
  parser.add_option("queue-depth", "bounded ingest queue depth per client",
                    "64");
  parser.add_option("overload",
                    "block | shed-oldest | reject: what a full queue does "
                    "with the next sample",
                    "block");
  parser.add_option("window-cycles",
                    "replay window width in simulated cycles (0 = derive "
                    "~8 windows from the trace span)",
                    "0");
  parser.add_option("drain-rate",
                    "samples drained per client per tick (0 = queue depth)",
                    "0");
  parser.add_option("window-capacity",
                    "sliding classification window capacity per client",
                    "512");
  parser.add_option("max-cycles",
                    "stop admitting at this simulated cycle (0 = replay all)",
                    "0");
  parser.add_option("max-retries",
                    "retries with deterministic backoff before an operation "
                    "counts as a fault",
                    "2");
  parser.add_option("backoff-cycles",
                    "simulated-cycle penalty of the first retry (doubles per "
                    "attempt)",
                    "100");
  parser.add_option("breaker-threshold",
                    "consecutive faults that quarantine a client", "3");
  parser.add_option("snapshot-out",
                    "checksummed serve snapshot path (empty = "
                    "<run-dir>/serve_snapshot.json)",
                    "");
  parser.add_option("snapshot-every",
                    "rewrite the snapshot every N ticks (0 = final only)",
                    "0");
  parser.add_option("drift-threshold",
                    "mark the run drift-suspected when any client's PSI "
                    "divergence from the model's training baseline reaches "
                    "F (0 = never flag; needs a baseline-carrying v3 model; "
                    "typed, never fatal)",
                    "0");
  parser.add_option("load-mode",
                    "strict (reject the first malformed record) | lenient "
                    "(quarantine malformed records, escalate past "
                    "--max-bad-fraction)",
                    "strict");
  parser.add_option("max-bad-fraction",
                    "lenient only: tolerated quarantined/seen record "
                    "fraction before the load fails as corrupt",
                    "0.25");
  parser.add_option("jobs",
                    "parallel window classifiers (0 = one per hardware "
                    "thread); snapshots, metrics, and the manifest are "
                    "byte-identical at any value",
                    "1");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("serve", parser);
  session.begin();
  try {
    session.stage("load");
    util::LoadPolicy policy;
    try {
      policy = util::load_policy_from_name(
          parser.option("load-mode"), parser.option_double("max-bad-fraction"));
    } catch (const Error& e) {
      throw UsageError(std::string("--load-mode: ") + e.what());
    }
    serve::ServeOptions opts;
    try {
      opts.overload = serve::overload_policy_from_name(parser.option("overload"));
    } catch (const Error& e) {
      throw UsageError(std::string("--overload: ") + e.what());
    }
    const long long clients = parser.option_int("clients");
    if (clients < 1) {
      throw UsageError("--clients must be >= 1, got '" +
                       parser.option("clients") + "'");
    }
    opts.clients = static_cast<std::uint32_t>(clients);
    const long long depth = parser.option_int("queue-depth");
    if (depth < 1) {
      throw UsageError("--queue-depth must be >= 1, got '" +
                       parser.option("queue-depth") + "'");
    }
    opts.queue_depth = static_cast<std::size_t>(depth);
    opts.window_cycles =
        static_cast<std::uint64_t>(parser.option_int("window-cycles"));
    opts.drain_per_tick =
        static_cast<std::size_t>(parser.option_int("drain-rate"));
    opts.window_capacity = static_cast<std::size_t>(
        std::max<long long>(1, parser.option_int("window-capacity")));
    opts.max_cycles =
        static_cast<std::uint64_t>(parser.option_int("max-cycles"));
    opts.max_retries =
        static_cast<int>(std::max<long long>(0, parser.option_int("max-retries")));
    opts.backoff_cycles =
        static_cast<std::uint64_t>(parser.option_int("backoff-cycles"));
    opts.breaker_threshold = static_cast<int>(
        std::max<long long>(1, parser.option_int("breaker-threshold")));
    opts.snapshot_every =
        static_cast<std::uint64_t>(parser.option_int("snapshot-every"));
    opts.drift_threshold = parser.option_double("drift-threshold");
    if (opts.drift_threshold < 0.0) {
      throw UsageError("--drift-threshold must be >= 0, got '" +
                       parser.option("drift-threshold") + "'");
    }
    opts.jobs = static_cast<int>(parser.option_int("jobs"));
    std::string run_dir = parser.option("run-dir");
    if (run_dir.empty()) run_dir = ".";
    opts.snapshot_path = parser.option("snapshot-out").empty()
                             ? run_dir + "/serve_snapshot.json"
                             : parser.option("snapshot-out");

    pebs::LoadOptions load;
    load.policy = policy;
    load.jobs = opts.jobs;
    util::require_input_file(parser.option("replay"), "trace file");
    const std::vector<std::string> trace_files =
        pebs::trace_artifact_paths(parser.option("replay"));
    session.note_input("trace-in", trace_files.front());
    for (std::size_t i = 1; i < trace_files.size(); ++i) {
      session.note_input("trace-shard-in", trace_files[i]);
    }
    util::LoadStats load_stats;
    pebs::Trace trace;
    try {
      trace = pebs::load_trace(parser.option("replay"), load, &load_stats);
    } catch (...) {
      session.set_load_stats(load_stats);
      throw;
    }
    session.set_load_stats(load_stats);
    std::cout << "loaded " << trace.samples.size() << " samples, "
              << trace.events.size() << " allocation events\n";

    // Graceful degradation: a model that cannot be loaded (missing file,
    // unparseable JSON, checksum damage, newer format) must not take the
    // server down — classification is skipped, telemetry still flows.
    const auto machine = topology::Machine::xeon_e5_4650();
    std::optional<ml::Classifier> model;
    if (parser.option("model").empty()) {
      model = workloads::train_default_classifier(machine);
    } else {
      session.note_input("model-in", parser.option("model"));
      try {
        model = ml::Classifier::load(parser.option("model"), policy);
      } catch (const Error& e) {
        std::cerr << "drbw serve: degraded to pass-through telemetry: "
                  << e.what() << '\n';
      }
    }

    session.stage("serve");
    serve::Server server(machine, model.has_value() ? &*model : nullptr, opts);
    const serve::ServeResult result = server.run(trace);
    session.set_degraded(result.degraded);

    std::cout << "served " << result.ticks << " ticks x "
              << result.window_cycles << " cycles across " << result.clients.size()
              << " clients (" << serve::overload_policy_name(opts.overload)
              << "): " << result.samples_admitted << " admitted, "
              << result.samples_shed << " shed, " << result.samples_rejected
              << " rejected, " << result.samples_dropped << " dropped\n";
    std::cout << "classified " << result.windows_classified << " windows ("
              << result.windows_rmc << " contended), " << result.faults
              << " faults, " << result.retries << " retries, "
              << result.quarantined_clients << " clients quarantined\n";
    if (result.degraded) {
      std::cout << "DEGRADED: no usable model; classification skipped\n";
    }
    // Model observability: the drift verdict goes to the manifest's golden
    // block ("ok" | "suspected" | "unavailable") so doctor and fleet can
    // read it without the snapshot.  Suspected drift never changes the exit
    // code — serve is a telemetry loop, the finding is typed, not fatal.
    if (result.drift_available) {
      session.set_drift(result.drift_suspected_clients > 0 ? "suspected"
                                                           : "ok");
      std::cout << "model health: confidence p50 "
                << format_fixed(result.confidence_p50, 3) << ", max drift "
                << format_fixed(result.drift_score, 3);
      if (result.drift_suspected_clients > 0) {
        std::cout << " — DRIFT SUSPECTED (" << result.drift_suspected_clients
                  << " client(s) at or past --drift-threshold "
                  << format_fixed(result.drift_threshold, 3) << ")";
      }
      std::cout << '\n';
    } else {
      session.set_drift("unavailable");
      if (!result.degraded) {
        std::cout << "drift detection unavailable: the model carries no "
                     "training baseline (re-save it with this build's "
                     "`drbw train` to enable)\n";
      }
    }
    if (!result.drained) {
      std::cout << "replay cut short at --max-cycles "
                << opts.max_cycles << "; remaining samples dropped\n";
    }
    std::cout << "serve snapshot (" << result.snapshots_written
              << " writes) at " << opts.snapshot_path << '\n';
    session.note_output("serve-snapshot-out", opts.snapshot_path);

    session.stage("persist");
    // A degraded run still exits 0: serve is a telemetry loop, not a
    // verdict tool, and "kept serving without a model" is the contract.
    return session.finish(0);
  } catch (const Error& e) {
    return session.fail(e);
  } catch (const std::exception& e) {
    return session.fail(Error(e.what()));
  }
}

const Json* find_member(const JsonObject& object, const std::string& key) {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

/// `drbw stats --serve`: render the windowed contention timeline a v2 serve
/// snapshot carries.  Accepts the checksummed artifact (validated) or a raw
/// snapshot body.
int stats_serve(const ArgParser& parser) {
  const std::string path = parser.option("trace");
  util::require_input_file(path, "serve snapshot");
  std::string body = util::read_file_or_throw(path, "serve snapshot");
  if (body.rfind("#drbw-serve-snapshot", 0) == 0) {
    body = util::read_versioned_artifact(path, "serve-snapshot",
                                         serve::kServeSnapshotVersion,
                                         util::LoadPolicy{})
               .body;
  }
  const Json root = Json::parse(body);
  const JsonObject& fields = root.as_object();
  const Json* version = find_member(fields, "drbw_serve_snapshot");
  if (version == nullptr) {
    throw Error(path + ": not a serve snapshot (no drbw_serve_snapshot "
                       "field); `drbw serve` writes one at --snapshot-out",
                ErrorCode::kParse);
  }
  const Json* timeline = find_member(fields, "timeline");
  if (timeline == nullptr || !timeline->is_array() ||
      timeline->as_array().empty()) {
    std::cout << "no contention timeline in " << path << " (v"
              << static_cast<long long>(version->as_number())
              << " snapshot; either it predates v2 or no window was "
                 "classified)\n";
    return 0;
  }
  std::vector<std::pair<double, double>> rmc_series;
  std::vector<std::pair<double, double>> conf_series;
  std::vector<std::pair<double, double>> drift_series;
  std::uint64_t windows = 0, rmc = 0;
  double max_drift = 0.0;
  for (const Json& row : timeline->as_array()) {
    const JsonObject& r = row.as_object();
    const auto num = [&](const char* key) {
      const Json* node = find_member(r, key);
      return node != nullptr ? node->as_number() : 0.0;
    };
    const double tick = num("tick");
    const double row_windows = num("windows");
    const double row_rmc = num("rmc");
    windows += static_cast<std::uint64_t>(row_windows);
    rmc += static_cast<std::uint64_t>(row_rmc);
    rmc_series.emplace_back(tick,
                            row_windows > 0.0 ? row_rmc / row_windows : 0.0);
    conf_series.emplace_back(tick, num("confidence_p50"));
    const double drift = num("drift");
    max_drift = std::max(max_drift, drift);
    // PSI divergence is unbounded; the chart wants [0, 1], so the row is
    // capped for display and the true max printed below.
    drift_series.emplace_back(tick, std::min(1.0, drift));
  }
  TimelineChart chart(static_cast<int>(parser.option_int("width")));
  chart.add_series("rmc fraction", rmc_series);
  chart.add_series("confidence p50", conf_series);
  chart.add_series("drift (cap 1)", drift_series);
  std::cout << "windowed contention timeline ("
            << timeline->as_array().size() << " row(s), " << windows
            << " classified window(s), " << rmc << " contended)\n\n"
            << chart.render();
  if (const Json* drift = find_member(fields, "drift")) {
    const JsonObject& d = drift->as_object();
    const auto num = [&](const char* key) {
      const Json* node = find_member(d, key);
      return node != nullptr ? node->as_number() : 0.0;
    };
    std::cout << "\ndrift: max score " << format_fixed(num("score"), 3)
              << " (threshold " << format_fixed(num("threshold"), 3) << "), "
              << static_cast<std::uint64_t>(num("suspected_clients"))
              << " client(s) suspected, confidence p50 "
              << format_fixed(num("confidence_p50"), 3) << '\n';
  } else {
    std::cout << "\ndrift: unavailable (degraded run, or the model carries "
                 "no training baseline)\n";
  }
  return 0;
}

int cmd_stats(int argc, char** argv) {
  ArgParser parser("drbw stats",
                   "Render the per-epoch channel-utilization timeline from a "
                   "trace file written with --trace-out (or, with --serve, "
                   "the contention timeline of a serve snapshot)");
  parser.add_option("trace",
                    "trace_event JSON from --trace-out (with --serve: a "
                    "serve_snapshot.json)",
                    "obs_trace.json");
  parser.add_option("width", "timeline width in columns", "64");
  parser.add_option("top", "show only the N busiest channels (0 = all)", "0");
  parser.add_flag("serve",
                  "treat --trace as a serve snapshot and render its windowed "
                  "contention timeline");
  if (!parser.parse(argc, argv)) return 0;
  if (parser.flag("serve")) return stats_serve(parser);

  const std::string content =
      util::read_file_or_throw(parser.option("trace"), "trace file");
  if (content.rfind("#drbw-serve-snapshot", 0) == 0) {
    throw UsageError("drbw stats: '" + parser.option("trace") +
                     "' is a serve snapshot, not a trace_event file — did "
                     "you mean `drbw stats --serve --trace " +
                     parser.option("trace") + "`?");
  }
  const Json root = Json::parse(content);

  // Per-channel (epoch-start-cycle, utilization) series from the engine's
  // per-epoch "epoch" counter events.  Any other event kinds are skipped, so
  // stats works on traces from any subcommand.
  std::map<std::string, std::vector<std::pair<double, double>>> series;
  std::size_t epochs = 0;
  const Json* events = find_member(root.as_object(), "traceEvents");
  if (events == nullptr) {
    if (find_member(root.as_object(), "drbw_serve_snapshot") != nullptr) {
      throw UsageError("drbw stats: '" + parser.option("trace") +
                       "' is a serve snapshot, not a trace_event file — did "
                       "you mean `drbw stats --serve --trace " +
                       parser.option("trace") + "`?");
    }
    throw Error("not a trace_event file: no traceEvents");
  }
  for (const Json& event : events->as_array()) {
    const JsonObject& fields = event.as_object();
    const Json* name = find_member(fields, "name");
    const Json* phase = find_member(fields, "ph");
    const Json* args = find_member(fields, "args");
    if (name == nullptr || phase == nullptr || args == nullptr) continue;
    if (name->as_string() != "epoch" || phase->as_string() != "C") continue;
    const double ts = find_member(fields, "ts")->as_number();
    ++epochs;
    for (const auto& [channel, value] : args->as_object()) {
      if (channel == "max_latency_multiplier") continue;
      series[channel].emplace_back(ts, value.as_number());
    }
  }
  if (series.empty()) {
    std::cout << "no per-epoch channel events in " << parser.option("trace")
              << " (record the trace with --trace-out on train/record/"
                 "analyze)\n";
    return 0;
  }

  // Busiest channels first so the interesting rows are at the top.
  std::vector<std::pair<std::string, double>> order;
  for (const auto& [channel, points] : series) {
    double peak = 0.0;
    for (const auto& [ts, value] : points) peak = std::max(peak, value);
    order.emplace_back(channel, peak);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  const auto top = static_cast<std::size_t>(parser.option_int("top"));
  if (top > 0 && order.size() > top) order.resize(top);

  TimelineChart chart(static_cast<int>(parser.option_int("width")));
  for (const auto& [channel, peak] : order) {
    chart.add_series(channel, series.at(channel));
  }
  std::cout << "channel utilization per epoch (" << epochs << " epochs, "
            << order.size() << " of " << series.size() << " channels)";
  if (const Json* other = find_member(root.as_object(), "otherData")) {
    if (const Json* clock = find_member(other->as_object(), "clock")) {
      std::cout << ", clock: " << clock->as_string();
    }
  }
  std::cout << "\n\n" << chart.render();
  return 0;
}

int cmd_convert(int argc, char** argv) {
  ArgParser parser("drbw convert",
                   "Re-encode a trace artifact (csv <-> binary, shard or "
                   "unshard)");
  parser.add_option("in", "trace to convert (any supported version)",
                    "drbw_trace.csv");
  parser.add_option("out", "converted trace output path", "drbw_trace.bin");
  parser.add_option("format", "output body encoding: csv | binary", "binary");
  parser.add_option("shards",
                    "split the output into N artifacts behind a shard-set "
                    "index at --out (1 = single file)",
                    "1");
  parser.add_option("jobs",
                    "parallel shard readers/writers (0 = one per hardware "
                    "thread)",
                    "1");
  parser.add_option("load-mode", "strict | lenient (see drbw analyze)",
                    "strict");
  parser.add_option("max-bad-fraction",
                    "lenient only: tolerated quarantined/seen record "
                    "fraction before the load fails as corrupt",
                    "0.25");
  if (!parser.parse(argc, argv)) return 0;
  pebs::LoadOptions load;
  try {
    load.policy = util::load_policy_from_name(
        parser.option("load-mode"), parser.option_double("max-bad-fraction"));
  } catch (const Error& e) {
    throw UsageError(std::string("--load-mode: ") + e.what());
  }
  load.jobs = static_cast<int>(parser.option_int("jobs"));
  pebs::SaveOptions save;
  save.format = pebs::trace_format_from_name(parser.option("format"));
  const long long shards = parser.option_int("shards");
  if (shards < 1 || shards > static_cast<long long>(pebs::kMaxTraceShards)) {
    throw UsageError("--shards must be between 1 and " +
                     std::to_string(pebs::kMaxTraceShards) + ", got '" +
                     parser.option("shards") + "'");
  }
  save.shards = static_cast<std::size_t>(shards);
  save.jobs = load.jobs;
  util::require_input_file(parser.option("in"), "trace file");
  util::LoadStats stats;
  const pebs::Trace trace =
      pebs::load_trace(parser.option("in"), load, &stats);
  const std::vector<std::string> written =
      pebs::save_trace(parser.option("out"), trace, save);
  std::cout << "converted " << trace.samples.size() << " samples, "
            << trace.events.size() << " allocation events -> "
            << parser.option("out") << " (" << parser.option("format");
  if (written.size() > 1) {
    std::cout << ", " << written.size() - 1 << " shards";
  }
  std::cout << ")";
  if (stats.records_quarantined > 0 || !stats.checksum_ok) {
    std::cout << " [" << stats.records_quarantined << " of "
              << stats.records_seen << " input records quarantined"
              << (stats.checksum_ok ? "" : ", input checksum FAILED") << "]";
  }
  std::cout << '\n';
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  ArgParser parser("drbw inspect", "Pretty-print a trained model");
  parser.add_option("model", "model path", "drbw_model.json");
  if (!parser.parse(argc, argv)) return 0;
  util::require_input_file(parser.option("model"), "model file");
  const auto model = ml::Classifier::load(parser.option("model"));
  std::cout << model.describe() << "\nfeatures used:";
  for (const int f : model.tree().used_features()) {
    std::cout << "\n  #" << (f + 1) << " "
              << model.feature_names()[static_cast<std::size_t>(f)];
  }
  std::cout << '\n';
  return 0;
}

int cmd_topology(int argc, char** argv) {
  ArgParser parser("drbw topology", "Describe a simulated machine");
  parser.add_option("machine", "xeon | opteron", "xeon");
  if (!parser.parse(argc, argv)) return 0;
  const auto machine = machine_by_name(parser.option("machine"));
  const auto& spec = machine.spec();
  std::cout << spec.name << "\n  " << machine.num_nodes() << " nodes x "
            << spec.cores_per_socket << " cores x " << spec.threads_per_core
            << " HT @ " << spec.ghz << " GHz\n  L1 " << spec.l1.size_bytes / 1024
            << " KiB, L2 " << spec.l2.size_bytes / 1024 << " KiB, L3 "
            << (spec.l3.size_bytes >> 20) << " MiB/socket, DRAM "
            << (spec.dram_bytes_per_node >> 30) << " GiB/node\n";
  TablePrinter t({{"channel", Align::kLeft},
                  {"hops", Align::kRight},
                  {"capacity (B/cyc)", Align::kRight},
                  {"idle latency (cyc)", Align::kRight}});
  for (int i = 0; i < machine.num_channels(); ++i) {
    const auto ch = machine.channel_at(i);
    t.add_row({machine.channel_name(ch), std::to_string(machine.hops(ch)),
               format_fixed(machine.channel_capacity(ch), 2),
               format_fixed(machine.idle_dram_latency(ch), 0)});
  }
  print_block(std::cout, t.render());
  return 0;
}

// doctor and perf diff take positional arguments, which ArgParser rejects by
// design; both are small enough to hand-parse.

int cmd_doctor(int argc, char** argv) {
  const char* usage =
      "drbw doctor [run-dir] — diagnose a previous run from its manifest\n"
      "\n"
      "Loads <run-dir>/run.json (and flight.log when present; default\n"
      "run-dir is '.') and prints ranked root-cause findings.  Exits 0 when\n"
      "the diagnosis succeeds — including for runs that themselves failed.\n";
  std::string run_dir = ".";
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      return 0;
    }
    if (starts_with(arg, "--")) {
      throw UsageError("drbw doctor: unknown option '" + arg + "'");
    }
    if (have_dir) {
      throw UsageError("drbw doctor expects at most one run directory");
    }
    run_dir = arg;
    have_dir = true;
  }
  std::cout << report::render_doctor(report::doctor(run_dir));
  return 0;
}

int cmd_perf_diff(int argc, char** argv) {
  const char* usage =
      "drbw perf diff <baseline/run.json> <after/run.json>... "
      "[--threshold F]\n"
      "\n"
      "Compares span statistics and metric counters between run manifests:\n"
      "the first is the baseline, and every following manifest is diffed\n"
      "against it.  Exits 3 when any comparison grew past baseline*(1+F)\n"
      "(default F = 0.25); CI uses this as a perf gate.\n";
  std::vector<std::string> manifests;
  double threshold = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      return 0;
    }
    if (arg == "--threshold" || starts_with(arg, "--threshold=")) {
      std::string raw;
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        raw = arg.substr(eq + 1);
      } else {
        if (i + 1 >= argc) {
          throw UsageError("drbw perf diff: --threshold expects a value");
        }
        raw = argv[++i];
      }
      char* end = nullptr;
      threshold = std::strtod(raw.c_str(), &end);
      if (end == nullptr || *end != '\0' || raw.empty() || threshold < 0.0) {
        throw UsageError(
            "drbw perf diff: --threshold expects a non-negative number, "
            "got '" + raw + "'");
      }
      continue;
    }
    if (starts_with(arg, "--")) {
      throw UsageError("drbw perf diff: unknown option '" + arg + "'");
    }
    manifests.push_back(arg);
  }
  if (manifests.size() < 2) {
    throw UsageError(
        "drbw perf diff expects a baseline and at least one comparison "
        "manifest");
  }
  const report::ManifestData before = report::load_manifest(manifests[0]);
  bool any_regressed = false;
  for (std::size_t i = 1; i < manifests.size(); ++i) {
    const report::ManifestData after = report::load_manifest(manifests[i]);
    const report::PerfDiff diff = report::perf_diff(before, after, threshold);
    if (manifests.size() > 2) {
      std::cout << "== " << manifests[0] << " vs " << manifests[i] << " ==\n";
    }
    std::cout << report::render_perf_diff(diff);
    any_regressed = any_regressed || diff.regressed;
  }
  return any_regressed ? kExitPerfRegression : 0;
}

/// Hand-parsed "--name value" / "--name=value" helper for the positional
/// subcommands (doctor-style).  Returns true when `arg` matched `name`,
/// leaving the value in `value` (and advancing `i` for the two-token form).
bool take_option(const std::string& cmd, const std::string& arg,
                 const char* name, int argc, char** argv, int& i,
                 std::string& value) {
  const std::string flag = std::string("--") + name;
  if (arg == flag) {
    if (i + 1 >= argc) {
      throw UsageError(cmd + ": " + flag + " expects a value");
    }
    value = argv[++i];
    return true;
  }
  if (starts_with(arg, flag + "=")) {
    value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

long long parse_int_option(const std::string& cmd, const char* name,
                           const std::string& raw, long long min_value) {
  char* end = nullptr;
  const long long value = std::strtoll(raw.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || raw.empty() || value < min_value) {
    throw UsageError(cmd + ": --" + name + " expects an integer >= " +
                     std::to_string(min_value) + ", got '" + raw + "'");
  }
  return value;
}

int cmd_fleet(int argc, char** argv) {
  const char* usage =
      "drbw fleet <root-dir> [options] — aggregate a tree of run dirs\n"
      "\n"
      "Recursively discovers every directory under root-dir holding a\n"
      "run.json, validates each manifest's checksum (corrupt manifests are\n"
      "quarantined into the report, never fatal), and aggregates outcomes,\n"
      "span-time distributions, fault fires, and quarantine tallies.\n"
      "\n"
      "  --baseline run.json   perf-diff every passing run against this\n"
      "                        manifest; exit 3 when any run regresses\n"
      "  --threshold F         regression threshold (default 0.25 = +25%)\n"
      "  --filter status=S     aggregate only ok or failed runs\n"
      "  --top N               list at most N runs in the report (0 = all)\n"
      "  --jobs N              parallel manifest loads (0 = hw threads);\n"
      "                        every output is byte-identical at any value\n"
      "  --out FILE            write the Markdown report here (default:\n"
      "                        print to stdout)\n"
      "  --json-out FILE       write the checksummed #drbw-fleet JSON here\n"
      "  --flame-out FILE      merge every run's flight.log spans into one\n"
      "                        collapsed-stack profile here\n";
  const std::string cmd = "drbw fleet";
  std::string root;
  std::string out, json_out, flame_out;
  std::string value;
  report::FleetOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      return 0;
    }
    if (take_option(cmd, arg, "baseline", argc, argv, i, value)) {
      options.baseline_path = value;
    } else if (take_option(cmd, arg, "threshold", argc, argv, i, value)) {
      char* end = nullptr;
      options.threshold = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || value.empty() ||
          options.threshold < 0.0) {
        throw UsageError(cmd + ": --threshold expects a non-negative "
                         "number, got '" + value + "'");
      }
    } else if (take_option(cmd, arg, "filter", argc, argv, i, value)) {
      if (value == "status=ok" || value == "status=failed") {
        options.filter_status = value.substr(std::string("status=").size());
      } else {
        throw UsageError(cmd + ": --filter expects status=ok or "
                         "status=failed, got '" + value + "'");
      }
    } else if (take_option(cmd, arg, "top", argc, argv, i, value)) {
      options.top =
          static_cast<std::size_t>(parse_int_option(cmd, "top", value, 0));
    } else if (take_option(cmd, arg, "jobs", argc, argv, i, value)) {
      options.jobs =
          static_cast<int>(parse_int_option(cmd, "jobs", value, 0));
    } else if (take_option(cmd, arg, "out", argc, argv, i, value)) {
      out = value;
    } else if (take_option(cmd, arg, "json-out", argc, argv, i, value)) {
      json_out = value;
    } else if (take_option(cmd, arg, "flame-out", argc, argv, i, value)) {
      flame_out = value;
    } else if (starts_with(arg, "--")) {
      throw UsageError(cmd + ": unknown option '" + arg + "'");
    } else if (root.empty()) {
      root = arg;
    } else {
      throw UsageError(cmd + " expects exactly one root directory");
    }
  }
  if (root.empty()) {
    throw UsageError(cmd + " expects a root directory\n" +
                     std::string(usage));
  }

  const report::FleetReport fleet = report::fleet_scan(root, options);
  const std::string markdown = report::render_fleet_markdown(fleet);
  if (out.empty()) {
    std::cout << markdown;
  } else {
    report::write_fleet_text(out, markdown);
    std::cout << "fleet report written to " << out << '\n';
  }
  if (!json_out.empty()) {
    report::write_fleet_json(fleet, json_out);
    std::cout << "fleet JSON written to " << json_out << '\n';
  }
  if (!flame_out.empty()) {
    obs::FlameFold fold;
    std::size_t folded = 0;
    for (const report::FleetRun& run : fleet.runs) {
      const std::string dir =
          run.dir == "." ? root : root + "/" + run.dir;
      if (report::fold_run_dir(dir, fold)) ++folded;
    }
    report::write_fleet_text(flame_out, fold.collapsed());
    std::cout << "flame profile (" << fold.stack_count() << " stack(s) from "
              << folded << " run(s)) written to " << flame_out << '\n';
  }
  if (!out.empty() || fleet.regressed) {
    std::cout << "fleet: " << fleet.dirs_scanned << " run dir(s), "
              << fleet.runs_ok << " ok, " << fleet.runs_failed << " failed, "
              << fleet.manifests_corrupt << " corrupt manifest(s)";
    if (fleet.regressed) {
      std::cout << "; " << fleet.regressions.size()
                << " run(s) REGRESSED vs " << options.baseline_path;
    }
    std::cout << '\n';
  }
  return fleet.regressed ? kExitPerfRegression : 0;
}

int cmd_flame(int argc, char** argv) {
  const char* usage =
      "drbw flame <run-dir|trace> [--out FILE] — collapsed-stack export\n"
      "\n"
      "Folds a run's deterministic spans into collapsed-stack format\n"
      "(`frame;frame;frame weight`, one line per stack — the input format\n"
      "of flamegraph.pl and speedscope).  A directory argument folds its\n"
      "flight.log; a file argument is either a #drbw-flight dump or a\n"
      "trace_event JSON written with --trace-out.  Without --out the\n"
      "profile goes to stdout (pipe it straight into flamegraph.pl).\n";
  const std::string cmd = "drbw flame";
  std::string input;
  std::string out;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      return 0;
    }
    if (take_option(cmd, arg, "out", argc, argv, i, value)) {
      out = value;
    } else if (starts_with(arg, "--")) {
      throw UsageError(cmd + ": unknown option '" + arg + "'");
    } else if (input.empty()) {
      input = arg;
    } else {
      throw UsageError(cmd + " expects exactly one run dir or trace file");
    }
  }
  if (input.empty()) {
    throw UsageError(cmd + " expects a run dir or trace file\n" +
                     std::string(usage));
  }

  obs::FlameFold fold;
  std::error_code ec;
  if (std::filesystem::is_directory(input, ec)) {
    if (!report::fold_run_dir(input, fold)) {
      throw Error(input + ": no loadable " +
                      std::string(obs::kFlightFileName) +
                      " in this run dir (flame folds the flight recorder's "
                      "span breadcrumbs)",
                  ErrorCode::kNotFound);
    }
  } else {
    const std::string content = util::read_file_or_throw(input, "flame input");
    if (content.rfind("#drbw-flight", 0) == 0) {
      fold.add(report::flame_spans(report::load_flight_dump(input)));
    } else {
      try {
        fold.add(report::flame_spans_from_trace(Json::parse(content)));
      } catch (const Error& e) {
        throw Error(input + ": " + e.what(), e.code() == ErrorCode::kGeneric
                                                ? ErrorCode::kParse
                                                : e.code());
      }
    }
  }
  if (out.empty()) {
    std::cout << fold.collapsed();
  } else {
    report::write_fleet_text(out, fold.collapsed());
    std::cout << "flame profile (" << fold.stack_count()
              << " stack(s), total weight " << fold.total_weight()
              << ") written to " << out << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: drbw <train|record|analyze|explain|serve|convert|inspect|"
      "topology|stats|doctor|fleet|flame> [options]\n"
      "       drbw perf diff <baseline/run.json> <after/run.json>...\n"
      "       drbw <subcommand> --help for details\n";
  if (argc < 2) {
    std::cout << usage;
    return kExitUsage;
  }
  const std::string sub = argv[1];
  try {
    if (sub == "train") return cmd_train(argc - 1, argv + 1);
    if (sub == "record") return cmd_record(argc - 1, argv + 1);
    if (sub == "analyze") return cmd_analyze(argc - 1, argv + 1);
    if (sub == "explain") return cmd_explain(argc - 1, argv + 1);
    if (sub == "serve") return cmd_serve(argc - 1, argv + 1);
    if (sub == "convert") return cmd_convert(argc - 1, argv + 1);
    if (sub == "inspect") return cmd_inspect(argc - 1, argv + 1);
    if (sub == "topology") return cmd_topology(argc - 1, argv + 1);
    if (sub == "stats") return cmd_stats(argc - 1, argv + 1);
    if (sub == "doctor") return cmd_doctor(argc - 1, argv + 1);
    if (sub == "fleet") return cmd_fleet(argc - 1, argv + 1);
    if (sub == "flame") return cmd_flame(argc - 1, argv + 1);
    if (sub == "perf") {
      if (argc < 3 || std::string(argv[2]) != "diff") {
        std::cerr << "drbw perf: the only verb is 'diff'\n" << usage;
        return kExitUsage;
      }
      return cmd_perf_diff(argc - 2, argv + 2);
    }
    std::cerr << "unknown subcommand '" << sub << "'\n" << usage;
    return kExitUnknownCommand;
  } catch (const Error& e) {
    // Typed failures map onto the sysexits-style table in the doc comment
    // (UsageError carries kUsage, so it lands on 64 like before).
    std::cerr << "drbw: " << e.what() << '\n';
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::cerr << "drbw: " << e.what() << '\n';
    return 1;
  }
}
