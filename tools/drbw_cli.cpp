// drbw — the command-line front-end to the DR-BW reproduction.  It parses
// arguments and dispatches to the library; `drbw <subcommand> --help` lists
// every option and README.md walks through each workflow.
//
//   train      train the classifier on the Table II mini-program runs
//   record     run a proxy benchmark with DR-BW attached, write its trace
//   analyze    per-channel verdicts, Contribution Fractions, advice
//   explain    per-window decision paths, confidence, attribution
//   serve      replay a trace through the online serving loop
//   convert    re-encode a trace (csv <-> binary, shard or unshard)
//   inspect    pretty-print a trained model (Fig. 3 style)
//   topology   describe a simulated machine and its channels
//   stats      render a --trace-out timeline (--serve: a serve snapshot's)
//   doctor     diagnose a previous run from its manifest and flight dump
//   perf diff  compare run manifests' spans and counters
//   fleet      aggregate a tree of run dirs
//   flame      fold a run's spans into a collapsed-stack profile
//
// The pipeline subcommands (train/record/analyze/explain/serve) run inside a
// RunSession: --trace-out/--metrics-out/--timing sinks, --inject-faults, and
// a run manifest (run.json) plus flight dump (flight.log) in --run-dir,
// written even when the run fails so `drbw doctor` can diagnose it.  Every
// artifact is byte-identical at any --jobs value.
//
// Exit codes: 0 success, 1 runtime error, 2 analyze found contention,
// 3 perf diff found a regression, 64 malformed arguments, 65 unknown
// subcommand, 66 missing input file, 67 parse error, 68 corrupt artifact,
// 69 artifact version skew, 70 injected fault, 74 I/O error.
#include <algorithm>
#include <climits>
#include <cstdint>
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
#include "drbw/report/explain.hpp"
#include "drbw/report/fleet.hpp"
#include "drbw/report/markdown.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/ascii_chart.hpp"
#include "drbw/util/cli.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"
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
/// analyze / explain / serve): the --trace-out/--metrics-out/--timing sinks,
/// the --inject-faults arming, the trace and model inputs, and the run
/// manifest and flight recorder lifecycle:
///
///   begin()    arms trace/flight/fault sinks before any pipeline work
///   stage(s)   leaves a "stage" breadcrumb in the flight ring
///   load_trace / load_model
///              the one input step: fail-fast checks, input provenance,
///              load stats recorded even when the load fails
///   run(body)  runs the subcommand; an escaping exception goes to fail()
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

  /// --load-mode / --max-bad-fraction for the trace-reading subcommands.
  static void add_load_options(ArgParser& parser) {
    parser.add_option("load-mode",
                      "strict (reject the first malformed record) | lenient "
                      "(quarantine malformed records, escalate past "
                      "--max-bad-fraction)",
                      "strict");
    parser.add_option("max-bad-fraction",
                      "lenient only: tolerated quarantined/seen record "
                      "fraction before the load fails as corrupt",
                      "0.25");
  }

  /// The --load-mode policy; a malformed value is a usage error.
  static util::LoadPolicy load_policy(const ArgParser& parser) {
    try {
      return util::load_policy_from_name(
          parser.option("load-mode"), parser.option_double("max-bad-fraction"));
    } catch (const Error& e) {
      throw UsageError(std::string("--load-mode: ") + e.what());
    }
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

  /// Loads the trace at `path`.  Fails fast (exit 66) when the trace or a
  /// non-empty `model` path is missing, before any parsing or training.  A
  /// sharded trace is many artifacts: the manifest lists the index first,
  /// then every shard, each content-identified (index-ordered, so golden).
  /// The load stats land in the manifest even when the load escalates —
  /// the quarantine tally at the moment of failure is what `drbw doctor`
  /// needs.
  pebs::Trace load_trace(const std::string& path, const std::string& model,
                         const pebs::LoadOptions& load) {
    util::require_input_file(path, "trace file");
    if (!model.empty()) util::require_input_file(model, "model file");
    const std::vector<std::string> files = pebs::trace_artifact_paths(path);
    note_input("trace-in", files.front());
    for (std::size_t i = 1; i < files.size(); ++i) {
      note_input("trace-shard-in", files[i]);
    }
    pebs::Trace trace;
    try {
      trace = pebs::load_trace(path, load, &load_stats_);
    } catch (...) {
      record_load_stats();
      throw;
    }
    record_load_stats();
    return trace;
  }

  const util::LoadStats& load_stats() const { return load_stats_; }

  /// The --model classifier, noted as an input; trained in-process when
  /// --model is empty.
  ml::Classifier load_model(const topology::Machine& machine,
                            const util::LoadPolicy& policy) {
    const std::string& path = parser_.option("model");
    if (path.empty()) return workloads::train_default_classifier(machine);
    ml::Classifier model = ml::Classifier::load(path, policy);
    note_input("model-in", path);
    return model;
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

  /// Runs a subcommand body (which returns finish(code)); an escaping
  /// exception ends the run through fail().
  template <typename Body>
  int run(Body&& body) {
    try {
      return body();
    } catch (const Error& e) {
      return fail(e);
    } catch (const std::exception& e) {
      return fail(Error(e.what()));
    }
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

  void record_load_stats() {
    manifest_.has_load_stats = true;
    manifest_.records_seen = load_stats_.records_seen;
    manifest_.records_ok = load_stats_.records_ok;
    manifest_.records_quarantined = load_stats_.records_quarantined;
    manifest_.checksum_ok = load_stats_.checksum_ok;
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
  util::LoadStats load_stats_;
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

/// An integer option in [min, max]; anything else, an empty value
/// included, is a usage error.
long long int_option(const ArgParser& parser, const std::string& name,
                     long long min, long long max = LLONG_MAX) {
  const std::string& raw = parser.option(name);
  if (raw.empty() || parser.option_int(name) < min ||
      parser.option_int(name) > max) {
    throw UsageError("--" + name + " must be " +
                     (max == LLONG_MAX ? ">= " + std::to_string(min)
                                       : "between " + std::to_string(min) +
                                             " and " + std::to_string(max)) +
                     ", got '" + raw + "'");
  }
  return parser.option_int(name);
}

/// A number option >= 0; anything else, an empty value included, is a
/// usage error.
double non_negative_option(const ArgParser& parser, const std::string& name) {
  const std::string& raw = parser.option(name);
  if (raw.empty() || parser.option_double(name) < 0.0) {
    throw UsageError("--" + name + " must be >= 0, got '" + raw + "'");
  }
  return parser.option_double(name);
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
  return session.run([&] {
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
  });
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
                    "(v3, ~3x faster to load)",
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
  return session.run([&] {
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
    save.shards = static_cast<std::size_t>(
        int_option(parser, "shards", 1, pebs::kMaxTraceShards));
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
  });
}

int cmd_analyze(int argc, char** argv) {
  ArgParser parser("drbw analyze", "Analyze a recorded trace offline");
  parser.add_option("trace", "trace file from `drbw record`", "drbw_trace.csv");
  parser.add_option("model", "trained model (empty = train now)", "");
  parser.add_option("windows", "split the run into N time windows", "1");
  parser.add_option("report", "also write a Markdown report here", "");
  RunSession::add_load_options(parser);
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
  return session.run([&] {
    session.stage("load");
    pebs::LoadOptions load;
    load.policy = RunSession::load_policy(parser);
    load.jobs = static_cast<int>(parser.option_int("jobs"));
    const long long expect =
        int_option(parser, "expect-trace-version", 0, pebs::kTraceVersion);
    if (expect > 0) load.max_version = static_cast<int>(expect);
    const pebs::Trace trace =
        session.load_trace(parser.option("trace"), parser.option("model"), load);
    const util::LoadStats& load_stats = session.load_stats();
    std::cout << "loaded " << trace.samples.size() << " samples, "
              << trace.events.size() << " allocation events";
    if (load_stats.records_quarantined > 0 || !load_stats.checksum_ok) {
      std::cout << " (" << load_stats.records_quarantined << " of "
                << load_stats.records_seen << " records quarantined"
                << (load_stats.checksum_ok ? "" : ", checksum FAILED") << ")";
    }
    std::cout << '\n';
    const auto windows = parser.option_int("windows");
    const std::vector<pebs::CycleWindow> cut =
        windows > 1 ? pebs::split_trace_windows(
                          trace, static_cast<std::uint64_t>(windows))
                    : std::vector<pebs::CycleWindow>{};

    session.stage("classify");
    const auto machine = topology::Machine::xeon_e5_4650();
    const ml::Classifier model = session.load_model(machine, load.policy);
    const DrBw tool(machine, model);
    // Offline page-home lookups replay the trace's allocation events
    // (bind-to-node-0 fallback for unknown ranges).
    core::MasterNodeLocator locator;

    if (windows <= 1) {
      core::Profiler profiler(machine, locator);
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

    session.stage("windows");
    bool any = false;
    for (const auto& v : tool.analyze_windows(trace.events, cut, locator)) {
      std::cout << "[" << v.start_cycle << ", " << v.end_cycle << ") "
                << v.samples << " samples: "
                << (v.rmc ? "RMC" : "good");
      for (const auto& ch : v.contended) std::cout << ' ' << machine.channel_name(ch);
      std::cout << '\n';
      any |= v.rmc;
    }
    return session.finish(any ? 2 : 0);
  });
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
  RunSession::add_load_options(parser);
  parser.add_option("jobs",
                    "parallel window explainers (0 = one per hardware "
                    "thread); every artifact is byte-identical at any value",
                    "1");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("explain", parser);
  session.begin();
  return session.run([&] {
    session.stage("load");
    pebs::LoadOptions load;
    load.policy = RunSession::load_policy(parser);
    const long long windows = int_option(parser, "windows", 1);
    load.jobs = static_cast<int>(parser.option_int("jobs"));
    const pebs::Trace trace =
        session.load_trace(parser.option("trace"), parser.option("model"), load);
    const std::vector<pebs::CycleWindow> cut =
        pebs::split_trace_windows(trace, static_cast<std::uint64_t>(windows));

    const auto machine = topology::Machine::xeon_e5_4650();
    const ml::Classifier model = session.load_model(machine, load.policy);

    session.stage("explain");
    const report::ExplainResult result = report::explain_windows(
        machine, model, trace.events, cut,
        static_cast<int>(parser.option_int("jobs")));

    session.stage("persist");
    util::write_versioned_artifact(
        parser.option("out"), "explain", report::kExplainVersion,
        report::explain_json(result, machine, parser.option("trace"),
                             parser.option("model")));
    session.note_output("explain-out", parser.option("out"));
    if (!parser.option("report").empty()) {
      report::write_file(
          parser.option("report"),
          report::explain_markdown(result, machine, parser.option("trace"),
                                   parser.option("model")));
      session.note_output("report-out", parser.option("report"));
      std::cout << "report written to " << parser.option("report") << '\n';
    }

    std::cout << "explained " << result.rows << " channel verdict(s) across "
              << result.windows_explained << " of " << result.windows.size()
              << " window(s): " << result.rmc_rows << " rmc, "
              << result.paths.size()
              << " distinct decision path(s), confidence p50 "
              << format_fixed(result.confidence_p50, 3) << '\n';
    std::cout << "explain artifact written to " << parser.option("out")
              << '\n';
    return session.finish(0);
  });
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
  RunSession::add_load_options(parser);
  parser.add_option("jobs",
                    "parallel window classifiers (0 = one per hardware "
                    "thread); snapshots, metrics, and the manifest are "
                    "byte-identical at any value",
                    "1");
  RunSession::add_options(parser);
  if (!parser.parse(argc, argv)) return 0;
  RunSession session("serve", parser);
  session.begin();
  return session.run([&] {
    session.stage("load");
    pebs::LoadOptions load;
    load.policy = RunSession::load_policy(parser);
    serve::ServeOptions opts;
    try {
      opts.overload = serve::overload_policy_from_name(parser.option("overload"));
    } catch (const Error& e) {
      throw UsageError(std::string("--overload: ") + e.what());
    }
    opts.clients = static_cast<std::uint32_t>(int_option(parser, "clients", 1));
    opts.queue_depth =
        static_cast<std::size_t>(int_option(parser, "queue-depth", 1));
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
    opts.drift_threshold = non_negative_option(parser, "drift-threshold");
    opts.jobs = static_cast<int>(parser.option_int("jobs"));
    std::string run_dir = parser.option("run-dir");
    if (run_dir.empty()) run_dir = ".";
    opts.snapshot_path = parser.option("snapshot-out").empty()
                             ? run_dir + "/serve_snapshot.json"
                             : parser.option("snapshot-out");

    load.jobs = opts.jobs;
    const pebs::Trace trace =
        session.load_trace(parser.option("replay"), "", load);
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
        model = ml::Classifier::load(parser.option("model"), load.policy);
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
  });
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
  const Json* version = root.find("drbw_serve_snapshot");
  if (version == nullptr) {
    throw Error(path + ": not a serve snapshot (no drbw_serve_snapshot "
                       "field); `drbw serve` writes one at --snapshot-out",
                ErrorCode::kParse);
  }
  const Json* timeline = root.find("timeline");
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
    const auto num = [&](const char* key) {
      const Json* node = row.find(key);
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
  if (const Json* drift = root.find("drift")) {
    const auto num = [&](const char* key) {
      const Json* node = drift->find(key);
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

  const std::string& path = parser.option("trace");
  const UsageError serve_hint(
      "drbw stats: '" + path +
      "' is a serve snapshot, not a trace_event file — did you mean `drbw "
      "stats --serve --trace " + path + "`?");
  const std::string content = util::read_file_or_throw(path, "trace file");
  if (content.rfind("#drbw-serve-snapshot", 0) == 0) throw serve_hint;
  const Json root = Json::parse(content);

  // Per-channel (epoch-start-cycle, utilization) series from the engine's
  // per-epoch "epoch" counter events.  Any other event kinds are skipped, so
  // stats works on traces from any subcommand.
  std::map<std::string, std::vector<std::pair<double, double>>> series;
  std::size_t epochs = 0;
  const Json* events = root.find("traceEvents");
  if (events == nullptr) {
    if (root.find("drbw_serve_snapshot") != nullptr) throw serve_hint;
    throw Error("not a trace_event file: no traceEvents");
  }
  for (const Json& event : events->as_array()) {
    const Json* name = event.find("name");
    const Json* phase = event.find("ph");
    const Json* args = event.find("args");
    if (name == nullptr || phase == nullptr || args == nullptr) continue;
    if (name->as_string() != "epoch" || phase->as_string() != "C") continue;
    const double ts = event.at("ts").as_number();
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
  if (const Json* other = root.find("otherData")) {
    if (const Json* clock = other->find("clock")) {
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
  load.policy = RunSession::load_policy(parser);
  load.jobs = static_cast<int>(parser.option_int("jobs"));
  pebs::SaveOptions save;
  save.format = pebs::trace_format_from_name(parser.option("format"));
  save.shards = static_cast<std::size_t>(
      int_option(parser, "shards", 1, pebs::kMaxTraceShards));
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

int cmd_doctor(int argc, char** argv) {
  ArgParser parser(
      "drbw doctor",
      "diagnose a previous run from its manifest: loads <run-dir>/run.json "
      "(and flight.log when present) and prints ranked root-cause findings. "
      "Exits 0 when the diagnosis succeeds, including for runs that "
      "themselves failed");
  parser.add_positionals("run-dir", "run directory (default: .)", 0, 1);
  if (!parser.parse(argc, argv)) return 0;
  const std::vector<std::string>& dirs = parser.positionals();
  std::cout << report::render_doctor(
      report::doctor(dirs.empty() ? "." : dirs.front()));
  return 0;
}

int cmd_perf_diff(int argc, char** argv) {
  ArgParser parser(
      "drbw perf diff",
      "compare span statistics and metric counters between run manifests: "
      "the first is the baseline, and every following manifest is diffed "
      "against it.  Exits 3 when any comparison grew past baseline*(1+F); "
      "CI uses this as a behaviour gate");
  parser.add_positionals("run.json",
                         "the baseline manifest, then one or more to compare",
                         2, SIZE_MAX);
  parser.add_option("threshold", "regression threshold F", "0.25");
  if (!parser.parse(argc, argv)) return 0;
  const double threshold = non_negative_option(parser, "threshold");
  const std::vector<std::string>& manifests = parser.positionals();
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

int cmd_fleet(int argc, char** argv) {
  ArgParser parser(
      "drbw fleet",
      "aggregate a tree of run dirs: recursively discovers every directory "
      "under root-dir holding a run.json, validates each manifest's checksum "
      "(corrupt manifests are quarantined into the report, never fatal), and "
      "aggregates outcomes, span-time distributions, fault fires, and "
      "quarantine tallies");
  parser.add_positionals("root-dir", "root of the run-dir tree", 1, 1);
  parser.add_option("baseline",
                    "perf-diff every passing run against this manifest; exit "
                    "3 when any run regresses",
                    "");
  parser.add_option("threshold", "regression threshold (0.25 = +25%)", "0.25");
  parser.add_option("filter", "status=ok | status=failed: aggregate only those "
                    "runs", "");
  parser.add_option("top", "list at most N runs in the report (0 = all)", "0");
  parser.add_option("jobs",
                    "parallel manifest loads (0 = hw threads); every output "
                    "is byte-identical at any value",
                    "1");
  parser.add_option("out", "write the Markdown report here (empty = stdout)",
                    "");
  parser.add_option("json-out", "write the checksummed #drbw-fleet JSON here",
                    "");
  parser.add_option("flame-out",
                    "merge every run's flight.log spans into one "
                    "collapsed-stack profile here",
                    "");
  if (!parser.parse(argc, argv)) return 0;
  const std::string& root = parser.positionals().front();
  const std::string& out = parser.option("out");
  const std::string& json_out = parser.option("json-out");
  const std::string& flame_out = parser.option("flame-out");
  report::FleetOptions options;
  options.baseline_path = parser.option("baseline");
  options.threshold = non_negative_option(parser, "threshold");
  const std::string& filter = parser.option("filter");
  if (filter == "status=ok" || filter == "status=failed") {
    options.filter_status = filter.substr(std::string("status=").size());
  } else if (!filter.empty()) {
    throw UsageError("--filter expects status=ok or status=failed, got '" +
                     filter + "'");
  }
  options.top = static_cast<std::size_t>(int_option(parser, "top", 0));
  options.jobs = static_cast<int>(int_option(parser, "jobs", 0));

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
  ArgParser parser(
      "drbw flame",
      "collapsed-stack export: folds a run's deterministic spans into "
      "collapsed-stack format (`frame;frame;frame weight`, one line per "
      "stack: the input format of flamegraph.pl and speedscope)");
  parser.add_positionals("run-dir|trace",
                         "a run dir (folds its flight.log), a #drbw-flight "
                         "dump, or a trace_event JSON from --trace-out",
                         1, 1);
  parser.add_option("out", "write the profile here (empty = stdout)", "");
  if (!parser.parse(argc, argv)) return 0;
  const std::string& input = parser.positionals().front();
  const std::string& out = parser.option("out");

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
