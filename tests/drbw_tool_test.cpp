// End-to-end integration tests: simulate runs on the NUMA machine, train a
// classifier from labelled runs, and drive the full DR-BW pipeline
// (profile -> per-channel features -> classify -> diagnose).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "drbw/drbw.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/report/explain.hpp"
#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/workloads/benchmark.hpp"
#include "drbw/workloads/suite.hpp"

namespace drbw {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using sim::Engine;
using sim::EngineConfig;
using sim::Phase;
using sim::SimThread;
using sim::ThreadWork;
using topology::Machine;

EngineConfig test_config(std::uint64_t seed = 7) {
  EngineConfig cfg;
  cfg.epoch_cycles = 50'000;
  cfg.seed = seed;
  return cfg;
}

/// Runs `threads_per_node x nodes` threads streaming a shared array.
/// bound=true places the array on node 0 (the paper's problematic master-
/// thread allocation); otherwise it is interleaved (bandwidth friendly).
sim::RunResult make_run(const Machine& machine, AddressSpace& space,
                        int threads_per_node, int nodes, bool bound,
                        std::uint64_t accesses, std::uint64_t seed) {
  const auto obj = space.allocate(
      "app.c:42 data", 1ull << 30,
      bound ? PlacementSpec::bind(0) : PlacementSpec::interleave());
  std::vector<SimThread> threads;
  Phase phase{"main", {}};
  std::uint32_t tid = 0;
  for (int n = 0; n < nodes; ++n) {
    for (int t = 0; t < threads_per_node; ++t) {
      threads.push_back(SimThread{tid++, machine.cpus_of_node(n)[static_cast<std::size_t>(t)]});
      phase.work.push_back(ThreadWork{{sim::seq_read(obj, accesses)}, 1.0});
    }
  }
  Engine engine(machine, space, test_config(seed));
  return engine.run(threads, {phase});
}

class DrBwToolTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();

  /// Trains a small but honest model: contended (bound, many threads) vs
  /// friendly (interleaved or few threads) runs.
  ml::Classifier train_model() {
    ml::Dataset data(std::vector<std::string>(
        features::selected_feature_names().begin(),
        features::selected_feature_names().end()));
    std::uint64_t seed = 100;
    auto add_run = [&](const sim::RunResult& run, AddressSpace& space,
                       bool rmc) {
      core::AddressSpaceLocator locator(space);
      core::Profiler profiler(machine_, locator);
      const auto profile = profiler.profile(run);
      // Train on the hottest remote channel — the same scope the detector
      // classifies (mirrors workloads::generate_training_set).
      const auto channels = features::extract_channels(profile, machine_);
      const features::ChannelFeatures* best = &channels.front();
      for (const auto& cf : channels) {
        if (cf.features.remote_dram_count() >
                best->features.remote_dram_count() ||
            (cf.features.remote_dram_count() ==
                 best->features.remote_dram_count() &&
             cf.features.scope_samples > best->features.scope_samples)) {
          best = &cf;
        }
      }
      data.add(best->features.as_row(),
               rmc ? ml::Label::kRmc : ml::Label::kGood);
    };
    for (int rep = 0; rep < 3; ++rep) {
      for (const int tpn : {2, 6}) {
        for (const bool bound : {false, true}) {
          AddressSpace space(machine_);
          const auto run =
              make_run(machine_, space, tpn, 4, bound, 400'000, seed++);
          add_run(run, space, /*rmc=*/bound && tpn >= 6);
        }
      }
      // Local-saturation run: eight node-0 threads streaming node-0 memory.
      // Latencies inflate on the local memory controller, but there is no
      // *remote* bandwidth contention — labelled good.  These runs are what
      // force the tree onto the remote-specific features (the paper found
      // the same: high latency alone does not indicate remote contention).
      AddressSpace space(machine_);
      const auto obj = space.allocate("app.c:42 data", 1ull << 30,
                                      PlacementSpec::bind(0));
      std::vector<SimThread> threads;
      Phase phase{"main", {}};
      for (int t = 0; t < 8; ++t) {
        threads.push_back(SimThread{static_cast<std::uint32_t>(t),
                                    machine_.cpus_of_node(0)[static_cast<std::size_t>(t)]});
        phase.work.push_back(ThreadWork{{sim::seq_read(obj, 400'000)}, 1.0});
      }
      Engine engine(machine_, space, test_config(seed++));
      add_run(engine.run(threads, {phase}), space, /*rmc=*/false);
    }
    return ml::Classifier::train(data);
  }
};

TEST_F(DrBwToolTest, DetectsContentionAndDiagnosesRootCause) {
  const DrBw tool(machine_, train_model());

  // Contended case: 6 threads on each of 4 nodes hammer node-0 memory.
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, /*bound=*/true, 400'000, 999);
  core::AddressSpaceLocator locator(space);
  const Report report = tool.analyze(run, locator);

  EXPECT_TRUE(report.rmc);
  ASSERT_FALSE(report.contended.empty());
  // Contention is on channels *into* node 0 from the other nodes.
  for (const auto& ch : report.contended) {
    EXPECT_EQ(ch.dst, 0);
    EXPECT_NE(ch.src, 0);
  }
  // Diagnosis blames the single shared array.
  ASSERT_FALSE(report.diagnosis.ranking.empty());
  EXPECT_EQ(report.diagnosis.ranking[0].site, "app.c:42 data");
  EXPECT_GT(report.diagnosis.ranking[0].cf, 0.9);

  const std::string rendered = report.to_string(machine_);
  EXPECT_NE(rendered.find("rmc"), std::string::npos);
  EXPECT_NE(rendered.find("app.c:42 data"), std::string::npos);
}

TEST_F(DrBwToolTest, InterleavedRunIsGood) {
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, /*bound=*/false, 400'000, 888);
  core::AddressSpaceLocator locator(space);
  const Report report = tool.analyze(run, locator);
  EXPECT_FALSE(report.rmc);
  EXPECT_TRUE(report.contended.empty());
  EXPECT_NE(report.to_string(machine_).find("good"), std::string::npos);
}

TEST_F(DrBwToolTest, LightBoundRunIsGood) {
  // Two threads on one remote node do not saturate the link.
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto obj = space.allocate("app.c:42 data", 1ull << 30,
                                  PlacementSpec::bind(0));
  std::vector<SimThread> threads{{0, 8}, {1, 9}};  // node 1
  Phase phase{"main",
              {ThreadWork{{sim::random_read(obj, 200'000)}, 1.0},
               ThreadWork{{sim::random_read(obj, 200'000)}, 1.0}}};
  Engine engine(machine_, space, test_config(55));
  const auto run = engine.run(threads, {phase});
  core::AddressSpaceLocator locator(space);
  const Report report = tool.analyze(run, locator);
  EXPECT_FALSE(report.rmc);
}

TEST_F(DrBwToolTest, SparseChannelsDefaultGood) {
  const DrBw tool(machine_, train_model());
  // A tiny run: too few samples anywhere to trust the model.
  AddressSpace space(machine_);
  const auto obj = space.allocate("app.c:1 x", 1 << 20, PlacementSpec::bind(1));
  std::vector<SimThread> threads{{0, 0}};
  Phase phase{"main", {ThreadWork{{sim::seq_read(obj, 20'000)}, 1.0}}};
  Engine engine(machine_, space, test_config(44));
  const auto run = engine.run(threads, {phase});
  core::AddressSpaceLocator locator(space);
  const Report report = tool.analyze(run, locator);
  EXPECT_FALSE(report.rmc);
  for (const auto& v : report.channels) {
    if (v.channel.src == 0) {
      EXPECT_TRUE(v.sparse);
    }
  }
}

TEST_F(DrBwToolTest, ModelRoundTripThroughDiskKeepsVerdicts) {
  const ml::Classifier model = train_model();
  const std::string path = ::testing::TempDir() + "/drbw_tool_model.json";
  model.save(path);
  const DrBw tool(machine_, ml::Classifier::load(path));

  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, true, 400'000, 123);
  core::AddressSpaceLocator locator(space);
  EXPECT_TRUE(tool.analyze(run, locator).rmc);
  std::remove(path.c_str());
}

TEST_F(DrBwToolTest, WindowedAnalysisSeparatesPhases) {
  // Phase 1: cache-resident work (no contention).  Phase 2: every node
  // hammers node-0 memory.  Whole-run analysis says rmc; windowed analysis
  // must show the early windows clean and the late ones contended.
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto small = space.allocate("app.c:50 local", 1 << 20,
                                    PlacementSpec::colocate({0, 1, 2, 3}));
  const auto hot = space.allocate("app.c:60 shared", 1ull << 30,
                                  PlacementSpec::bind(0));
  std::vector<SimThread> threads;
  Phase quiet{"quiet", {}};
  Phase storm{"storm", {}};
  std::uint32_t tid = 0;
  for (int n = 0; n < 4; ++n) {
    for (int t = 0; t < 6; ++t) {
      threads.push_back(SimThread{tid++, machine_.cpus_of_node(n)[static_cast<std::size_t>(t)]});
      quiet.work.push_back(ThreadWork{{sim::seq_read(small, 400'000)}, 1.0});
      storm.work.push_back(ThreadWork{{sim::seq_read(hot, 400'000)}, 1.0});
    }
  }
  Engine engine(machine_, space, test_config(404));
  const auto run = engine.run(threads, {quiet, storm});
  core::AddressSpaceLocator locator(space);

  ASSERT_EQ(run.phases.size(), 2u);
  const auto verdicts = tool.analyze_windows(
      run.alloc_events,
      pebs::split_cycle_windows(run.samples, run.total_cycles,
                                run.phases[0].cycles),
      locator);
  ASSERT_GE(verdicts.size(), 2u);
  EXPECT_FALSE(verdicts.front().rmc);  // the quiet phase
  bool any_late_rmc = false;
  for (std::size_t w = 1; w < verdicts.size(); ++w) {
    any_late_rmc |= verdicts[w].rmc;
  }
  EXPECT_TRUE(any_late_rmc);  // the storm
  // Windows tile the run exactly.
  EXPECT_EQ(verdicts.front().start_cycle, 0u);
  EXPECT_EQ(verdicts.back().end_cycle, run.total_cycles);
}

TEST_F(DrBwToolTest, ReportCarriesAdviceWhenContended) {
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, /*bound=*/true, 400'000, 777);
  core::AddressSpaceLocator locator(space);
  const Report report = tool.analyze(run, locator);
  ASSERT_TRUE(report.rmc);
  ASSERT_FALSE(report.advice.empty());
  EXPECT_EQ(report.advice[0].evidence.site, "app.c:42 data");
  // A partitioned sequential array: the advice must be co-location.
  EXPECT_EQ(report.advice[0].remedy, diagnoser::Remedy::kColocate);
  EXPECT_NE(report.to_string(machine_).find("co-locate"), std::string::npos);
}

TEST_F(DrBwToolTest, WindowedAnalysisValidatesArguments) {
  const DrBw tool(machine_, train_model());
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 2, 4, false, 100'000, 321);
  core::AddressSpaceLocator locator(space);
  EXPECT_THROW(pebs::split_cycle_windows(run.samples, run.total_cycles, 0),
               Error);
  const auto verdicts = tool.analyze_windows(
      run.alloc_events,
      pebs::split_cycle_windows(run.samples, run.total_cycles, 1ull << 62),
      locator);
  EXPECT_EQ(verdicts.size(), 1u);  // one giant window
}

TEST_F(DrBwToolTest, AnalyzeExplainAndServeAgreePerWindow) {
  // The contended fixture (6 threads x 4 nodes on node-0 memory), cut into
  // 8 cycle windows.  Under the same gates, DrBw, explain, and serve all
  // featurize windows through features::extract_window and classify through
  // ml::classify_channels, so they must agree window by window.
  const ml::Classifier model = train_model();
  AddressSpace space(machine_);
  const auto run = make_run(machine_, space, 6, 4, /*bound=*/true, 400'000, 999);
  const pebs::Trace trace{run.alloc_events, run.samples};
  const std::vector<pebs::CycleWindow> windows =
      pebs::split_trace_windows(trace, 8);
  const DrBw tool(machine_, model, features::kWindowGates);
  const report::ExplainResult explained =
      report::explain_windows(machine_, model, trace.events, windows, 2);
  ASSERT_EQ(explained.windows.size(), windows.size());

  core::MasterNodeLocator locator;
  const std::vector<WindowVerdict> analyzed =
      tool.analyze_windows(trace.events, windows, locator);
  ASSERT_EQ(analyzed.size(), windows.size());
  std::size_t rmc_windows = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    std::vector<const ChannelVerdict*> admitted;
    for (const ChannelVerdict& v : analyzed[w].channels) {
      if (!v.sparse) admitted.push_back(&v);
    }
    const std::vector<ml::ChannelVerdict>& from_explain =
        explained.windows[w].verdicts;
    ASSERT_EQ(admitted.size(), from_explain.size()) << "window " << w;
    std::vector<topology::ChannelId> explain_contended;
    for (std::size_t c = 0; c < admitted.size(); ++c) {
      EXPECT_EQ(admitted[c]->channel, from_explain[c].channel);
      EXPECT_EQ(admitted[c]->rmc(), from_explain[c].rmc());
      EXPECT_EQ(admitted[c]->features.scope_samples,
                from_explain[c].features.scope_samples);
      for (std::size_t k = 0; k < features::kNumSelected; ++k) {
        EXPECT_EQ(admitted[c]->features.values[k],
                  from_explain[c].features.values[k])
            << "window " << w << " feature " << k;
      }
      if (from_explain[c].rmc()) {
        explain_contended.push_back(from_explain[c].channel);
      }
    }
    EXPECT_EQ(analyzed[w].contended, explain_contended) << "window " << w;
    if (analyzed[w].rmc) ++rmc_windows;
  }
  EXPECT_GT(rmc_windows, 0u);  // the agreement covers contended verdicts

  // Serve with one client and room for every sample: its first tick's
  // buffer is exactly window 0.
  serve::ServeOptions opts;
  opts.clients = 1;
  opts.queue_depth = trace.samples.size();
  opts.window_capacity = trace.samples.size();
  opts.window_cycles = windows[0].end - windows[0].start;
  serve::Server server(machine_, &model, opts);
  const serve::ServeResult served = server.run(trace);
  ASSERT_FALSE(served.timeline.empty());
  const serve::TimelineRow& first = served.timeline.front();
  EXPECT_EQ(first.tick, 0u);
  EXPECT_EQ(first.windows, 1u);
  EXPECT_EQ(first.rmc, analyzed[0].rmc ? 1u : 0u);
  double confidence = 1.0;
  for (const ml::ChannelVerdict& v : explained.windows[0].verdicts) {
    confidence = std::min(confidence, v.explanation.confidence);
  }
  EXPECT_EQ(first.confidence_p50, confidence);
}

TEST_F(DrBwToolTest, WindowPathsReplayTheAllocationTableOnce) {
  // The streamcluster T8-N4 seed-7 trace (`drbw record`'s perf trace), cut
  // into 8 windows: analyze and explain each replay its allocation events
  // into one HeapTracker, not one per window.
  if (!obs::kEnabled) GTEST_SKIP() << "metrics are compiled out";
  mem::AddressSpace space(machine_);
  sim::EngineConfig engine;
  engine.seed = 7;
  const auto built = workloads::make_suite_benchmark("streamcluster")->build(
      space, machine_, workloads::RunConfig{8, 4},
      workloads::PlacementMode::kOriginal, 1);
  const auto run = workloads::execute(machine_, space, built, engine);
  const pebs::Trace trace{run.alloc_events, run.samples};
  const std::vector<pebs::CycleWindow> windows =
      pebs::split_trace_windows(trace, 8);
  const auto allocations = static_cast<std::uint64_t>(std::count_if(
      trace.events.begin(), trace.events.end(),
      [](const mem::AllocationEvent& e) {
        return e.kind == mem::AllocationEvent::Kind::kAlloc;
      }));
  ASSERT_GT(allocations, 0u);

  const ml::Classifier model = train_model();
  const obs::Counter& replayed = obs::Registry::global().counter(
      "drbw_core_heap_allocs_total", "Allocation events replayed");
  std::uint64_t before = replayed.value();
  report::explain_windows(machine_, model, trace.events, windows, 2);
  EXPECT_EQ(replayed.value() - before, allocations);

  core::MasterNodeLocator locator;
  before = replayed.value();
  DrBw(machine_, model).analyze_windows(trace.events, windows, locator);
  EXPECT_EQ(replayed.value() - before, allocations);
}

TEST_F(DrBwToolTest, RejectsModelWithWrongArity) {
  ml::Dataset d({"only", "two"});
  d.add({0.0, 0.0}, ml::Label::kGood);
  d.add({1.0, 1.0}, ml::Label::kRmc);
  EXPECT_THROW(DrBw(machine_, ml::Classifier::train(d)), Error);
}

#ifdef DRBW_CLI_PATH
/// Runs the installed drbw binary and returns its exit status (-1 if it died
/// on a signal).  Output is discarded — these tests pin the exit-code
/// contract, not the text.
int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(DRBW_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(DrBwCliExitCodeTest, UnknownSubcommandExits65) {
  EXPECT_EQ(run_cli("frobnicate"), 65);
}

TEST(DrBwCliExitCodeTest, MalformedArgumentsExit64) {
  EXPECT_EQ(run_cli(""), 64);                          // no subcommand
  EXPECT_EQ(run_cli("analyze --trace"), 64);           // option missing value
  EXPECT_EQ(run_cli("analyze --no-such-flag x"), 64);  // unknown option
  EXPECT_EQ(run_cli("record --timing sideways"), 64);  // bad --timing value
}

TEST(DrBwCliExitCodeTest, MissingInputsExit66) {
  // Missing input files are detected early and mapped to EX_NOINPUT.
  EXPECT_EQ(run_cli("analyze --trace /nonexistent/trace.csv"), 66);
  EXPECT_EQ(run_cli("stats --trace /nonexistent/obs.json"), 66);
  EXPECT_EQ(run_cli("inspect --model /nonexistent/model.json"), 66);
}

TEST(DrBwCliExitCodeTest, BadFaultSpecExits64) {
  EXPECT_EQ(run_cli("record --inject-faults not-a-spec"), 64);
  EXPECT_EQ(run_cli("record --inject-faults trace.read:corrupt:2.0"), 64);
  EXPECT_EQ(run_cli("analyze --load-mode sometimes"), 64);
}

std::string cli_read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// `drbw explain` end to end: a recorded trace + trained model yield a
/// deterministic `#drbw-explain v1` artifact and Markdown report — the
/// explain stage and "explain" span both land in the run manifest.
TEST(DrBwCliExplainTest, WritesDeterministicArtifactAndReport) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_explain_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(run_cli("record --benchmark streamcluster --config T8-N4 --seed 7"
                    " --out " + dir + "/trace.csv"),
            0);
  ASSERT_EQ(run_cli("train --out " + dir + "/model.json"), 0);
  const std::string common = "explain --trace " + dir + "/trace.csv" +
                             " --model " + dir + "/model.json --windows 4";
  ASSERT_EQ(run_cli(common + " --out " + dir + "/a.json --report " + dir +
                    "/a.md --jobs 1 --run-dir " + dir + "/run_a"),
            0);
  ASSERT_EQ(run_cli(common + " --out " + dir + "/b.json --report " + dir +
                    "/b.md --jobs 4 --run-dir " + dir + "/run_b"),
            0);
  const std::string artifact = cli_read_file(dir + "/a.json");
  EXPECT_EQ(artifact.rfind("#drbw-explain v1", 0), 0u);
  EXPECT_NE(artifact.find("\"drbw_explain\": 1"), std::string::npos);
  EXPECT_NE(artifact.find("\"paths\""), std::string::npos);
  EXPECT_NE(artifact.find("\"attributions\""), std::string::npos);
  EXPECT_NE(artifact.find("\"confidence_p50\""), std::string::npos);
  // Byte-identical at any --jobs, report included.
  EXPECT_EQ(artifact, cli_read_file(dir + "/b.json"));
  const std::string report = cli_read_file(dir + "/a.md");
  EXPECT_EQ(report, cli_read_file(dir + "/b.md"));
  EXPECT_NE(report.find("## Decision paths"), std::string::npos);
  EXPECT_NE(report.find("## Feature attribution"), std::string::npos);
  // Provenance: the explain stage ran under the "explain" span.
  const std::string manifest = cli_read_file(dir + "/run_a/run.json");
  EXPECT_NE(manifest.find("\"subcommand\": \"explain\""), std::string::npos);
  EXPECT_NE(manifest.find("\"explain\""), std::string::npos);
  EXPECT_NE(manifest.find("drbw_model_confidence_bucket"), std::string::npos);
  std::filesystem::remove_all(dir);
}

/// Like run_cli, but keeps stdout in `out_path`.
int run_cli_to(const std::string& args, const std::string& out_path) {
  const std::string cmd = std::string(DRBW_CLI_PATH) + " " + args + " >" +
                          out_path + " 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// --windows N must fit the trace's cycle span (last sample cycle + 1):
/// past it, analyze silently printed fewer windows, explain wrote inverted
/// ones, and a huge N died on bad_alloc (exit 1).  Now both exit 64.
TEST(DrBwCliExitCodeTest, WindowsBeyondTheCycleSpanExit64) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_windows_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  pebs::Trace trace;
  for (std::uint64_t c = 0; c < 10; ++c) {  // span: 10 cycles
    pebs::MemorySample s;
    s.address = 0x1000 + 64 * c;
    s.level = pebs::MemLevel::kRemoteDram;
    s.latency_cycles = 300.0f;
    s.cycle = c;
    trace.samples.push_back(s);
  }
  pebs::save_trace(dir + "/trace.csv", trace);
  ASSERT_EQ(run_cli("train --out " + dir + "/model.json"), 0);
  const std::string input =
      " --trace " + dir + "/trace.csv --model " + dir + "/model.json";
  for (const char* over : {"20", "1000000000"}) {
    EXPECT_EQ(run_cli("analyze" + input + " --windows " + over +
                      " --run-dir " + dir + "/run"),
              64)
        << over;
    EXPECT_EQ(run_cli("explain" + input + " --windows " + over + " --out " +
                      dir + "/x.json --run-dir " + dir + "/run"),
              64)
        << over;
  }

  // Ten windows still fit: one line per 1-cycle window, as before.
  const int analyzed = run_cli_to(
      "analyze" + input + " --windows 10 --run-dir " + dir + "/run",
      dir + "/analyze.out");
  EXPECT_TRUE(analyzed == 0 || analyzed == 2) << analyzed;
  const std::string lines = cli_read_file(dir + "/analyze.out");
  for (int w = 0; w < 10; ++w) {
    EXPECT_NE(lines.find("[" + std::to_string(w) + ", " +
                         std::to_string(w + 1) + ") 1 samples: "),
              std::string::npos)
        << lines;
  }
  EXPECT_EQ(lines.find("[10, "), std::string::npos) << lines;
  ASSERT_EQ(run_cli("explain" + input + " --windows 10 --out " + dir +
                    "/e.json --run-dir " + dir + "/run"),
            0);
  const std::string artifact = cli_read_file(dir + "/e.json");
  EXPECT_NE(artifact.find("\"windows\": 10"), std::string::npos);
  EXPECT_NE(artifact.find("\"start\": 9,\n        \"end\": 10"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(DrBwCliExplainTest, StatsHintsServeSnapshotsToTheServeFlag) {
  const std::string dir =
      ::testing::TempDir() + "/drbw_cli_stats_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // A minimal headered snapshot is enough to trigger the hint: plain stats
  // must refuse it with usage (64) and point at --serve.
  util::write_versioned_artifact(
      dir + "/serve_snapshot.json", "serve-snapshot",
      serve::kServeSnapshotVersion,
      "{\n  \"drbw_serve_snapshot\": 2,\n  \"timeline\": []\n}\n");
  EXPECT_EQ(run_cli("stats --trace " + dir + "/serve_snapshot.json"), 64);
  EXPECT_EQ(run_cli("stats --serve --trace " + dir + "/serve_snapshot.json"),
            0);
  // Headerless snapshot bodies get the same hint via content sniffing.
  {
    std::ofstream out(dir + "/raw.json", std::ios::binary);
    out << "{\n  \"drbw_serve_snapshot\": 2,\n  \"timeline\": []\n}\n";
  }
  EXPECT_EQ(run_cli("stats --trace " + dir + "/raw.json"), 64);
  EXPECT_EQ(run_cli("stats --serve --trace " + dir + "/raw.json"), 0);
  EXPECT_EQ(run_cli("explain --windows 0 --trace " + dir + "/raw.json"), 64);
  // A checksum-valid snapshot whose values have the wrong JSON type is bad
  // input: a parse error (67), not an internal check failure (1).
  util::write_versioned_artifact(
      dir + "/mistyped.json", "serve-snapshot", serve::kServeSnapshotVersion,
      "{\n  \"drbw_serve_snapshot\": 2,\n  \"timeline\": [\n"
      "    {\"tick\": \"3\", \"windows\": 1, \"rmc\": 0}\n  ]\n}\n");
  EXPECT_EQ(run_cli("stats --serve --trace " + dir + "/mistyped.json"), 67);
  std::filesystem::remove_all(dir);
}

/// Like run_cli, but keeps stderr in `err_path`.
int run_cli_err(const std::string& args, const std::string& err_path) {
  const std::string cmd = std::string(DRBW_CLI_PATH) + " " + args +
                          " >/dev/null 2>" + err_path;
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// A CSV latency of nan, inf or -5, or an address of -1, used to load
/// (stoull wrapped "-1" to 2^64-1).  Binary v3 rejects such samples, and
/// now CSV does too: a strict analyze exits 67 naming the line, a lenient
/// one quarantines the record.
TEST(DrBwCliExitCodeTest, NonFiniteOrNegativeCsvFieldsExit67) {
  const std::string dir = ::testing::TempDir() + "/drbw_cli_nonfinite_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string model =
      " --model " + std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json" +
      " --run-dir " + dir + "/run";

  const std::string corpus =
      std::string(DRBW_TEST_DATA_DIR) + "/nonfinite_latency_trace.csv";
  EXPECT_EQ(run_cli_err("analyze --trace " + corpus + model, dir + "/err"),
            67);
  EXPECT_NE(cli_read_file(dir + "/err").find(corpus +
                                              ":7: malformed latency 'nan'"),
            std::string::npos);
  const int lenient = run_cli_to(
      "analyze --trace " + corpus + model + " --load-mode lenient",
      dir + "/out");
  EXPECT_TRUE(lenient == 0 || lenient == 2) << lenient;
  EXPECT_NE(cli_read_file(dir + "/out").find("(4 of 20 records quarantined)"),
            std::string::npos);

  const struct {
    const char* line;
    const char* message;
  } cases[] = {
      {"S,262152,1,2,RDR,nan,1,155", "malformed latency 'nan'"},
      {"S,262152,1,2,RDR,inf,1,155", "malformed latency 'inf'"},
      {"S,262152,1,2,RDR,-5,1,155", "malformed latency '-5'"},
      {"S,-1,1,2,RDR,730,1,155", "malformed number '-1'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    const std::string trace = dir + "/trace.csv";
    {
      std::ofstream out(trace);
      out << "#drbw-trace v1\n"
          << "S,262144,0,2,LDR,700,0,5\n"
          << c.line << "\n"
          << "S,262160,2,2,LDR,760,0,305\n"
          << "S,262168,3,2,RDR,790,1,455\n";
    }
    EXPECT_EQ(run_cli_err("analyze --trace " + trace + model, dir + "/err"),
              67);
    EXPECT_NE(cli_read_file(dir + "/err").find(trace + ":3: " + c.message),
              std::string::npos);
    const int code = run_cli_to("analyze --trace " + trace + model +
                                    " --load-mode lenient",
                                dir + "/out");
    EXPECT_TRUE(code == 0 || code == 2) << code;
    EXPECT_NE(cli_read_file(dir + "/out").find("(1 of 4 records quarantined)"),
              std::string::npos);
  }
  std::filesystem::remove_all(dir);
}
#endif

}  // namespace
}  // namespace drbw
