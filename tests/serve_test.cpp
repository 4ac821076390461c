// drbw::serve — online contention detection with bounded ingest.
//
// The serve contract this suite pins down:
//   * exact admission accounting per overload policy (block / shed-oldest /
//     reject) at a fixed queue depth — the counts are pure functions of the
//     stream, so they are asserted exactly, not approximately;
//   * injected ingest drops ("serve.ingest") match independent direct draws
//     of the same keys — fault patterns are content-keyed, never call-order
//     keyed;
//   * the circuit breaker trips after exactly breaker_threshold consecutive
//     faults ("serve.session"), and retry/backoff accounting is exact;
//   * results and snapshots are byte-identical at any --jobs value;
//   * --max-cycles shutdown still drains: every sample is accounted and the
//     final snapshot ("serve.snapshot" span) is written;
//   * a missing/corrupt model degrades the run (exit 0, degraded manifest)
//     instead of failing it — through the real CLI binary;
//   * doctor and fleet read serve runs back: DEGRADED / quarantine /
//     overflow findings, and the fleet "## Serve" section that only appears
//     when the corpus actually contains serve runs.
//
// The registry names earned here (paired with registry_coverage_test):
// metrics drbw_serve_samples_ingested_total, drbw_serve_samples_admitted_total,
// drbw_serve_samples_shed_total, drbw_serve_samples_rejected_total,
// drbw_serve_samples_deferred_total, drbw_serve_samples_dropped_total,
// drbw_serve_windows_classified_total, drbw_serve_windows_rmc_total,
// drbw_serve_ticks_total, drbw_serve_faults_total, drbw_serve_retries_total,
// drbw_serve_clients_quarantined_total, drbw_serve_queue_depth_peak,
// drbw_model_confidence_bucket, drbw_model_drift_score; spans
// serve.tick and serve.snapshot; fault sites serve.ingest, serve.session,
// serve.window, serve.classify; stage serve.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "drbw/fault/injector.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/ml/dataset.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/report/fleet.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/serve/queue.hpp"
#include "drbw/serve/server.hpp"
#include "drbw/topology/machine.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/error.hpp"

namespace drbw {
namespace {

using topology::Machine;

// ctest runs every discovered test in its own process, and the CliWorld
// fixture below is rebuilt per process — key the tree by pid so parallel
// test processes never remove_all each other's world mid-record.
std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/drbw_serve_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a drbw::Error";
  return ErrorCode::kGeneric;
}

struct ArmGuard {
  explicit ArmGuard(const std::string& spec) {
    fault::Injector::global().arm(fault::Plan::parse(spec));
  }
  ~ArmGuard() { fault::Injector::global().disarm(); }
  ArmGuard(const ArmGuard&) = delete;
  ArmGuard& operator=(const ArmGuard&) = delete;
};

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(DRBW_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// A classifier that calls every channel contended: a single-class training
/// set collapses to one kRmc leaf.  The suite tests the serve *loop*, not a
/// clever model.
ml::Classifier always_rmc_model() {
  ml::Dataset data(std::vector<std::string>(
      features::selected_feature_names().begin(),
      features::selected_feature_names().end()));
  const std::size_t arity = features::selected_feature_names().size();
  for (int r = 0; r < 4; ++r) {
    data.add(std::vector<double>(arity, static_cast<double>(r)),
             ml::Label::kRmc);
  }
  return ml::Classifier::train(data);
}

/// `n` samples on one CPU / memory level, cycles 100..100+n-1, one tracked
/// allocation covering every address.  With clients=1 this becomes a single
/// dense stream with exactly predictable admission counts.
pebs::Trace flat_trace(std::size_t n, topology::CpuId cpu,
                       pebs::MemLevel level) {
  pebs::Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"serve.c:1 buf"}, 0x10000, 4096});
  for (std::size_t i = 0; i < n; ++i) {
    pebs::MemorySample s;
    s.address = 0x10000 + (i * 64) % 4096;
    s.cpu = cpu;
    s.tid = static_cast<std::uint32_t>(i % 4);
    s.level = level;
    s.latency_cycles = 600.0f;
    s.is_write = i % 3 == 0;
    s.cycle = 100 + i;
    trace.samples.push_back(s);
  }
  return trace;
}

/// Multi-node, multi-level stream for the jobs-identity test: 8 tids over
/// `clients` sessions, CPUs spread across all four nodes.
pebs::Trace mixed_trace(const Machine& machine, std::size_t n) {
  pebs::Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"serve.c:2 grid"}, 0x20000,
      64 * 1024});
  for (std::size_t i = 0; i < n; ++i) {
    pebs::MemorySample s;
    s.address = 0x20000 + (i * 64) % (64 * 1024);
    s.cpu = machine.cpus_of_node(static_cast<topology::NodeId>(i % 4))[0];
    s.tid = static_cast<std::uint32_t>(i % 8);
    s.level = i % 3 == 0 ? pebs::MemLevel::kRemoteDram
                         : pebs::MemLevel::kLocalDram;
    s.latency_cycles = 80.0f + static_cast<float>(i % 7) * 100.0f;
    s.is_write = i % 5 == 0;
    s.cycle = 100 + i * 5;
    trace.samples.push_back(s);
  }
  return trace;
}

pebs::SessionSample sample_with_ordinal(std::uint64_t ordinal) {
  pebs::SessionSample s;
  s.sample.cycle = 100 + ordinal;
  s.ordinal = ordinal;
  return s;
}

// ---------------------------------------------------------------------------
// Session slicing
// ---------------------------------------------------------------------------

TEST(ServeSessionTest, SlicesByTidAndStampsGlobalOrdinals) {
  const pebs::Trace trace = flat_trace(12, 0, pebs::MemLevel::kLocalDram);
  const std::vector<pebs::ClientSession> sessions =
      pebs::slice_sessions(trace, 2);
  ASSERT_EQ(sessions.size(), 2u);
  std::size_t total = 0;
  for (const pebs::ClientSession& session : sessions) {
    std::uint64_t last_cycle = 0;
    for (const pebs::SessionSample& s : session.samples) {
      EXPECT_EQ(s.sample.tid % 2, session.client);
      // The ordinal is the sample's index in the source trace.
      ASSERT_LT(s.ordinal, trace.samples.size());
      EXPECT_EQ(trace.samples[s.ordinal].cycle, s.sample.cycle);
      EXPECT_GE(s.sample.cycle, last_cycle);  // cycle order preserved
      last_cycle = s.sample.cycle;
    }
    total += session.samples.size();
  }
  EXPECT_EQ(total, trace.samples.size());
  EXPECT_EQ(pebs::trace_cycle_span(trace), 111u);
  EXPECT_EQ(code_of([&] { (void)pebs::slice_sessions(trace, 0); }),
            ErrorCode::kUsage);
}

// ---------------------------------------------------------------------------
// Bounded queue policies
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, BlockDefersWhenFull) {
  serve::BoundedQueue q(2, serve::OverloadPolicy::kBlock);
  EXPECT_EQ(q.push(sample_with_ordinal(0)), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(sample_with_ordinal(1)), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(sample_with_ordinal(2)), serve::AdmitResult::kDeferred);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.deferred(), 1u);
}

TEST(BoundedQueueTest, ShedOldestEvictsTheOldestSample) {
  serve::BoundedQueue q(2, serve::OverloadPolicy::kShedOldest);
  EXPECT_EQ(q.push(sample_with_ordinal(0)), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(sample_with_ordinal(1)), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(sample_with_ordinal(2)), serve::AdmitResult::kShed);
  EXPECT_EQ(q.admitted(), 3u);
  EXPECT_EQ(q.shed(), 1u);
  const std::vector<pebs::SessionSample> drained = q.drain(10);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].ordinal, 1u);  // ordinal 0 was evicted
  EXPECT_EQ(drained[1].ordinal, 2u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, RejectRefusesTheIncomingSample) {
  serve::BoundedQueue q(2, serve::OverloadPolicy::kReject);
  EXPECT_EQ(q.push(sample_with_ordinal(0)), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(sample_with_ordinal(1)), serve::AdmitResult::kAdmitted);
  EXPECT_EQ(q.push(sample_with_ordinal(2)), serve::AdmitResult::kRejected);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.peak(), 2u);
  const std::vector<pebs::SessionSample> drained = q.drain(10);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].ordinal, 0u);  // newest data was lost, oldest kept
}

TEST(BoundedQueueTest, PolicyAndAdmitTokensRoundTrip) {
  for (const serve::OverloadPolicy policy :
       {serve::OverloadPolicy::kBlock, serve::OverloadPolicy::kShedOldest,
        serve::OverloadPolicy::kReject}) {
    EXPECT_EQ(serve::overload_policy_from_name(
                  serve::overload_policy_name(policy)),
              policy);
  }
  EXPECT_STREQ(serve::overload_policy_name(serve::OverloadPolicy::kShedOldest),
               "shed-oldest");
  EXPECT_EQ(code_of([] { (void)serve::overload_policy_from_name("bogus"); }),
            ErrorCode::kUsage);
  EXPECT_STREQ(serve::admit_result_name(serve::AdmitResult::kAdmitted),
               "admitted");
  EXPECT_STREQ(serve::admit_result_name(serve::AdmitResult::kDeferred),
               "deferred");
}

// ---------------------------------------------------------------------------
// Serve loop: exact overload accounting (100 samples, 1 client, depth 16,
// one giant ingest window, drain = depth).
// ---------------------------------------------------------------------------

serve::ServeOptions one_client_options(serve::OverloadPolicy policy) {
  serve::ServeOptions opts;
  opts.clients = 1;
  opts.queue_depth = 16;
  opts.overload = policy;
  opts.window_cycles = 1'000'000'000;  // everything arrives in tick 0
  return opts;
}

TEST(ServeLoopTest, ShedOldestExactCounts) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  serve::Server server(machine, nullptr,
                       one_client_options(serve::OverloadPolicy::kShedOldest));
  const serve::ServeResult r = server.run(trace);
  EXPECT_EQ(r.samples_in, 100u);
  EXPECT_EQ(r.samples_admitted, 100u);  // every sample entered the queue...
  EXPECT_EQ(r.samples_shed, 84u);       // ...evicting 100 - depth old ones
  EXPECT_EQ(r.samples_rejected, 0u);
  EXPECT_EQ(r.samples_deferred, 0u);
  EXPECT_EQ(r.samples_dropped, 0u);
  EXPECT_EQ(r.ticks, 1u);
  ASSERT_EQ(r.clients.size(), 1u);
  EXPECT_EQ(r.clients[0].peak_depth, 16u);
  EXPECT_TRUE(r.drained);
  // No model: pass-through telemetry, fully accounted but never classified.
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.windows_classified, 0u);
  EXPECT_NE(r.snapshot_json.find("\"degraded\": true"), std::string::npos);
}

TEST(ServeLoopTest, RejectExactCounts) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  serve::Server server(machine, nullptr,
                       one_client_options(serve::OverloadPolicy::kReject));
  const serve::ServeResult r = server.run(trace);
  EXPECT_EQ(r.samples_admitted, 16u);  // the queue fills once...
  EXPECT_EQ(r.samples_rejected, 84u);  // ...and refuses the rest
  EXPECT_EQ(r.samples_shed, 0u);
  EXPECT_EQ(r.samples_dropped, 0u);
  EXPECT_EQ(r.ticks, 1u);
}

TEST(ServeLoopTest, BlockBackpressureIsLossless) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  serve::Server server(machine, nullptr,
                       one_client_options(serve::OverloadPolicy::kBlock));
  const serve::ServeResult r = server.run(trace);
  // 16 admitted per tick; the remainder is pushed back and re-offered:
  // deferred events 84 + 68 + 52 + 36 + 20 + 4 across 7 ticks.
  EXPECT_EQ(r.samples_admitted, 100u);
  EXPECT_EQ(r.samples_deferred, 264u);
  EXPECT_EQ(r.samples_shed, 0u);
  EXPECT_EQ(r.samples_rejected, 0u);
  EXPECT_EQ(r.samples_dropped, 0u);
  EXPECT_EQ(r.ticks, 7u);
  EXPECT_TRUE(r.drained);
}

void expect_same_client_stats(const serve::ClientStats& a,
                              const serve::ClientStats& b) {
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_cycles, b.backoff_cycles);
  EXPECT_EQ(a.windows_classified, b.windows_classified);
  EXPECT_EQ(a.windows_rmc, b.windows_rmc);
  EXPECT_EQ(a.peak_depth, b.peak_depth);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.quarantined_tick, b.quarantined_tick);
}

TEST(ServeLoopTest, BlockBulkDeferralMatchesPerOfferAdmission) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULTS=OFF";
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = mixed_trace(machine, 800);
  const ml::Classifier model = always_rmc_model();
  for (const int jobs : {1, 4}) {
    serve::ServeOptions opts;
    opts.clients = 4;
    opts.queue_depth = 4;  // ~25 arrivals per client-tick: a deep backlog
    opts.overload = serve::OverloadPolicy::kBlock;
    opts.window_cycles = 500;
    opts.min_window_samples = 1;
    opts.min_remote_samples = 1;
    opts.jobs = jobs;
    // Disarmed, a full queue defers the rest of the backlog in bulk.
    const serve::ServeResult bulk = serve::Server(machine, &model, opts).run(trace);
    serve::ServeResult per_offer;
    {
      // Armed with a site that never fires: every offer is drawn and
      // pushed one at a time.
      const ArmGuard guard("seed=1,serve.ingest:fail:0");
      per_offer = serve::Server(machine, &model, opts).run(trace);
    }
    EXPECT_EQ(bulk.snapshot_json, per_offer.snapshot_json) << "jobs " << jobs;
    EXPECT_GT(bulk.samples_deferred, 10 * trace.samples.size());
    EXPECT_EQ(bulk.samples_admitted, trace.samples.size());
    EXPECT_TRUE(bulk.drained);
    ASSERT_EQ(bulk.clients.size(), per_offer.clients.size());
    for (std::size_t c = 0; c < bulk.clients.size(); ++c) {
      const serve::ClientStats& st = bulk.clients[c];
      expect_same_client_stats(st, per_offer.clients[c]);
      EXPECT_EQ(st.offered, st.admitted + st.deferred + st.rejected + st.dropped);
    }
  }
}

TEST(ServeLoopTest, ClassifiesWindowsWithAModel) {
  const Machine machine = Machine::xeon_e5_4650();
  // Remote traffic: node-1 CPU reading node-0 homed pages (the replay
  // locator homes every recorded allocation on node 0).
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  const ml::Classifier model = always_rmc_model();
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.queue_depth = 64;
  opts.min_window_samples = 1;
  opts.min_remote_samples = 1;
  serve::Server server(machine, &model, opts);
  const serve::ServeResult r = server.run(trace);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.windows_classified, 1u);
  EXPECT_EQ(r.windows_rmc, 1u);  // always-rmc model + a populated channel
  EXPECT_NE(r.snapshot_json.find("\"degraded\": false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Model observability: timeline, confidence, drift
// ---------------------------------------------------------------------------

TEST(ServeModelObsTest, SnapshotCarriesTimelineAndDriftSection) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  const ml::Classifier model = always_rmc_model();
  ASSERT_TRUE(model.has_drift_baseline());
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.queue_depth = 64;
  opts.min_window_samples = 1;
  opts.min_remote_samples = 1;
  serve::Server server(machine, &model, opts);
  const serve::ServeResult r = server.run(trace);
  EXPECT_TRUE(r.drift_available);
  EXPECT_GT(r.confidence_p50, 0.0);
  ASSERT_FALSE(r.timeline.empty());
  EXPECT_EQ(r.timeline[0].windows, 1u);
  EXPECT_NE(r.snapshot_json.find("\"timeline\": ["), std::string::npos);
  EXPECT_NE(r.snapshot_json.find("\"drift\": {"), std::string::npos);
  EXPECT_NE(r.snapshot_json.find("\"confidence_p50\""), std::string::npos);
}

TEST(ServeModelObsTest, ModellessRunsOmitDriftButKeepTheTimelineField) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(64, 0, pebs::MemLevel::kLocalDram);
  serve::Server server(machine, nullptr,
                       one_client_options(serve::OverloadPolicy::kBlock));
  const serve::ServeResult r = server.run(trace);
  EXPECT_FALSE(r.drift_available);
  EXPECT_EQ(r.drift_suspected_clients, 0u);
  // The timeline key is always present (empty here — nothing classified),
  // the drift section only when a baseline-carrying model served.
  EXPECT_NE(r.snapshot_json.find("\"timeline\": []"), std::string::npos);
  EXPECT_EQ(r.snapshot_json.find("\"drift\": {"), std::string::npos);
}

TEST(ServeModelObsTest, DriftThresholdFlagsDivergingClientsDeterministically) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  // always_rmc_model's training distribution (4 synthetic rows) is nothing
  // like the served stream, so the PSI score is large by construction.
  const ml::Classifier model = always_rmc_model();
  const auto run_with = [&](double threshold) {
    serve::ServeOptions opts =
        one_client_options(serve::OverloadPolicy::kBlock);
    opts.queue_depth = 64;
    opts.min_window_samples = 1;
    opts.min_remote_samples = 1;
    opts.drift_threshold = threshold;
    serve::Server server(machine, &model, opts);
    return server.run(trace);
  };
  const serve::ServeResult quiet = run_with(1e9);
  EXPECT_TRUE(quiet.drift_available);
  EXPECT_GT(quiet.drift_score, 0.0);
  EXPECT_EQ(quiet.drift_suspected_clients, 0u);

  const serve::ServeResult loud = run_with(0.001);
  EXPECT_EQ(loud.drift_score, quiet.drift_score);  // score is threshold-free
  EXPECT_EQ(loud.drift_suspected_clients, 1u);
  ASSERT_EQ(loud.model_health.size(), 1u);
  EXPECT_TRUE(loud.model_health[0].drift_suspected);
  EXPECT_NE(loud.snapshot_json.find("\"suspected\": true"),
            std::string::npos);

  // Threshold 0 disables flagging entirely.
  EXPECT_EQ(run_with(0.0).drift_suspected_clients, 0u);
}

// ---------------------------------------------------------------------------
// Shutdown and snapshots
// ---------------------------------------------------------------------------

TEST(ServeLoopTest, MaxCyclesCutsReplayButStillAccountsAndSnapshots) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  const std::string dir = fresh_dir("maxcycles");
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.window_cycles = 10;
  opts.max_cycles = 150;  // cycles run 100..199: exactly half get served
  opts.snapshot_path = dir + "/serve_snapshot.json";
  serve::Server server(machine, nullptr, opts);
  const serve::ServeResult r = server.run(trace);
  EXPECT_FALSE(r.drained);
  EXPECT_EQ(r.samples_admitted, 50u);
  EXPECT_EQ(r.samples_dropped, 50u);
  EXPECT_EQ(r.samples_admitted + r.samples_dropped, r.samples_in);
  EXPECT_EQ(r.ticks, 15u);
  // Drain-on-shutdown: the final snapshot is still written and validates.
  EXPECT_EQ(r.snapshots_written, 1u);
  const util::VersionedArtifact art = util::read_versioned_artifact(
      opts.snapshot_path, "serve-snapshot", serve::kServeSnapshotVersion,
      util::LoadPolicy{});
  EXPECT_FALSE(art.legacy);
  EXPECT_EQ(art.body, r.snapshot_json);
  EXPECT_NE(art.body.find("\"drained\": false"), std::string::npos);
}

TEST(ServeLoopTest, SnapshotEveryRewritesPeriodically) {
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(40, 0, pebs::MemLevel::kLocalDram);
  const std::string dir = fresh_dir("periodic");
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.snapshot_path = dir + "/serve_snapshot.json";
  opts.snapshot_every = 1;
  serve::Server server(machine, nullptr, opts);
  const serve::ServeResult r = server.run(trace);
  // 40 samples through a depth-16 queue: 3 ticks (16 + 16 + 8), one
  // periodic snapshot per tick plus the final one.
  EXPECT_EQ(r.ticks, 3u);
  EXPECT_EQ(r.samples_admitted, 40u);
  EXPECT_EQ(r.samples_deferred, 32u);  // 24 + 8 push-back events
  EXPECT_EQ(r.snapshots_written, 4u);
}

// ---------------------------------------------------------------------------
// Fault sites, retries, and the circuit breaker
// ---------------------------------------------------------------------------

TEST(ServeFaultTest, IngestDropsMatchIndependentDirectDraws) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULTS=OFF";
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  for (const char* rate : {"0.25", "0.5", "1"}) {
    const ArmGuard guard(std::string("seed=3,serve.ingest:drop:") + rate);
    // The serve.ingest drop decision is keyed by the sample's global trace
    // ordinal, so re-drawing the same keys here must reproduce the run's
    // drop set exactly — independent of queues, ticks, or jobs.
    std::uint64_t expected_drops = 0;
    for (std::uint64_t i = 0; i < 100; ++i) {
      if (fault::should_inject("serve.ingest", fault::Kind::kDropSample, i)) {
        ++expected_drops;
      }
    }
    serve::Server server(machine, nullptr,
                         one_client_options(serve::OverloadPolicy::kReject));
    const serve::ServeResult r = server.run(trace);
    EXPECT_EQ(r.samples_dropped, expected_drops) << "rate " << rate;
    const std::uint64_t live = 100 - expected_drops;
    EXPECT_EQ(r.samples_admitted, std::min<std::uint64_t>(16, live));
    EXPECT_EQ(r.samples_rejected, live - r.samples_admitted);
  }
  {  // rate 1: every sample drops, nothing reaches the queue
    const ArmGuard guard("seed=3,serve.ingest:drop:1");
    serve::Server server(machine, nullptr,
                         one_client_options(serve::OverloadPolicy::kReject));
    const serve::ServeResult r = server.run(trace);
    EXPECT_EQ(r.samples_dropped, 100u);
    EXPECT_EQ(r.samples_admitted, 0u);
  }
}

TEST(ServeFaultTest, BreakerTripsAtExactlyTheConsecutiveThreshold) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULTS=OFF";
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  const ArmGuard guard("seed=1,serve.session:fail:1");
  for (const int k : {3, 4}) {
    serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
    opts.max_retries = 0;
    opts.breaker_threshold = k;
    serve::Server server(machine, nullptr, opts);
    const serve::ServeResult r = server.run(trace);
    // One session fault per tick; the k-th consecutive one quarantines the
    // client and discards its whole pending stream.
    EXPECT_EQ(r.faults, static_cast<std::uint64_t>(k));
    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.ticks, static_cast<std::uint64_t>(k));
    EXPECT_EQ(r.quarantined_clients, 1u);
    ASSERT_EQ(r.clients.size(), 1u);
    EXPECT_TRUE(r.clients[0].quarantined);
    EXPECT_EQ(r.clients[0].quarantined_tick, static_cast<std::uint64_t>(k - 1));
    EXPECT_EQ(r.samples_admitted, 0u);
    EXPECT_EQ(r.samples_dropped, 100u);
  }
}

TEST(ServeFaultTest, RetriesAccrueExactDeterministicBackoff) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULTS=OFF";
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = flat_trace(100, 0, pebs::MemLevel::kLocalDram);
  const ArmGuard guard("seed=1,serve.session:fail:1");
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.max_retries = 2;
  opts.backoff_cycles = 100;
  opts.breaker_threshold = 3;
  serve::Server server(machine, nullptr, opts);
  const serve::ServeResult r = server.run(trace);
  // Each of the 3 session gates burns 2 retries at 100 + 200 backoff cycles.
  EXPECT_EQ(r.faults, 3u);
  EXPECT_EQ(r.retries, 6u);
  ASSERT_EQ(r.clients.size(), 1u);
  EXPECT_EQ(r.clients[0].backoff_cycles, 900u);
}

TEST(ServeFaultTest, JobsCountLeavesResultsByteIdentical) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULTS=OFF";
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace = mixed_trace(machine, 200);
  const ml::Classifier model = always_rmc_model();
  const ArmGuard guard(
      "seed=5,serve.ingest:drop:0.05,serve.session:fail:0.02,"
      "serve.window:fail:0.02,serve.classify:fail:0.02");
  serve::ServeResult results[2];
  const int jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    serve::ServeOptions opts;
    opts.clients = 4;
    opts.queue_depth = 8;
    opts.overload = serve::OverloadPolicy::kShedOldest;
    opts.drain_per_tick = 4;
    opts.min_window_samples = 1;
    opts.min_remote_samples = 1;
    opts.jobs = jobs[i];
    serve::Server server(machine, &model, opts);
    results[i] = server.run(trace);
  }
  EXPECT_EQ(results[0].snapshot_json, results[1].snapshot_json);
  EXPECT_GT(results[0].windows_classified, 0u);
  EXPECT_EQ(results[0].faults, results[1].faults);
  EXPECT_EQ(results[0].retries, results[1].retries);
  EXPECT_EQ(results[0].samples_dropped, results[1].samples_dropped);
  EXPECT_EQ(results[0].ticks, results[1].ticks);
}

// ---------------------------------------------------------------------------
// Observable-name contract for the serve layer
// ---------------------------------------------------------------------------

TEST(ServeObsTest, EveryServeMetricAndSpanIsEmitted) {
  obs::Trace::instance().clear();
  obs::Trace::instance().enable(obs::TimingMode::kSim);
  const Machine machine = Machine::xeon_e5_4650();
  const pebs::Trace trace =
      flat_trace(64, machine.cpus_of_node(1)[0], pebs::MemLevel::kRemoteDram);
  const ml::Classifier model = always_rmc_model();
  const std::string dir = fresh_dir("obs");
  serve::ServeOptions opts = one_client_options(serve::OverloadPolicy::kBlock);
  opts.min_window_samples = 1;
  opts.min_remote_samples = 1;
  opts.snapshot_path = dir + "/serve_snapshot.json";
  serve::Server server(machine, &model, opts);
  (void)server.run(trace);

  const std::string metrics =
      obs::Registry::global().prometheus_text(/*include_diagnostic=*/true);
  const char* const kServeMetricNames[] = {
      "drbw_serve_samples_ingested_total",
      "drbw_serve_samples_admitted_total",
      "drbw_serve_samples_shed_total",
      "drbw_serve_samples_rejected_total",
      "drbw_serve_samples_deferred_total",
      "drbw_serve_samples_dropped_total",
      "drbw_serve_windows_classified_total",
      "drbw_serve_windows_rmc_total",
      "drbw_serve_ticks_total",
      "drbw_serve_faults_total",
      "drbw_serve_retries_total",
      "drbw_serve_clients_quarantined_total",
      "drbw_serve_queue_depth_peak",
      // Model observability (always_rmc_model carries a drift baseline).
      "drbw_model_confidence_bucket",
      "drbw_model_drift_score"};
  for (const char* name : kServeMetricNames) {
    EXPECT_NE(metrics.find(name), std::string::npos)
        << "metric '" << name << "' missing from the registry export";
  }

  const std::string trace_json = obs::Trace::instance().to_json();
  obs::Trace::instance().disable();
  obs::Trace::instance().clear();
  for (const char* name : {"serve.tick", "serve.snapshot"}) {
    EXPECT_NE(trace_json.find(std::string("\"") + name + "\""),
              std::string::npos)
        << "span '" << name << "' missing from the structured trace";
  }
}

// ---------------------------------------------------------------------------
// End to end through the real CLI binary, plus doctor/fleet read-back
// ---------------------------------------------------------------------------

/// Shared CLI fixtures, built once: a recorded trace, a saved model, and a
/// corpus of three serve runs (jobs 1, jobs 4, degraded) for the fleet and
/// doctor assertions.
struct CliWorld {
  bool ok = false;
  std::string dir;
  std::string trace;
  std::string model;
  std::string corpus;
};

const CliWorld& cli_world() {
  static const CliWorld world = [] {
    CliWorld w;
    w.dir = fresh_dir("cli");
    w.trace = w.dir + "/trace.csv";
    w.model = w.dir + "/model.json";
    w.corpus = w.dir + "/corpus";
    always_rmc_model().save(w.model);
    if (run_cli("record --benchmark streamcluster --config T8-N4 --seed 7 "
                "--out " +
                w.trace + " --run-dir " + w.dir + "/record_corpus/rec") != 0) {
      return w;
    }
    const std::string common = "serve --replay " + w.trace + " --clients 2 " +
                               "--queue-depth 32 --overload shed-oldest ";
    if (run_cli(common + "--model " + w.model + " --jobs 1 --run-dir " +
                w.corpus + "/jobs1") != 0) {
      return w;
    }
    if (run_cli(common + "--model " + w.model + " --jobs 4 --run-dir " +
                w.corpus + "/jobs4") != 0) {
      return w;
    }
    // A missing model file must degrade the run, not fail it.
    if (run_cli(common + "--model " + w.dir + "/no_such_model.json" +
                " --run-dir " + w.corpus + "/degraded") != 0) {
      return w;
    }
    w.ok = true;
    return w;
  }();
  return world;
}

TEST(ServeCliTest, WritesProvenanceAndSnapshot) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string run = w.corpus + "/jobs1";
  ASSERT_TRUE(std::filesystem::exists(run + "/run.json"));
  const std::string manifest = read_file(run + "/run.json");
  EXPECT_NE(manifest.find("\"subcommand\": \"serve\""), std::string::npos);
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(manifest.find("\"degraded\": true"), std::string::npos);
  if (obs::kEnabled) {
    EXPECT_TRUE(std::filesystem::exists(run + "/flight.log"));
  }
  // The default snapshot lands in the run dir and validates as a v1
  // serve-snapshot artifact.
  const util::VersionedArtifact art = util::read_versioned_artifact(
      run + "/serve_snapshot.json", "serve-snapshot",
      serve::kServeSnapshotVersion, util::LoadPolicy{});
  EXPECT_FALSE(art.legacy);
  EXPECT_NE(art.body.find("\"drained\": true"), std::string::npos);
}

TEST(ServeCliTest, SnapshotIsByteIdenticalAcrossJobs) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string a = read_file(w.corpus + "/jobs1/serve_snapshot.json");
  const std::string b = read_file(w.corpus + "/jobs4/serve_snapshot.json");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ServeCliTest, MissingOrCorruptModelDegradesWithExitZero) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string manifest = read_file(w.corpus + "/degraded/run.json");
  EXPECT_NE(manifest.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(manifest.find("\"status\": \"ok\""), std::string::npos);
  // Degraded runs cannot measure drift: the manifest says so, the snapshot
  // simply omits the drift section.
  EXPECT_NE(manifest.find("\"drift\": \"unavailable\""), std::string::npos);
  const std::string snapshot =
      read_file(w.corpus + "/degraded/serve_snapshot.json");
  EXPECT_NE(snapshot.find("\"degraded\": true"), std::string::npos);
  EXPECT_EQ(snapshot.find("\"drift\": {"), std::string::npos);

  // Corrupt model body: same contract, exercised end to end.
  const std::string corrupt = w.dir + "/corrupt_model.json";
  {
    std::ofstream out(corrupt, std::ios::binary | std::ios::trunc);
    out << "this is not a model";
  }
  const std::string run = w.dir + "/corrupt_run";
  ASSERT_EQ(run_cli("serve --replay " + w.trace + " --clients 2 --model " +
                    corrupt + " --run-dir " + run),
            0);
  const std::string corrupt_manifest = read_file(run + "/run.json");
  EXPECT_NE(corrupt_manifest.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(corrupt_manifest.find("\"drift\": \"unavailable\""),
            std::string::npos);
}

TEST(ServeCliTest, V2ModelServesWithDriftCleanlyDisabled) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  // A v2-era artifact: same tree, no embedded drift baseline.
  Json doc = always_rmc_model().to_json();
  JsonObject& fields = doc.as_object();
  fields.erase(std::remove_if(fields.begin(), fields.end(),
                              [](const auto& field) {
                                return field.first == "drift_baseline";
                              }),
               fields.end());
  const std::string v2_model = w.dir + "/v2_model.json";
  util::write_versioned_artifact(v2_model, "model", 2, doc.dump() + "\n");
  const std::string run = w.dir + "/v2_run";
  ASSERT_EQ(run_cli("serve --replay " + w.trace + " --clients 2 --model " +
                    v2_model + " --drift-threshold 5 --run-dir " + run),
            0);
  // Not degraded — the model classifies fine — but drift is unavailable:
  // the manifest records it, the snapshot omits the section, and the
  // classified timeline is still there.
  const std::string manifest = read_file(run + "/run.json");
  EXPECT_EQ(manifest.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(manifest.find("\"drift\": \"unavailable\""), std::string::npos);
  const std::string snapshot = read_file(run + "/serve_snapshot.json");
  EXPECT_EQ(snapshot.find("\"drift\": {"), std::string::npos);
  EXPECT_NE(snapshot.find("\"timeline\": ["), std::string::npos);

  // doctor surfaces the gap with re-train advice.
  const report::DoctorReport report = report::doctor(run);
  bool saw_unavailable = false;
  for (const report::Finding& f : report.findings) {
    if (f.title.find("drift detection unavailable") != std::string::npos) {
      saw_unavailable = true;
      EXPECT_NE(f.advice.find("drbw train"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_unavailable) << render_doctor(report);
}

TEST(ServeCliTest, DriftThresholdRaisesDoctorVisibleFinding) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  // always_rmc_model's synthetic baseline vs a real recorded stream: PSI is
  // large, so a small threshold plants a deterministic DriftSuspected.
  const std::string run = w.dir + "/drift_run";
  ASSERT_EQ(run_cli("serve --replay " + w.trace + " --clients 2 --model " +
                    w.model + " --drift-threshold 0.5 --run-dir " + run),
            0);
  const std::string manifest = read_file(run + "/run.json");
  EXPECT_NE(manifest.find("\"drift\": \"suspected\""), std::string::npos);
  const std::string snapshot = read_file(run + "/serve_snapshot.json");
  EXPECT_NE(snapshot.find("\"suspected\": true"), std::string::npos);
  const report::DoctorReport report = report::doctor(run);
  bool saw_drift = false;
  for (const report::Finding& f : report.findings) {
    if (f.title.find("DriftSuspected") != std::string::npos) {
      saw_drift = true;
      EXPECT_NE(f.advice.find("--drift-threshold"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_drift) << render_doctor(report);
}

TEST(ServeCliTest, DoctorExplainsDegradedAndOverflowedRuns) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const report::DoctorReport degraded = report::doctor(w.corpus + "/degraded");
  bool saw_degraded = false;
  for (const report::Finding& f : degraded.findings) {
    if (f.title.find("DEGRADED") != std::string::npos) saw_degraded = true;
  }
  EXPECT_TRUE(saw_degraded) << render_doctor(degraded);

  // shed-oldest at depth 32 over ~10k samples overflows by construction.
  const report::DoctorReport overflowed = report::doctor(w.corpus + "/jobs1");
  bool saw_overflow = false;
  for (const report::Finding& f : overflowed.findings) {
    if (f.title.find("ingest queues overflowed") != std::string::npos) {
      saw_overflow = true;
      EXPECT_NE(f.advice.find("--queue-depth"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_overflow) << render_doctor(overflowed);
}

TEST(ServeCliTest, DoctorExplainsQuarantinedClients) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULTS=OFF";
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const std::string run = w.dir + "/quarantine_run";
  ASSERT_EQ(
      run_cli("serve --replay " + w.trace + " --clients 2 --model " + w.model +
              " --max-retries 0 --inject-faults 'seed=1,serve.session:fail:1'"
              " --run-dir " + run),
      0);
  const std::string snapshot = read_file(run + "/serve_snapshot.json");
  EXPECT_NE(snapshot.find("\"quarantined_clients\": 2"), std::string::npos);
  const report::DoctorReport report = report::doctor(run);
  bool saw_breaker = false;
  for (const report::Finding& f : report.findings) {
    if (f.title.find("quarantined by the circuit breaker") !=
        std::string::npos) {
      saw_breaker = true;
      EXPECT_NE(f.advice.find("--breaker-threshold"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_breaker) << render_doctor(report);
}

TEST(ServeFleetTest, AggregatesServeRunsIntoTheServeSection) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const report::FleetReport fleet =
      report::fleet_scan(w.corpus, report::FleetOptions{});
  EXPECT_EQ(fleet.serve_runs, 3u);
  EXPECT_EQ(fleet.serve_degraded_runs, 1u);
  EXPECT_EQ(fleet.serve_snapshots_missing, 0u);
  EXPECT_GT(fleet.serve_shed, 0u);  // shed-oldest at depth 32 overflows
  EXPECT_EQ(fleet.serve_clients.size(), 6u);  // 3 runs x 2 clients
  const std::string markdown = report::render_fleet_markdown(fleet);
  EXPECT_NE(markdown.find("## Serve"), std::string::npos);
  EXPECT_NE(markdown.find("degraded"), std::string::npos);
  const std::string json = report::render_fleet_json(fleet);
  EXPECT_NE(json.find("\"serve\":"), std::string::npos);
}

TEST(ServeFleetTest, AggregatesModelHealthAcrossServeRuns) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const report::FleetReport fleet =
      report::fleet_scan(w.corpus, report::FleetOptions{});
  // jobs1 + jobs4 served with a baseline-carrying model; degraded did not.
  EXPECT_EQ(fleet.model_health_runs, 2u);
  EXPECT_EQ(fleet.drift_unavailable_runs, 1u);
  EXPECT_EQ(fleet.model_health.size(), 4u);  // 2 runs x 2 clients
  ASSERT_TRUE(fleet.has_model_health);
  EXPECT_GT(fleet.max_drift, 0.0);
  EXPECT_FALSE(fleet.max_drift_dir.empty());
  EXPECT_GE(fleet.min_confidence, 0.5);
  const std::string markdown = report::render_fleet_markdown(fleet);
  EXPECT_NE(markdown.find("## Model health"), std::string::npos);
  EXPECT_NE(markdown.find("lowest confidence"), std::string::npos);
  const std::string json = report::render_fleet_json(fleet);
  EXPECT_NE(json.find("\"model_health\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_drift\":"), std::string::npos);
}

TEST(ServeFleetTest, CorporaWithoutServeRunsRenderNoServeSection) {
  const CliWorld& w = cli_world();
  ASSERT_TRUE(w.ok) << "CLI fixture runs failed";
  const report::FleetReport fleet =
      report::fleet_scan(w.dir + "/record_corpus", report::FleetOptions{});
  EXPECT_EQ(fleet.serve_runs, 0u);
  const std::string markdown = report::render_fleet_markdown(fleet);
  EXPECT_EQ(markdown.find("## Serve"), std::string::npos);
  EXPECT_EQ(markdown.find("## Model health"), std::string::npos);
  const std::string json = report::render_fleet_json(fleet);
  EXPECT_EQ(json.find("\"serve\":"), std::string::npos);
  EXPECT_EQ(json.find("\"model_health\":"), std::string::npos);
}

}  // namespace
}  // namespace drbw
