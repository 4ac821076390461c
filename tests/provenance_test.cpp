// Provenance & post-mortem loop: run manifests, the flight recorder, and
// the doctor / perf-diff tooling (ISSUE 5).
//
// Pins the contract end to end:
//   * manifests and flight dumps are byte-identical at --jobs 1 vs 4 apart
//     from the checksummed header line and the "jobs": context line,
//   * a manifest survives a CRC round-trip through the artifact layer,
//   * every typed CLI failure (66/67/68/69/70) still leaves a loadable
//     manifest + flight dump that `drbw doctor` parses into a diagnosis
//     naming the failing code,
//   * perf_diff flags regressions past the threshold and `drbw perf diff`
//     exits 3 on them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/manifest.hpp"
#include "drbw/report/postmortem.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"

namespace drbw {
namespace {

const std::string kDataDir = DRBW_TEST_DATA_DIR;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Strips the two lines the manifest contract allows to differ between
/// --jobs values: the checksummed header and the "jobs": context line.
std::string golden_view(const std::string& manifest_text) {
  std::ostringstream out;
  std::istringstream in(manifest_text);
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "#drbw-manifest")) continue;
    if (line.find("\"jobs\":") != std::string::npos) continue;
    out << line << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// In-process: flight recorder

TEST(FlightRecorderTest, RecordsSortsAndDumps) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with -DDRBW_OBS=OFF";
  auto& flight = obs::FlightRecorder::instance();
  flight.enable(16);
  flight.note("stage", "load");
  flight.note("quarantine", "trace.csv", 42);
  const std::string dump = flight.dump();
  flight.disable();
  EXPECT_NE(dump.find("track,seq,ts,value,tag,detail"), std::string::npos);
  EXPECT_NE(dump.find("stage,load"), std::string::npos);
  EXPECT_NE(dump.find("42,quarantine,trace.csv"), std::string::npos);
  EXPECT_EQ(flight.enabled(), false);
}

TEST(FlightRecorderTest, BoundedRingCountsDrops) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with -DDRBW_OBS=OFF";
  auto& flight = obs::FlightRecorder::instance();
  flight.enable(4);
  for (std::uint64_t i = 0; i < 10; ++i) flight.note("e", "x", i);
  EXPECT_EQ(flight.event_count(), 4u);
  EXPECT_EQ(flight.dropped(), 6u);
  flight.disable();
}

TEST(FlightRecorderTest, DisabledRecorderIsANoOp) {
  auto& flight = obs::FlightRecorder::instance();
  flight.disable();
  flight.clear();  // the process-wide recorder may hold earlier tests' events
  flight.note("stage", "ignored");
  EXPECT_FALSE(flight.enabled());
  EXPECT_EQ(flight.event_count(), 0u);
}

TEST(FlightRecorderTest, FaultFiresLeaveBreadcrumbs) {
  if (!obs::kEnabled || !fault::kEnabled) {
    GTEST_SKIP() << "built with obs or fault compiled out";
  }
  auto& flight = obs::FlightRecorder::instance();
  flight.enable(64);
  fault::Injector::global().arm(
      fault::Plan::parse("seed=1,pebs.sample:drop:1"));
  (void)fault::should_inject("pebs.sample", fault::Kind::kDropSample, 7);
  fault::Injector::global().disarm();
  const std::string dump = flight.dump();
  flight.disable();
  EXPECT_NE(dump.find("fault,pebs.sample:drop"), std::string::npos);
}

// ---------------------------------------------------------------------------
// In-process: manifest round-trip

obs::RunManifest sample_manifest() {
  obs::RunManifest m;
  m.subcommand = "analyze";
  m.config = {{"load-mode", "lenient"}, {"trace", "t.csv"}};
  m.fault_spec = "seed=3,trace.read:corrupt:0.5";
  m.inputs.push_back(obs::ArtifactRef{"trace-in", "t.csv", "trace", 2,
                                      0xdeadbeefu, 1234});
  m.has_load_stats = true;
  m.records_seen = 100;
  m.records_ok = 90;
  m.records_quarantined = 10;
  m.checksum_ok = false;
  m.fault_fires = {{"trace.read:corrupt", 10}};
  m.spans.push_back(obs::SpanStat{"phase:main", 1, 5000, 5000});
  m.status = "error";
  m.error_code = "corrupt-artifact";
  m.exit_code = 68;
  m.message = "too damaged";
  m.jobs = 4;
  return m;
}

TEST(ManifestTest, WriteLoadRoundTripsThroughChecksummedHeader) {
  const std::string path = testing::TempDir() + "/prov_manifest.json";
  sample_manifest().write(path);

  // The artifact layer validates the CRC on the way back in.
  const auto artifact = util::read_versioned_artifact(
      path, "manifest", obs::kManifestVersion, util::LoadPolicy{});
  EXPECT_FALSE(artifact.legacy);
  EXPECT_TRUE(artifact.header.has_checksum);

  const report::ManifestData m = report::load_manifest(path);
  EXPECT_EQ(m.subcommand, "analyze");
  EXPECT_EQ(m.fault_spec, "seed=3,trace.read:corrupt:0.5");
  EXPECT_EQ(m.status, "error");
  EXPECT_EQ(m.error_code, "corrupt-artifact");
  EXPECT_EQ(m.exit_code, 68);
  EXPECT_EQ(m.message, "too damaged");
  ASSERT_TRUE(m.has_load);
  EXPECT_EQ(m.records_seen, 100u);
  EXPECT_EQ(m.records_quarantined, 10u);
  EXPECT_FALSE(m.checksum_ok);
  ASSERT_EQ(m.fault_fires.size(), 1u);
  EXPECT_EQ(m.fault_fires[0].first, "trace.read:corrupt");
  EXPECT_EQ(m.fault_fires[0].second, 10u);
  ASSERT_EQ(m.spans.size(), 1u);
  EXPECT_EQ(m.spans[0].name, "phase:main");
  EXPECT_EQ(m.spans[0].total_dur, 5000u);
  ASSERT_EQ(m.inputs.size(), 1u);
  EXPECT_EQ(m.inputs[0].crc, 0xdeadbeefu);
  EXPECT_EQ(m.jobs, 4);
}

TEST(ManifestTest, CorruptedManifestIsRejected) {
  const std::string path = testing::TempDir() + "/prov_damaged.json";
  sample_manifest().write(path);
  std::string text = read_file(path);
  text[text.size() / 2] ^= 0x20;  // damage the body, not the header
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(
      {
        try {
          report::load_manifest(path);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kCorruptArtifact);
          throw;
        }
      },
      Error);
}

TEST(ManifestTest, DoctorRanksInjectedFaultFirst) {
  const std::string dir = testing::TempDir() + "/prov_doctor_run";
  std::filesystem::create_directories(dir);
  obs::RunManifest m = sample_manifest();
  m.status = "error";
  m.error_code = "fault-injected";
  m.exit_code = 70;
  m.message = "injected diagnoser failure";
  m.write(dir + "/" + obs::kManifestFileName);

  const report::DoctorReport rep = report::doctor(dir);
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_EQ(rep.findings[0].rank, 1);
  EXPECT_NE(rep.findings[0].title.find("injected fault"), std::string::npos);
  EXPECT_NE(rep.findings[0].evidence.find("trace.read:corrupt"),
            std::string::npos);
  const std::string rendered = report::render_doctor(rep);
  EXPECT_NE(rendered.find("fault-injected"), std::string::npos);
  EXPECT_NE(rendered.find("exit 70"), std::string::npos);
}

// ---------------------------------------------------------------------------
// In-process: perf diff

report::ManifestData perf_fixture(double span_dur, double counter_val) {
  report::ManifestData m;
  m.spans.push_back(obs::SpanStat{
      "phase:main", 1, static_cast<std::uint64_t>(span_dur),
      static_cast<std::uint64_t>(span_dur)});
  m.counters.emplace_back("drbw_sim_epochs_total", counter_val);
  return m;
}

TEST(PerfDiffTest, FlagsRegressionsPastThresholdOnly) {
  const auto before = perf_fixture(1000.0, 50.0);
  // +20% span, +50% counter: only the counter crosses a 0.25 threshold.
  const auto after = perf_fixture(1200.0, 75.0);
  const report::PerfDiff diff = report::perf_diff(before, after, 0.25);
  ASSERT_EQ(diff.rows.size(), 2u);
  EXPECT_TRUE(diff.regressed);
  // Regressions sort first.
  EXPECT_EQ(diff.rows[0].name, "drbw_sim_epochs_total");
  EXPECT_TRUE(diff.rows[0].regression);
  EXPECT_DOUBLE_EQ(diff.rows[0].ratio, 1.5);
  EXPECT_FALSE(diff.rows[1].regression);

  // A looser threshold accepts both.
  EXPECT_FALSE(report::perf_diff(before, after, 0.6).regressed);
  // Identical manifests never regress.
  EXPECT_FALSE(report::perf_diff(before, before, 0.0).regressed);
}

TEST(PerfDiffTest, ImprovementsAndZeroBaselinesNeverRegress) {
  const auto before = perf_fixture(1000.0, 50.0);
  const auto faster = perf_fixture(100.0, 5.0);
  EXPECT_FALSE(report::perf_diff(before, faster, 0.25).regressed);
  // before == 0 cannot define a ratio; treated as non-comparable, not a
  // regression.
  const auto zero = perf_fixture(0.0, 0.0);
  EXPECT_FALSE(report::perf_diff(zero, before, 0.25).regressed);
}

#ifdef DRBW_CLI_PATH

// ---------------------------------------------------------------------------
// End-to-end through the real binary

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(DRBW_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// A fresh run directory under the test temp root.
std::string make_run_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/prov_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ProvenanceCliTest, ManifestAndFlightAreJobsIndependent) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with -DDRBW_OBS=OFF";
  const std::string d1 = make_run_dir("jobs1");
  const std::string d4 = make_run_dir("jobs4");
  const std::string model = testing::TempDir() + "/prov_model.json";
  ASSERT_EQ(run_cli("train --jobs 1 --out " + model + " --run-dir " + d1), 0);
  ASSERT_EQ(run_cli("train --jobs 4 --out " + model + " --run-dir " + d4), 0);

  // Flight dumps: byte-identical, full file including the header.
  EXPECT_EQ(read_file(d1 + "/" + obs::kFlightFileName),
            read_file(d4 + "/" + obs::kFlightFileName));

  // Manifests: identical apart from the header + "jobs": lines.
  const std::string m1 = read_file(d1 + "/" + obs::kManifestFileName);
  const std::string m4 = read_file(d4 + "/" + obs::kManifestFileName);
  EXPECT_EQ(golden_view(m1), golden_view(m4));
  EXPECT_NE(m1, m4);  // the jobs line itself must differ

  // The ring never wrapped, so the last-N selection was total.
  const report::ManifestData parsed =
      report::load_manifest(d1 + "/" + obs::kManifestFileName);
  const Json* context = parsed.document.find("context");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->at("flight_dropped").as_int(), 0);
  EXPECT_GT(context->at("flight_events").as_int(), 0);
}

struct CorpusCase {
  const char* file;
  const char* extra_flags;
  int exit_code;
  const char* error_code;
};

TEST(ProvenanceCliTest, EveryTypedFailureLeavesADiagnosableRunDir) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with -DDRBW_OBS=OFF";
  // One corpus file (or synthetic condition) per typed exit code.
  const std::vector<CorpusCase> cases = {
      {"/nonexistent/trace.csv", "", 66, "not-found"},
      {"midrecord_trace.csv", "", 67, "parse-error"},
      {"truncated_trace.csv", "", 68, "corrupt-artifact"},
      {"wrong_version_trace.csv", "", 69, "version-skew"},
  };
  for (const CorpusCase& c : cases) {
    const std::string dir = make_run_dir(std::string("code") +
                                         std::to_string(c.exit_code));
    const std::string trace = c.file[0] == '/' ? c.file
                                               : kDataDir + "/" + c.file;
    EXPECT_EQ(run_cli("analyze --trace " + trace + " " + c.extra_flags +
                      " --run-dir " + dir),
              c.exit_code)
        << c.file;
    const report::DoctorReport rep = report::doctor(dir);
    EXPECT_EQ(rep.manifest.status, "error") << c.file;
    EXPECT_EQ(rep.manifest.error_code, c.error_code) << c.file;
    EXPECT_EQ(rep.manifest.exit_code, c.exit_code) << c.file;
    EXPECT_FALSE(rep.findings.empty()) << c.file;
    // And the CLI's own doctor agrees (exit 0 on a successful diagnosis).
    EXPECT_EQ(run_cli("doctor " + dir), 0) << c.file;
  }
}

TEST(ProvenanceCliTest, InjectedFaultExitsSeventyAndDoctorNamesTheSite) {
  if (!obs::kEnabled || !fault::kEnabled) {
    GTEST_SKIP() << "built with obs or fault compiled out";
  }
  const std::string dir = make_run_dir("injected");
  const std::string trace = testing::TempDir() + "/prov_fault_trace.csv";
  ASSERT_EQ(run_cli("record --config T4-N2 --out " + trace + " --run-dir " +
                    make_run_dir("rec_for_fault")),
            0);
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --report " + testing::TempDir() + "/prov_unused.md"
                    " --inject-faults seed=1,report.render:fail:1"
                    " --run-dir " + dir),
            70);
  const report::DoctorReport rep = report::doctor(dir);
  EXPECT_EQ(rep.manifest.error_code, "fault-injected");
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_NE(rep.findings[0].evidence.find("report.render"),
            std::string::npos);
  EXPECT_EQ(run_cli("doctor " + dir), 0);
}

TEST(ProvenanceCliTest, LenientCapBoundaryIsExact) {
  // malformed_records_trace.csv: 10 records, 2 malformed — the quarantined
  // fraction is exactly 0.2, and escalation is strictly `>` the cap.
  const std::string trace = kDataDir + "/malformed_records_trace.csv";
  const std::string at_cap = make_run_dir("cap_at");
  const std::string below = make_run_dir("cap_below");
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --load-mode lenient --max-bad-fraction 0.2 --run-dir " +
                    at_cap),
            0);
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --load-mode lenient --max-bad-fraction 0.19 --run-dir " +
                    below),
            68);
  if (obs::kEnabled) {
    const report::ManifestData ok =
        report::load_manifest(at_cap + "/" + obs::kManifestFileName);
    EXPECT_EQ(ok.status, "ok");
    EXPECT_EQ(ok.records_quarantined, 2u);
    const report::ManifestData bad =
        report::load_manifest(below + "/" + obs::kManifestFileName);
    EXPECT_EQ(bad.error_code, "corrupt-artifact");
    EXPECT_EQ(bad.records_quarantined, 2u);
  }
}

TEST(ProvenanceCliTest, PerfDiffGateExitsThreeOnRegression) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with -DDRBW_OBS=OFF";
  const std::string a = testing::TempDir() + "/prov_perf_a.json";
  const std::string b = testing::TempDir() + "/prov_perf_b.json";
  obs::RunManifest before = sample_manifest();
  before.status = "ok";
  before.error_code.clear();
  before.exit_code = 0;
  before.spans = {obs::SpanStat{"phase:main", 1, 1000, 1000}};
  before.write(a);
  obs::RunManifest after = before;
  after.spans = {obs::SpanStat{"phase:main", 1, 2000, 2000}};
  after.write(b);

  EXPECT_EQ(run_cli("perf diff " + a + " " + a), 0);
  EXPECT_EQ(run_cli("perf diff " + a + " " + b), 3);          // +100% > 25%
  EXPECT_EQ(run_cli("perf diff " + a + " " + b + " --threshold 2.0"), 0);
  EXPECT_EQ(run_cli("perf diff " + a), 64);                   // one manifest
  EXPECT_EQ(run_cli("perf diff " + a + " " + b + " --threshold x"), 64);

  // Baseline vs *each* comparison manifest: one regressing run anywhere in
  // the list gates the whole invocation.
  EXPECT_EQ(run_cli("perf diff " + a + " " + a + " " + a), 0);
  EXPECT_EQ(run_cli("perf diff " + a + " " + a + " " + b), 3);
  EXPECT_EQ(run_cli("perf diff " + a + " " + b + " " + a), 3);
  EXPECT_EQ(run_cli("perf diff " + a + " " + a + " " + b + " --threshold 2.0"),
            0);
}

TEST(ProvenanceCliTest, ExpectTraceVersionPinGatesBinaryTraces) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with -DDRBW_OBS=OFF";
  const std::string trace = testing::TempDir() + "/prov_pin_trace.bin";
  ASSERT_EQ(run_cli("record --config T4-N2 --format binary --out " + trace +
                    " --run-dir " + make_run_dir("rec_pin")),
            0);
  // A strict v2-only consumer meets a v3 binary trace: version skew, and
  // the run dir diagnoses it with re-record/convert advice.
  const std::string dir = make_run_dir("pin69");
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --expect-trace-version 2 --run-dir " + dir),
            69);
  const report::DoctorReport rep = report::doctor(dir);
  EXPECT_EQ(rep.manifest.error_code, "version-skew");
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_NE(rep.findings[0].advice.find("convert"), std::string::npos);
  EXPECT_EQ(run_cli("doctor " + dir), 0);
  // Pinning the version the trace actually has succeeds.
  const int ok = run_cli("analyze --trace " + trace +
                         " --expect-trace-version 3 --run-dir " +
                         make_run_dir("pin_ok"));
  EXPECT_TRUE(ok == 0 || ok == 2) << ok;  // 2 = contention detected
  // Pins outside the supported range are usage errors.
  EXPECT_EQ(run_cli("analyze --trace " + trace +
                    " --expect-trace-version 4 --run-dir " +
                    make_run_dir("pin_bad")),
            64);
}

TEST(ProvenanceCliTest, ConvertRoundTripsFormatsByteExactly) {
  const std::string csv = testing::TempDir() + "/prov_cv.csv";
  const std::string bin = testing::TempDir() + "/prov_cv.bin";
  const std::string back = testing::TempDir() + "/prov_cv_back.csv";
  ASSERT_EQ(run_cli("record --config T4-N2 --out " + csv + " --run-dir " +
                    make_run_dir("rec_cv")),
            0);
  ASSERT_EQ(run_cli("convert --in " + csv + " --out " + bin +
                    " --format binary --shards 3 --jobs 2"),
            0);
  ASSERT_EQ(run_cli("convert --in " + bin + " --out " + back +
                    " --format csv --jobs 2"),
            0);
  // csv -> sharded binary -> csv is lossless down to the bytes.
  EXPECT_EQ(read_file(csv), read_file(back));
  EXPECT_EQ(run_cli("convert --in /nonexistent.csv --out " + bin), 66);
  EXPECT_EQ(run_cli("convert --in " + csv + " --out " + bin +
                    " --format tsv"),
            64);
}

#endif  // DRBW_CLI_PATH

}  // namespace
}  // namespace drbw
