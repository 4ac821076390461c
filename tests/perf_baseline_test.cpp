// Behaviour-gate baseline pin: replays every leg of the CI behaviour gates
// (record, train, analyze/featurize, serve, explain, and the sharded trace
// load) in a scratch directory with the committed model, exactly as CI runs
// them from the repository root, and asserts that each fresh run manifest's
// golden block is byte-identical to its committed bench/perf_baseline_*.json.
//
// `drbw perf diff` only compares span and counter statistics, so a baseline
// whose config, inputs, or outputs went stale still passes the gate; this
// test catches that.  To refresh a baseline on purpose, rerun the leg's
// command below and commit its run.json over the old one.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace drbw {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The manifest's golden block: everything between `"golden": {` and the
/// context block (which holds --jobs and other non-golden fields).
std::string golden_block(const std::string& manifest) {
  const std::size_t begin = manifest.find("\n  \"golden\": {");
  const std::size_t end = manifest.find("\n  \"context\": {");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    ADD_FAILURE() << "no golden block in manifest:\n" << manifest;
    return "";
  }
  return manifest.substr(begin, end - begin);
}

class PerfBaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/drbw_perf_baseline_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fs::copy_file(std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json",
                  dir_ + "/drbw_model.json");
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs `drbw <args>` inside the scratch directory; returns its exit code.
  int drbw(const std::string& args) const {
    const std::string cmd = "cd '" + dir_ + "' && " +
                            std::string(DRBW_CLI_PATH) + " " + args +
                            " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  void expect_golden(const std::string& run_dir,
                     const std::string& baseline) const {
    EXPECT_EQ(golden_block(read_file(dir_ + "/" + run_dir + "/run.json")),
              golden_block(read_file(std::string(DRBW_SOURCE_ROOT) +
                                     "/bench/" + baseline)))
        << run_dir << " vs bench/" << baseline;
  }

  /// The record leg; every later leg replays its trace.
  void record() const {
    ASSERT_EQ(drbw("record --benchmark streamcluster --config T8-N4 --seed 7 "
                   "--out perf_trace.csv --run-dir perf_run"),
              0);
  }

  std::string dir_;
};

TEST_F(PerfBaselineTest, RecordLeg) {
  record();
  expect_golden("perf_run", "perf_baseline_run.json");
}

TEST_F(PerfBaselineTest, TrainLeg) {
  ASSERT_EQ(drbw("train --seed 2017 --jobs 1 --out perf_model.json "
                 "--run-dir train_run"),
            0);
  expect_golden("train_run", "perf_baseline_train.json");
}

TEST_F(PerfBaselineTest, FeaturizeLeg) {
  record();
  ASSERT_EQ(drbw("analyze --trace perf_trace.csv --model drbw_model.json "
                 "--run-dir feat_run"),
            0);
  expect_golden("feat_run", "perf_baseline_featurize.json");
}

TEST_F(PerfBaselineTest, ServeLeg) {
  record();
  ASSERT_EQ(drbw("serve --replay perf_trace.csv --model drbw_model.json "
                 "--clients 4 --jobs 1 --run-dir serve_run"),
            0);
  expect_golden("serve_run", "perf_baseline_serve.json");
}

TEST_F(PerfBaselineTest, ExplainLeg) {
  record();
  ASSERT_EQ(drbw("explain --trace perf_trace.csv --model drbw_model.json "
                 "--run-dir explain_run"),
            0);
  expect_golden("explain_run", "perf_baseline_explain.json");
}

TEST_F(PerfBaselineTest, ShardedTraceLegAtJobs1And4) {
  ASSERT_EQ(drbw("record --benchmark streamcluster --config T8-N4 --seed 7 "
                 "--format binary --shards 4 --out perf_trace.bin "
                 "--run-dir rec_run"),
            0);
  for (const char* jobs : {"1", "4"}) {
    const std::string run_dir = std::string("analyze_j") + jobs;
    ASSERT_EQ(drbw(std::string("analyze --trace perf_trace.bin --jobs ") +
                   jobs + " --model drbw_model.json --run-dir " + run_dir),
              0);
    expect_golden(run_dir, "perf_baseline_trace.json");
  }
}

}  // namespace
}  // namespace drbw
