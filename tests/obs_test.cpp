// Tests for drbw::obs — the metrics registry and the deterministic trace
// layer.  The load-bearing properties: re-registration is idempotent per
// kind, histogram buckets follow Prometheus `le` semantics, both exposition
// formats escape correctly, and the trace serialization is byte-identical
// regardless of the TaskPool job count (the determinism contract the rest of
// the repo already makes for datasets and models).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "drbw/obs/metrics.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/task_pool.hpp"

namespace drbw::obs {
namespace {

TEST(ObsCounterTest, AccumulatesAndResets) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGaugeTest, SetAndSetMax) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  // set_max is commutative: order of contributions cannot matter.
  g.set_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(ObsHistogramTest, BucketEdgesFollowLeSemantics) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  Histogram h({10, 20, 30});
  h.observe(10);  // == bound: lands in le="10"
  h.observe(11);  // first bucket past it
  h.observe(30);
  h.observe(31);  // past the last bound: +Inf
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 82u);
}

TEST(ObsHistogramTest, ObserveNMatchesRepeatedObserve) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  Histogram bulk({10, 20, 30});
  Histogram loop({10, 20, 30});
  bulk.observe_n(15, 3);
  bulk.observe_n(31, 2);
  bulk.observe_n(5, 0);  // no-op
  for (int i = 0; i < 3; ++i) loop.observe(15);
  for (int i = 0; i < 2; ++i) loop.observe(31);
  for (std::size_t i = 0; i <= 3; ++i) {
    EXPECT_EQ(bulk.bucket_count(i), loop.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(bulk.count(), loop.count());
  EXPECT_EQ(bulk.sum(), loop.sum());
}

TEST(ObsHistogramTest, TallyFlushMatchesRepeatedObserve) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  Histogram tallied({10, 20, 30});
  Histogram loop({10, 20, 30});
  const std::uint64_t values[] = {10, 11, 30, 31, 0, 99, 20};
  {
    HistogramTally tally(tallied);
    for (const std::uint64_t v : values) tally.observe(v);
    EXPECT_EQ(tallied.count(), 0u);  // nothing reaches the histogram yet
    tally.flush();
    tally.flush();  // a second flush adds nothing
  }
  for (const std::uint64_t v : values) loop.observe(v);
  for (std::size_t i = 0; i <= 3; ++i) {
    EXPECT_EQ(tallied.bucket_count(i), loop.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(tallied.count(), loop.count());
  EXPECT_EQ(tallied.sum(), loop.sum());
}

TEST(ObsHistogramTest, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10, 5}), Error);
  EXPECT_THROW(Histogram({10, 10}), Error);
}

TEST(ObsRegistryTest, ReRegistrationReturnsSameInstrument) {
  Registry r;
  Counter& a = r.counter("drbw_test_total", "help");
  Counter& b = r.counter("drbw_test_total", "other help ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(r.size(), 1u);
  Histogram& h1 = r.histogram("drbw_test_hist", "h", {1, 2});
  Histogram& h2 = r.histogram("drbw_test_hist", "h", {1, 2});
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistryTest, KindAndBoundMismatchesThrow) {
  Registry r;
  r.counter("drbw_test_total", "help");
  EXPECT_THROW(r.gauge("drbw_test_total", "help"), Error);
  EXPECT_THROW(r.histogram("drbw_test_total", "help", {1}), Error);
  r.histogram("drbw_test_hist", "h", {1, 2});
  EXPECT_THROW(r.histogram("drbw_test_hist", "h", {1, 3}), Error);
  EXPECT_THROW(r.counter("0bad", "leading digit"), Error);
}

TEST(ObsRegistryTest, PrometheusTextEscapesAndCumulates) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  Registry r;
  r.counter("drbw_c_total", "line\nbreak back\\slash").add(3);
  Histogram& h = r.histogram("drbw_h", "hist", {10, 20});
  h.observe(5);
  h.observe(15);
  h.observe(99);
  const std::string text = r.prometheus_text();
  EXPECT_NE(text.find("# HELP drbw_c_total line\\nbreak back\\\\slash\n"),
            std::string::npos);
  EXPECT_NE(text.find("drbw_c_total 3\n"), std::string::npos);
  // Buckets are cumulative; +Inf equals the total count.
  EXPECT_NE(text.find("drbw_h_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("drbw_h_bucket{le=\"20\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("drbw_h_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("drbw_h_sum 119\n"), std::string::npos);
  EXPECT_NE(text.find("drbw_h_count 3\n"), std::string::npos);
}

TEST(ObsRegistryTest, JsonTextEscapesAndGroupsKinds) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  Registry r;
  r.counter("drbw_c_total", "say \"hi\"\ttab").add(1);
  r.gauge("drbw_g", "plain").set(0.25);
  const std::string text = r.json_text();
  EXPECT_NE(text.find("\"help\": \"say \\\"hi\\\"\\ttab\""), std::string::npos);
  EXPECT_NE(text.find("\"drbw_g\": {\"help\": \"plain\", \"value\": 0.25}"),
            std::string::npos);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\": {}"), std::string::npos);
}

TEST(ObsRegistryTest, DiagnosticInstrumentsAreOptIn) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  Registry r;
  r.counter("drbw_golden_total", "in every export").add(1);
  r.counter("drbw_diag_total", "jobs-dependent", Visibility::kDiagnostic).add(1);
  EXPECT_EQ(r.prometheus_text().find("drbw_diag_total"), std::string::npos);
  EXPECT_NE(r.prometheus_text(true).find("drbw_diag_total"), std::string::npos);
  EXPECT_EQ(r.rows().size(), 1u);
  EXPECT_EQ(r.rows(true).size(), 2u);
}

/// RAII guard: isolates a test from the process-wide trace singleton and
/// restores the calling thread's track scope (fork counters included), so
/// trace tests are order-independent.
class TraceSandbox {
 public:
  TraceSandbox() : saved_scope_(track_scope()) {
    track_scope() = TrackScope{};
    Trace::instance().clear();
    Trace::instance().enable(TimingMode::kSim);
  }
  ~TraceSandbox() {
    Trace::instance().disable();
    Trace::instance().clear();
    track_scope() = saved_scope_;
  }

 private:
  TrackScope saved_scope_;
};

TEST(ObsTraceTest, GoldenSerialization) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  TraceSandbox sandbox;
  Trace& trace = Trace::instance();
  trace.instant("hello", {{"x", 1.5}}, {{"note", "a\"b"}});
  trace.counter("epoch", 100, {{"N1->N0", 0.5}});
  trace.complete("phase", 0, 250, {}, {{"name", "main"}});
  const std::string expected =
      "{\"traceEvents\": [\n"
      "  {\"name\": \"hello\", \"ph\": \"i\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 0, \"s\": \"t\", \"args\": {\"x\": 1.5, \"note\": \"a\\\"b\"}},\n"
      "  {\"name\": \"epoch\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 100, \"args\": {\"N1->N0\": 0.5}},\n"
      "  {\"name\": \"phase\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 0, \"dur\": 250, \"args\": {\"name\": \"main\"}}\n"
      "],\n"
      "\"otherData\": {\"clock\": \"sim-cycles\", \"golden\": true}}\n";
  EXPECT_EQ(trace.to_json(), expected);
}

TEST(ObsTraceTest, DisabledTraceRecordsNothing) {
  TraceSandbox sandbox;
  Trace::instance().disable();
  Trace::instance().instant("dropped");
  { Span span("also dropped"); }
  EXPECT_EQ(Trace::instance().event_count(), 0u);
}

TEST(ObsTraceTest, SpansNestBySequence) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  TraceSandbox sandbox;
  {
    Span outer("outer");
    Trace::instance().instant("inside");
    { Span inner("inner"); }
  }
  const std::string json = Trace::instance().to_json();
  // The outer span claims seq 0 and closes last: its deterministic duration
  // covers the instant and the inner span (3 sequence points).
  EXPECT_NE(json.find("\"name\": \"outer\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 0, \"ts\": 0, \"dur\": 3"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 0, \"ts\": 2, \"dur\": 1"),
            std::string::npos);
}

/// One deterministic fan-out: every task emits a span and an instant under
/// its own TraceTrack (installed by TaskPool::parallel_for).
std::string traced_fanout(int jobs) {
  TraceSandbox sandbox;
  util::TaskPool pool(jobs);
  pool.parallel_for(16, [](std::size_t i) {
    Span span("task");
    span.arg("i", static_cast<double>(i));
    Trace::instance().instant("tick", {{"i", static_cast<double>(i)}});
  });
  return Trace::instance().to_json();
}

TEST(ObsTraceTest, TraceBytesAreIdenticalAcrossJobCounts) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  const std::string serial = traced_fanout(1);
  const std::string parallel = traced_fanout(4);
  EXPECT_EQ(serial, parallel);
  const std::string again = traced_fanout(4);
  EXPECT_EQ(parallel, again);
}

TEST(ObsTraceTest, WallModeMarksTraceNonGolden) {
  if (!kEnabled) GTEST_SKIP() << "obs compiled out (DRBW_OBS=OFF)";
  TraceSandbox sandbox;
  Trace::instance().enable(TimingMode::kWall);
  Trace::instance().instant("tick");
  const std::string json = Trace::instance().to_json();
  EXPECT_NE(json.find("\"clock\": \"wall-micros\", \"golden\": false"),
            std::string::npos);
}

TEST(ObsDisabledTest, CompiledOutInstrumentsStayZero) {
  if (kEnabled) GTEST_SKIP() << "only meaningful with DRBW_OBS=OFF";
  Counter c;
  c.add(5);
  EXPECT_EQ(c.value(), 0u);
  Histogram h({10});
  h.observe(3);
  EXPECT_EQ(h.count(), 0u);
  Trace::instance().enable(TimingMode::kSim);
  Trace::instance().instant("dropped");
  EXPECT_EQ(Trace::instance().event_count(), 0u);
}

}  // namespace
}  // namespace drbw::obs
