// Unit tests for the PEBS-style period sampler, sample records, and the
// CSV trace codec's equivalence with its reference renderings.
#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/util/csv.hpp"
#include "drbw/util/error.hpp"

namespace drbw::pebs {
namespace {

TEST(PeriodSampler, ExactRateOverLongStream) {
  PeriodSampler s(2000, 7);
  std::uint64_t samples = 0;
  const std::uint64_t total = 10'000'000;
  for (int batch = 0; batch < 100; ++batch) {
    samples += s.consume(total / 100).size();
  }
  EXPECT_NEAR(static_cast<double>(samples), total / 2000.0, 1.0);
}

TEST(PeriodSampler, OffsetsSpacedByPeriod) {
  PeriodSampler s(100, 3);
  const auto offsets = s.consume(1000);
  ASSERT_GE(offsets.size(), 9u);
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i] - offsets[i - 1], 100u);
  }
  EXPECT_LT(offsets.front(), 100u);  // randomized phase within one period
}

TEST(PeriodSampler, SmallBatchesEquivalentToOneBig) {
  PeriodSampler a(50, 9), b(50, 9);
  std::vector<std::uint64_t> from_small;
  std::uint64_t base = 0;
  for (int i = 0; i < 40; ++i) {
    for (const auto off : a.consume(13)) from_small.push_back(base + off);
    base += 13;
  }
  const auto from_big = b.consume(40 * 13);
  EXPECT_EQ(from_small, from_big);
}

TEST(PeriodSampler, CountOnlyMatchesConsume) {
  PeriodSampler a(77, 4), b(77, 4);
  for (const std::uint64_t n : {5ull, 100ull, 76ull, 77ull, 78ull, 1000ull}) {
    EXPECT_EQ(a.count_only(n), b.consume(n).size()) << "batch " << n;
  }
}

TEST(PeriodSampler, ZeroAccessesNoSamples) {
  PeriodSampler s(10, 1);
  EXPECT_TRUE(s.consume(0).empty());
  EXPECT_EQ(s.count_only(0), 0u);
}

TEST(PeriodSampler, PeriodOneSamplesEverything) {
  PeriodSampler s(1, 5);
  EXPECT_EQ(s.consume(7).size(), 7u);
}

TEST(PeriodSampler, DifferentSeedsDifferentPhase) {
  PeriodSampler a(2000, 1), b(2000, 2);
  const auto oa = a.consume(4000);
  const auto ob = b.consume(4000);
  ASSERT_FALSE(oa.empty());
  ASSERT_FALSE(ob.empty());
  EXPECT_NE(oa.front(), ob.front());
}

TEST(PeriodSampler, RejectsZeroPeriod) {
  EXPECT_THROW(PeriodSampler(0, 1), Error);
}

TEST(MemLevel, NamesAndDramPredicate) {
  EXPECT_STREQ(level_name(MemLevel::kL1), "L1");
  EXPECT_STREQ(level_name(MemLevel::kLfb), "LFB");
  EXPECT_STREQ(level_name(MemLevel::kLocalDram), "LocalDRAM");
  EXPECT_STREQ(level_name(MemLevel::kRemoteDram), "RemoteDRAM");
  EXPECT_TRUE(is_dram(MemLevel::kLocalDram));
  EXPECT_TRUE(is_dram(MemLevel::kRemoteDram));
  EXPECT_FALSE(is_dram(MemLevel::kL3));
  EXPECT_FALSE(is_dram(MemLevel::kLfb));
}

/// A trace with one sample per cycle in [0, last].
Trace trace_through_cycle(std::uint64_t last) {
  Trace trace;
  for (std::uint64_t c = 0; c <= last; ++c) {
    MemorySample s;
    s.cycle = c;
    trace.samples.push_back(s);
  }
  return trace;
}

TEST(CycleWindows, TraceWindowsTileTheSpan) {
  const Trace trace = trace_through_cycle(9);  // span 10
  for (const std::uint64_t count : {1u, 2u, 4u, 5u, 10u}) {
    const std::vector<CycleWindow> windows = split_trace_windows(trace, count);
    ASSERT_EQ(windows.size(), count);
    std::size_t samples = 0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      EXPECT_LT(windows[w].start, windows[w].end) << count << " windows";
      if (w > 0) {
        EXPECT_EQ(windows[w].start, windows[w - 1].end);
      }
      for (const MemorySample& s : windows[w].samples) {
        EXPECT_GE(s.cycle, windows[w].start);
        EXPECT_LT(s.cycle, windows[w].end);
      }
      samples += windows[w].samples.size();
    }
    EXPECT_EQ(windows.front().start, 0u);
    EXPECT_EQ(windows.back().end, 10u);
    EXPECT_EQ(samples, trace.samples.size());
  }
}

TEST(CycleWindows, CountsThatCannotTileTheSpanAreUsageErrors) {
  const Trace trace = trace_through_cycle(9);  // span 10
  // 0 windows; more windows than cycles; and 6 or 7 equal windows, whose
  // 2-cycle width covers the span in 5 and would leave empty or inverted
  // trailing windows.
  for (const std::uint64_t count : {0ull, 6ull, 7ull, 11ull, 20ull,
                                    1'000'000'000ull}) {
    try {
      split_trace_windows(trace, count);
      ADD_FAILURE() << count << " windows accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUsage);
      EXPECT_NE(std::string(e.what()).find("span of 10 cycles"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CycleWindows, WidthSplitKeepsOverflowInTheLastWindow) {
  std::vector<MemorySample> samples(3);
  samples[0].cycle = 0;
  samples[1].cycle = 7;
  samples[2].cycle = 50;  // past the span
  const std::vector<CycleWindow> windows = split_cycle_windows(samples, 10, 4);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[2].start, 8u);
  EXPECT_EQ(windows[2].end, 10u);
  EXPECT_EQ(windows[0].samples.size(), 1u);
  EXPECT_EQ(windows[1].samples.size(), 1u);
  EXPECT_EQ(windows[2].samples.size(), 1u);
  EXPECT_THROW(split_cycle_windows(samples, 10, 0), Error);
}

// ------------------------------------------------------------ CSV codec ----

/// The CSV body as `ostream <<` renders it under default flags — the
/// writer's byte contract.
std::string stream_rendering(const Trace& trace) {
  std::ostringstream os;
  os << "#drbw-trace v1" << '\n';
  for (const mem::AllocationEvent& e : trace.events) {
    if (e.kind == mem::AllocationEvent::Kind::kAlloc) {
      os << "A," << CsvWriter::escape(e.site.label) << ',' << e.base << ','
         << e.size_bytes << '\n';
    } else {
      os << "F," << e.base << '\n';
    }
  }
  for (const MemorySample& s : trace.samples) {
    os << "S," << s.address << ',' << s.cpu << ',' << s.tid << ','
       << level_token(s.level) << ',' << s.latency_cycles << ','
       << (s.is_write ? 1 : 0) << ',' << s.cycle << '\n';
  }
  return os.str();
}

std::string written(const Trace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

float float_of_bits(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

bool same_sample(const MemorySample& a, const MemorySample& b) {
  return a.address == b.address && a.cpu == b.cpu && a.tid == b.tid &&
         a.level == b.level && a.is_write == b.is_write && a.cycle == b.cycle &&
         std::memcmp(&a.latency_cycles, &b.latency_cycles,
                     sizeof a.latency_cycles) == 0;
}

TEST(CsvCodec, WriterBytesMatchStreamRenderingAcrossFloatBitPatterns) {
  std::vector<float> latencies = {
      0.0f,      FLT_MIN,   FLT_MAX,   1e-05f,    999999.5f, 1e+06f,
      1.0f,      9.999995f, 99999.95f, 100000.5f, 123456.5f, 999998.5f,
      612.5f,    612.531f,  0.5f,      1e-45f,    58.0f,     1234567.0f};
  // A deterministic stride through every finite, non-negative bit pattern
  // (subnormals included), then dense LCG draws over [1, 1e6), where
  // recorded latencies live.
  for (std::uint32_t bits = 0; bits < 0x7f800000u; bits += 0x1fff7u) {
    latencies.push_back(float_of_bits(bits));
  }
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 60000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int decade = static_cast<int>((state >> 60) % 6);
    const float unit = static_cast<float>(state >> 40) / 16777216.0f;
    latencies.push_back((1.0f + 9.0f * unit) *
                        std::pow(10.0f, static_cast<float>(decade)));
  }
  Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"a.c:1 \"x, y\""}, 0, UINT64_MAX});
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kFree, {""}, UINT64_MAX, 0});
  const std::uint64_t u64s[] = {0, 1, 9, 10, 4294967296ull, UINT64_MAX};
  const int cpus[] = {0, 47, INT_MAX, -1, INT_MIN};
  const std::uint32_t tids[] = {0, 3, UINT32_MAX};
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    MemorySample s;
    s.address = u64s[i % 6];
    s.cpu = cpus[i % 5];
    s.tid = tids[i % 3];
    s.level = static_cast<MemLevel>(i % 6);
    s.latency_cycles = latencies[i];
    s.is_write = i % 2 == 1;
    s.cycle = u64s[(i + 3) % 6];
    trace.samples.push_back(s);
  }
  const std::string expected = stream_rendering(trace);
  const std::string actual = written(trace);
  ASSERT_EQ(actual.size(), expected.size());
  // Report the first differing line rather than two multi-megabyte strings.
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string a;
  std::string b;
  for (std::size_t line = 1; std::getline(want, a) && std::getline(got, b);
       ++line) {
    ASSERT_EQ(b, a) << "line " << line;
  }
}

/// One token-table row: a record line, and whether the fast decoder (the
/// writer's own shape) is expected to take it.
struct CodecRow {
  const char* line;
  bool fast;
};

TEST(CsvCodec, FastAndGeneralDecodersAgreeOnEveryToken) {
  const CodecRow rows[] = {
      // Canonical: what render_csv writes.
      {"S,262144,0,2,LDR,700,0,5", true},
      {"S,262144,17,3,RDR,612.531,1,123456789", true},
      {"S,0,0,0,L1,0,0,0", true},
      {"S,1,1,1,LFB,1e-05,1,1", true},
      {"S,9999999999999999999,2,2,L3,3.40282e+38,0,7", true},
      {"S,5,2,2,L2,1e+06,0,7", true},
      {"S,5,2,2,L2,0.000123457,0,7", true},
      {"S,5,2,2,L2,999999,0,7", true},
      {"S,5,2,2,L2,0.001234,0,7", true},
      {"S,5,2,2,L2,1234567,0,7", true},
      {"S,5,2,2,L2,12345.678,0,7", true},
      {"S,5,2,2,L2,0e-50,0,7", true},
      // General-only shapes the format still accepts.
      {"S,262144,0,2,LDR, 700,0,5", false},
      {"S, 262144,0,2,LDR,700,0,5", false},
      {"S,262144,0,2,LDR,+700,0,5", false},
      {"S,+262144,0,2,LDR,700,0,5", false},
      {"S,262144,0,2,LDR,0x1p3,0,5", false},
      {"S,262144,0,2,LDR,1e5,0,5", false},
      {"S,262144,0,2,LDR,-0,0,5", false},
      {"S,18446744073709551615,0,2,LDR,700,0,5", false},
      {"S,\"262144\",0,2,LDR,700,0,5", false},
      {"S,262144,0,2,LDR,700,2,5", false},
      {"A,\"grid.c:7 \"\"a,b\"\"\",4096,64", false},
      {"F,4096", false},
      // Rejected, with the general decoder's error text.
      {"S,262144,0,2,LDR,1e-40,0,5", false},
      {"S,262144,0,2,LDR,1e-50,0,5", false},
      {"S,262144,0,2,LDR,1.17549e-38,0,5", false},
      {"S,262144,0,2,LDR,1e39,0,5", false},
      {"S,262144,0,2,LDR,1e+39,0,5", false},
      {"S,262144,0,2,LDR,,0,5", false},
      {"S,262144,0,2,LDR,nan,0,5", false},
      {"S,262144,0,2,LDR,inf,0,5", false},
      {"S,262144,0,2,LDR,-5,0,5", false},
      {"S,-1,0,2,LDR,700,0,5", false},
      {"S,18446744073709551616,0,2,LDR,700,0,5", false},
      {"S,262144,0,2,LDR,700,0,5\r", false},
      {"S,262144,0,2,ldr,700,0,5", false},
      {"S,262144,0,2,LDR,700,0,5,9", false},
      {"S,262144,0,2,LDR,700,0", false},
      {"S,262144,0,2,LDR,700.,0,5", false},
      {"Z,1", false},
  };
  for (const CodecRow& row : rows) {
    SCOPED_TRACE(row.line);
    MemorySample fast;
    const bool took = detail::parse_csv_sample_fast(row.line, fast);
    EXPECT_EQ(took, row.fast);

    Trace general;
    std::string error;
    try {
      detail::parse_csv_record(row.line, general);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse);
      error = e.what();
    }
    if (took) {
      ASSERT_TRUE(error.empty()) << error;
      ASSERT_EQ(general.samples.size(), 1u);
      EXPECT_TRUE(same_sample(fast, general.samples[0]));
    }

    // A load takes the fast decoder where it can: same value, same error.
    std::istringstream is(std::string("#drbw-trace v1\n") + row.line + "\n");
    try {
      const Trace loaded = read_trace(is);
      ASSERT_TRUE(error.empty()) << "load accepted what the decoder rejects";
      ASSERT_EQ(loaded.samples.size(), general.samples.size());
      ASSERT_EQ(loaded.events.size(), general.events.size());
      if (!loaded.samples.empty()) {
        EXPECT_TRUE(same_sample(loaded.samples[0], general.samples[0]));
      }
      if (!loaded.events.empty()) {
        EXPECT_EQ(loaded.events[0].site.label, general.events[0].site.label);
      }
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "<stream>:2: " + error);
    }
  }
}

TEST(CsvCodec, CsvRejectsWhatBinaryRejects) {
  // Binary v3 rejects non-finite or negative latency bits; CSV now rejects
  // the same values, and a '-' that stoull would wrap to 2^64-1.
  const struct {
    const char* line;
    const char* token;
  } cases[] = {
      {"S,262152,1,2,RDR,nan,1,155", "'nan'"},
      {"S,262152,1,2,RDR,inf,1,155", "'inf'"},
      {"S,262152,1,2,RDR,-5,1,155", "'-5'"},
      {"S,-1,1,2,RDR,730,1,155", "'-1'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    const std::string text = std::string("#drbw-trace v1\n") +
                             "S,262144,0,2,LDR,700,0,5\n" + c.line + "\n" +
                             "S,262160,2,2,LDR,760,0,305\n";
    std::istringstream strict(text);
    try {
      read_trace(strict);
      ADD_FAILURE() << "strict load accepted " << c.token;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse);
      const std::string message = e.what();
      EXPECT_EQ(message.rfind("<stream>:3: malformed ", 0), 0u) << message;
      EXPECT_NE(message.find(c.token), std::string::npos) << message;
    }
    std::istringstream lenient(text);
    util::LoadStats stats;
    const Trace loaded = read_trace(
        lenient, util::LoadPolicy{util::LoadMode::kLenient, 0.5}, &stats);
    EXPECT_EQ(stats.records_seen, 3u);
    EXPECT_EQ(stats.records_quarantined, 1u);
    ASSERT_EQ(loaded.samples.size(), 2u);
    EXPECT_EQ(loaded.samples[1].address, 262160u);
  }
}

/// The fault-armed load's trace: quoted labels, a free, and latencies from
/// zero to FLT_MAX (FLT_MIN prints as a subnormal token and quarantines).
Trace fault_trace() {
  Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"grid.c:7 \"a,b\""}, 0x40000, 65536});
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"halo.c:12 buf"}, 0x80000, 4096});
  trace.events.push_back(
      mem::AllocationEvent{mem::AllocationEvent::Kind::kFree, {""}, 0x80000, 0});
  const float latencies[] = {0.0f,     0.5f,      1.0f,   58.0f,
                             612.5f,   612.531f,  1e-05f, 999999.5f,
                             1e+06f,   123456.7f, FLT_MAX, FLT_MIN};
  for (std::uint64_t i = 0; i < 96; ++i) {
    MemorySample s;
    s.address = 0x40000 + i * 136;
    s.cpu = static_cast<int>(i % 48);
    s.tid = static_cast<std::uint32_t>(i % 5);
    s.level = static_cast<MemLevel>(i % 6);
    s.latency_cycles = latencies[i % 12];
    s.is_write = i % 3 == 0;
    s.cycle = 1000 + i * 977;
    trace.samples.push_back(s);
  }
  return trace;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(CsvCodec, FaultArmedLoadKeepsItsStatsAndQuarantinedLines) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULT=OFF";
  const std::string path = ::testing::TempDir() + "/codec_fault_trace.csv";
  save_trace(path, fault_trace());
  EXPECT_EQ(fnv1a(written(fault_trace())), 0x2f10c99421a87f83ull);

  auto& flight = obs::FlightRecorder::instance();
  flight.enable();
  flight.clear();
  auto& injector = fault::Injector::global();
  injector.arm(fault::Plan::parse("seed=21,trace.read:corrupt:0.3"));
  injector.reset_counts();
  util::LoadStats stats;
  const Trace loaded = load_trace(
      path, util::LoadPolicy{util::LoadMode::kLenient, 1.0}, &stats);
  const auto fires = injector.fire_counts();
  // A strict load stops at the first damaged line, having counted it.
  const obs::Counter& seen = obs::Registry::global().counter(
      "drbw_trace_records_total", "Trace records seen by the loader");
  const std::uint64_t seen_before = seen.value();
  util::LoadStats strict_stats;
  std::string strict_error;
  try {
    load_trace(path, util::LoadPolicy{}, &strict_stats);
  } catch (const Error& e) {
    strict_error = e.what();
  }
  const std::uint64_t strict_seen = seen.value() - seen_before;
  injector.disarm();
  std::vector<std::uint64_t> quarantined;
  for (const obs::FlightEvent& e : flight.snapshot()) {
    if (std::string(e.tag) == "quarantine") quarantined.push_back(e.value);
  }
  flight.disable();

  // Every figure below is what the ostream/istringstream codec produced.
  EXPECT_EQ(stats.records_seen, 99u);
  EXPECT_EQ(stats.records_ok, 68u);
  EXPECT_EQ(stats.records_quarantined, 31u);
  EXPECT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.samples.size(), 66u);
  EXPECT_EQ(fnv1a(written(loaded)), 0x11bbd584c39a9fa1ull);
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].first, "trace.read:corrupt");
  EXPECT_EQ(fires[0].second, 26u);
  EXPECT_EQ(strict_error, path + ":4: unknown record kind 'W'");
  EXPECT_EQ(strict_stats.records_seen, 3u);
  if (obs::kEnabled) {
    EXPECT_EQ(strict_seen, 3u);
    const std::vector<std::uint64_t> want = {
        4,  7,  8,  11, 13, 16, 23, 25, 28, 29, 39, 40, 49, 50, 52, 53,
        54, 58, 64, 65, 74, 76, 79, 80, 81, 83, 84, 86, 88, 97, 100};
    EXPECT_EQ(quarantined, want);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace drbw::pebs
