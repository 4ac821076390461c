// Unit tests for the PEBS-style period sampler and sample records.
#include <gtest/gtest.h>

#include "drbw/pebs/sample.hpp"
#include "drbw/pebs/session.hpp"
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

}  // namespace
}  // namespace drbw::pebs
