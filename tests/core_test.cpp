// Tests for DR-BW's core: the heap tracker (allocation-table analogue) and
// the profiler's channel association + object attribution.
#include <gtest/gtest.h>

#include "drbw/core/profiler.hpp"
#include "drbw/util/error.hpp"

namespace drbw::core {
namespace {

using mem::AddressSpace;
using mem::AllocationEvent;
using mem::PlacementSpec;
using topology::Machine;

AllocationEvent alloc(const std::string& site, mem::Addr base,
                      std::uint64_t size) {
  return AllocationEvent{AllocationEvent::Kind::kAlloc, {site}, base, size};
}

AllocationEvent dealloc(mem::Addr base) {
  return AllocationEvent{AllocationEvent::Kind::kFree, {""}, base, 0};
}

TEST(HeapTracker, TracksRangesAndAttribution) {
  HeapTracker t;
  t.on_event(alloc("a.c:1 x", 0x1000, 0x100));
  t.on_event(alloc("a.c:2 y", 0x2000, 0x200));
  EXPECT_EQ(t.object_of(0x1000), 0u);
  EXPECT_EQ(t.object_of(0x10ff), 0u);
  EXPECT_EQ(t.object_of(0x1100), kUnknownObject);
  EXPECT_EQ(t.object_of(0x2100), 1u);
  EXPECT_EQ(t.object_of(0x0), kUnknownObject);
  EXPECT_EQ(t.object(0).site, "a.c:1 x");
}

TEST(HeapTracker, MergesAllocationsFromSameSite) {
  HeapTracker t;
  t.on_event(alloc("loop.c:9 buf", 0x1000, 0x100));
  t.on_event(alloc("loop.c:9 buf", 0x3000, 0x100));
  ASSERT_EQ(t.objects().size(), 1u);
  EXPECT_EQ(t.objects()[0].allocations, 2u);
  EXPECT_EQ(t.objects()[0].live_bytes, 0x200u);
  EXPECT_EQ(t.object_of(0x1010), t.object_of(0x3010));
}

TEST(HeapTracker, FreeRemovesRangeAndUpdatesBytes) {
  HeapTracker t;
  t.on_event(alloc("a.c:1 x", 0x1000, 0x100));
  t.on_event(dealloc(0x1000));
  EXPECT_EQ(t.object_of(0x1000), kUnknownObject);
  EXPECT_EQ(t.objects()[0].live_bytes, 0u);
  EXPECT_EQ(t.objects()[0].frees, 1u);
  EXPECT_EQ(t.live_range_count(), 0u);
}

TEST(HeapTracker, PeakBytesSurvivesFree) {
  HeapTracker t;
  t.on_event(alloc("a.c:1 x", 0x1000, 0x300));
  t.on_event(dealloc(0x1000));
  t.on_event(alloc("a.c:1 x", 0x1000, 0x100));
  EXPECT_EQ(t.objects()[0].peak_bytes, 0x300u);
  EXPECT_EQ(t.objects()[0].live_bytes, 0x100u);
}

TEST(HeapTracker, FreeOfUntrackedPointerThrows) {
  HeapTracker t;
  EXPECT_THROW(t.on_event(dealloc(0xdead)), Error);
  EXPECT_THROW(t.object(5), Error);
}

class ProfilerTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();
  AddressSpace space_{machine_};
  AddressSpaceLocator locator_{space_};
  Profiler profiler_{machine_, locator_};

  pebs::MemorySample sample(mem::Addr addr, topology::CpuId cpu,
                            pebs::MemLevel level, float lat) {
    pebs::MemorySample s;
    s.address = addr;
    s.cpu = cpu;
    s.level = level;
    s.latency_cycles = lat;
    return s;
  }
};

TEST_F(ProfilerTest, AssociatesSamplesWithDirectedChannels) {
  const auto obj = space_.allocate("a.c:1 d", 1 << 20, PlacementSpec::bind(2));
  const mem::Addr base = space_.object(obj).base;
  const auto events = space_.drain_events();

  // cpu 0 -> node 0 accessing node-2 data: channel N0->N2.
  // cpu 17 -> node 2 accessing node-2 data: local channel N2.
  const auto result = profiler_.profile(
      events, {sample(base, 0, pebs::MemLevel::kRemoteDram, 600.0f),
               sample(base + 64, 17, pebs::MemLevel::kLocalDram, 210.0f)});

  const auto& remote =
      result.channels[static_cast<std::size_t>(machine_.channel_index({0, 2}))];
  const auto& local =
      result.channels[static_cast<std::size_t>(machine_.channel_index({2, 2}))];
  ASSERT_EQ(remote.samples.size(), 1u);
  ASSERT_EQ(local.samples.size(), 1u);
  EXPECT_TRUE(remote.samples[0].is_remote());
  EXPECT_FALSE(local.samples[0].is_remote());
  EXPECT_EQ(result.total_samples, 2u);
}

TEST_F(ProfilerTest, AttributesSamplesToHeapObjects) {
  const auto a = space_.allocate("amg.c:120 diag_j", 1 << 16,
                                 PlacementSpec::bind(0));
  const auto b = space_.allocate("amg.c:150 RAP", 1 << 16, PlacementSpec::bind(0));
  const mem::Addr base_a = space_.object(a).base;
  const mem::Addr base_b = space_.object(b).base;
  const auto events = space_.drain_events();

  const auto result = profiler_.profile(
      events, {sample(base_a + 8, 0, pebs::MemLevel::kLocalDram, 200.0f),
               sample(base_b + 8, 0, pebs::MemLevel::kLocalDram, 200.0f),
               sample(base_b + 16, 0, pebs::MemLevel::kL1, 4.0f)});

  EXPECT_EQ(result.attributed_samples, 3u);
  const auto local0 =
      result.channels[static_cast<std::size_t>(machine_.channel_index({0, 0}))];
  ASSERT_EQ(local0.samples.size(), 3u);
  EXPECT_EQ(result.tracker.object(local0.samples[0].object).site,
            "amg.c:120 diag_j");
  EXPECT_EQ(result.tracker.object(local0.samples[1].object).site,
            "amg.c:150 RAP");
}

TEST_F(ProfilerTest, StaticRegionsRemainUnattributed) {
  const auto s = space_.allocate_static("sp.f:1 globals", 1 << 16,
                                        PlacementSpec::bind(1));
  const mem::Addr base = space_.object(s).base;
  const auto result = profiler_.profile(
      space_.drain_events(),
      {sample(base, 0, pebs::MemLevel::kRemoteDram, 700.0f)});
  EXPECT_EQ(result.total_samples, 1u);
  EXPECT_EQ(result.attributed_samples, 0u);
  const auto& ch =
      result.channels[static_cast<std::size_t>(machine_.channel_index({0, 1}))];
  ASSERT_EQ(ch.samples.size(), 1u);
  EXPECT_EQ(ch.samples[0].object, kUnknownObject);
}

TEST_F(ProfilerTest, ReplicatedDataResolvesLocalEverywhere) {
  const auto r = space_.allocate("sc.c:7 block", 1 << 16,
                                 PlacementSpec::replicate());
  const mem::Addr base = space_.object(r).base;
  const auto result = profiler_.profile(
      space_.drain_events(),
      {sample(base, 0, pebs::MemLevel::kLocalDram, 200.0f),
       sample(base, 25, pebs::MemLevel::kLocalDram, 200.0f)});  // node 3
  for (const auto& channel : result.channels) {
    for (const auto& s : channel.samples) {
      EXPECT_FALSE(s.is_remote());
    }
  }
}

}  // namespace
}  // namespace drbw::core
