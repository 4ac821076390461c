// Tests for feature extraction: Table I semantics in both scopes, and the
// candidate catalogue + selection study.
#include <gtest/gtest.h>

#include <array>

#include "drbw/features/candidates.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/util/stats.hpp"

namespace drbw::features {
namespace {

using mem::AddressSpace;
using mem::PlacementSpec;
using topology::Machine;

class FeaturesTest : public ::testing::Test {
 protected:
  Machine machine_ = Machine::xeon_e5_4650();
  AddressSpace space_{machine_};
  core::AddressSpaceLocator locator_{space_};
  core::Profiler profiler_{machine_, locator_};

  static pebs::MemorySample sample(mem::Addr addr, topology::CpuId cpu,
                                   pebs::MemLevel level, float lat) {
    pebs::MemorySample s;
    s.address = addr;
    s.cpu = cpu;
    s.level = level;
    s.latency_cycles = lat;
    return s;
  }
};

TEST_F(FeaturesTest, RunScopeComputesTableOne) {
  const auto obj = space_.allocate("x.c:1 d", 1 << 20, PlacementSpec::bind(1));
  const mem::Addr base = space_.object(obj).base;
  // cpu 0 (node 0): remote to node 1; cpu 8 (node 1): local.
  const auto profile = profiler_.profile(
      space_.drain_events(),
      {sample(base, 0, pebs::MemLevel::kRemoteDram, 1200.0f),
       sample(base + 64, 0, pebs::MemLevel::kRemoteDram, 400.0f),
       sample(base + 128, 8, pebs::MemLevel::kLocalDram, 210.0f),
       sample(base + 192, 8, pebs::MemLevel::kLfb, 60.0f),
       sample(base + 256, 8, pebs::MemLevel::kL1, 4.0f)});

  const FeatureVector v = extract_run(profile);
  EXPECT_DOUBLE_EQ(v.values[9], 5.0);             // total samples
  EXPECT_DOUBLE_EQ(v.values[5], 2.0);             // remote count
  EXPECT_DOUBLE_EQ(v.values[6], 800.0);           // avg remote latency
  EXPECT_DOUBLE_EQ(v.values[7], 1.0);             // local count
  EXPECT_DOUBLE_EQ(v.values[8], 210.0);           // avg local latency
  EXPECT_DOUBLE_EQ(v.values[11], 1.0);            // lfb count
  EXPECT_DOUBLE_EQ(v.values[12], 60.0);           // lfb latency
  EXPECT_DOUBLE_EQ(v.values[0], 1.0 / 5.0);       // > 1000
  EXPECT_DOUBLE_EQ(v.values[1], 1.0 / 5.0);       // > 500
  EXPECT_DOUBLE_EQ(v.values[2], 3.0 / 5.0);       // > 200
  EXPECT_DOUBLE_EQ(v.values[3], 3.0 / 5.0);       // > 100
  EXPECT_DOUBLE_EQ(v.values[4], 4.0 / 5.0);       // > 50
  EXPECT_DOUBLE_EQ(v.values[10], (1200.0 + 400 + 210 + 60 + 4) / 5.0);
  EXPECT_EQ(v.scope_samples, 5u);
}

TEST_F(FeaturesTest, EmptyProfileYieldsZeros) {
  const core::ProfileResult empty;
  const FeatureVector v = extract_run(empty);
  for (const double x : v.values) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST_F(FeaturesTest, ChannelScopeFiltersRemoteByHomeNode) {
  const auto d1 = space_.allocate("x.c:1 a", 1 << 20, PlacementSpec::bind(1));
  const auto d2 = space_.allocate("x.c:2 b", 1 << 20, PlacementSpec::bind(2));
  const mem::Addr b1 = space_.object(d1).base;
  const mem::Addr b2 = space_.object(d2).base;
  // Node-0 cpu accesses data on node 1 (twice, slow) and node 2 (once, fast).
  const auto profile = profiler_.profile(
      space_.drain_events(),
      {sample(b1, 0, pebs::MemLevel::kRemoteDram, 900.0f),
       sample(b1 + 64, 0, pebs::MemLevel::kRemoteDram, 1100.0f),
       sample(b2, 0, pebs::MemLevel::kRemoteDram, 320.0f),
       sample(b2 + 64, 0, pebs::MemLevel::kL2, 12.0f)});

  const auto channels = extract_channels(profile, machine_);
  // 4 nodes -> 12 remote channels, in (src, dst) order.
  ASSERT_EQ(channels.size(), 12u);

  const auto* ch01 = &channels[0];  // N0->N1
  ASSERT_EQ(ch01->channel, (topology::ChannelId{0, 1}));
  EXPECT_DOUBLE_EQ(ch01->features.values[5], 2.0);
  EXPECT_DOUBLE_EQ(ch01->features.values[6], 1000.0);
  // Context features span ALL node-0 samples.
  EXPECT_DOUBLE_EQ(ch01->features.values[9], 4.0);

  const auto* ch02 = &channels[1];  // N0->N2
  ASSERT_EQ(ch02->channel, (topology::ChannelId{0, 2}));
  EXPECT_DOUBLE_EQ(ch02->features.values[5], 1.0);
  EXPECT_DOUBLE_EQ(ch02->features.values[6], 320.0);

  // A channel from a silent node has an all-zero vector.
  for (const auto& cf : channels) {
    if (cf.channel.src == 3) {
      EXPECT_EQ(cf.features.scope_samples, 0u);
      EXPECT_DOUBLE_EQ(cf.features.values[5], 0.0);
    }
  }
}

TEST_F(FeaturesTest, ChannelScopeIsBitExactAgainstPerDestinationScan) {
  // Remote-DRAM samples homed on every node (the source's own included),
  // plus local, LFB and cache hits, with latencies spread so that the
  // Welford means depend on the exact order each statistic sees them in.
  core::ProfileResult profile;
  profile.channels.resize(static_cast<std::size_t>(machine_.num_channels()));
  for (int i = 0; i < machine_.num_channels(); ++i) {
    profile.channels[static_cast<std::size_t>(i)].channel =
        machine_.channel_at(i);
  }
  const pebs::MemLevel levels[] = {
      pebs::MemLevel::kRemoteDram, pebs::MemLevel::kRemoteDram,
      pebs::MemLevel::kLocalDram, pebs::MemLevel::kLfb, pebs::MemLevel::kL2};
  std::uint64_t lcg = 12345;
  for (int i = 0; i < 600; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    core::AttributedSample s;
    s.src_node = static_cast<topology::NodeId>((lcg >> 33) % 3);  // node 3 silent
    s.home_node = static_cast<topology::NodeId>((lcg >> 40) % 4);
    s.sample.level = levels[(lcg >> 20) % 5];
    s.sample.latency_cycles =
        static_cast<float>((lcg >> 44) % 1500) + 0.37f * static_cast<float>(i % 7);
    profile.channels[static_cast<std::size_t>(machine_.channel_index(
                         topology::ChannelId{s.src_node, s.home_node}))]
        .samples.push_back(s);
  }

  const auto channels = extract_channels(profile, machine_);
  ASSERT_EQ(channels.size(), 12u);
  std::size_t next = 0;
  for (int src = 0; src < machine_.num_nodes(); ++src) {
    for (int dst = 0; dst < machine_.num_nodes(); ++dst) {
      if (dst == src) continue;
      // Reference: a fresh scan of the source's samples per destination.
      OnlineStats all, remote, local, lfb;
      std::array<std::uint64_t, 5> above{};
      const double cuts[5] = {1000.0, 500.0, 200.0, 100.0, 50.0};
      for (const core::ChannelProfile& channel : profile.channels) {
        if (channel.channel.src != src) continue;
        for (const core::AttributedSample& s : channel.samples) {
          const double lat = s.sample.latency_cycles;
          all.add(lat);
          for (std::size_t k = 0; k < 5; ++k) {
            if (lat > cuts[k]) ++above[k];
          }
          if (s.sample.level == pebs::MemLevel::kRemoteDram &&
              s.home_node == dst) {
            remote.add(lat);
          }
          if (s.sample.level == pebs::MemLevel::kLocalDram) local.add(lat);
          if (s.sample.level == pebs::MemLevel::kLfb) lfb.add(lat);
        }
      }
      const double n = static_cast<double>(all.count());
      std::array<double, kNumSelected> want{};
      for (std::size_t k = 0; k < 5; ++k) {
        want[k] = n > 0.0 ? static_cast<double>(above[k]) / n : 0.0;
      }
      want[5] = static_cast<double>(remote.count());
      want[6] = remote.mean();
      want[7] = static_cast<double>(local.count());
      want[8] = local.mean();
      want[9] = n;
      want[10] = all.mean();
      want[11] = static_cast<double>(lfb.count());
      want[12] = lfb.mean();

      const ChannelFeatures& got = channels[next++];
      ASSERT_EQ(got.channel, (topology::ChannelId{src, dst}));
      EXPECT_EQ(got.features.scope_samples, all.count());
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got.features.values[k], want[k])
            << "channel " << src << "->" << dst << " feature " << k;
      }
      if (src < 3) {
        EXPECT_GT(remote.count(), 0u);
      }
    }
  }
}

TEST_F(FeaturesTest, WindowOfAttributedSamplesEqualsProfiledScope) {
  // Data homed on every node, read from every node in an interleaved
  // arrival order, so each source's samples arrive mixed across channels:
  // the window path must still hand each source its samples channel-major,
  // then in arrival order, as profile() files them.
  std::vector<mem::Addr> bases;
  for (int node = 0; node < machine_.num_nodes(); ++node) {
    const auto obj = space_.allocate("x.c:" + std::to_string(node) + " d",
                                     1 << 20, PlacementSpec::bind(node));
    bases.push_back(space_.object(obj).base);
  }
  const std::vector<mem::AllocationEvent> events = space_.drain_events();
  const pebs::MemLevel levels[] = {
      pebs::MemLevel::kRemoteDram, pebs::MemLevel::kRemoteDram,
      pebs::MemLevel::kLocalDram, pebs::MemLevel::kLfb, pebs::MemLevel::kL2};
  std::vector<pebs::MemorySample> samples;
  std::uint64_t lcg = 777;
  for (int i = 0; i < 900; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto src = static_cast<topology::NodeId>((lcg >> 33) % 4);
    const auto& cpus = machine_.cpus_of_node(src);
    samples.push_back(sample(
        bases[(lcg >> 40) % bases.size()] + 64 * ((lcg >> 24) % 4096),
        cpus[(lcg >> 50) % cpus.size()], levels[(lcg >> 20) % 5],
        static_cast<float>((lcg >> 44) % 1500) +
            0.37f * static_cast<float>(i % 7)));
  }

  const auto profiled = extract_channels(profiler_.profile(events, samples),
                                         machine_);
  core::HeapTracker tracker;
  tracker.on_events(events);
  std::vector<core::AttributedSample> window;
  for (const pebs::MemorySample& s : samples) {
    window.push_back(profiler_.attribute(tracker, s));
  }
  const auto windowed = extract_window(window, machine_);

  ASSERT_EQ(windowed.size(), profiled.size());
  for (std::size_t c = 0; c < profiled.size(); ++c) {
    ASSERT_EQ(windowed[c].channel, profiled[c].channel);
    EXPECT_GT(profiled[c].features.remote_dram_count(), 0.0);
    EXPECT_EQ(windowed[c].features.scope_samples,
              profiled[c].features.scope_samples);
    for (std::size_t k = 0; k < kNumSelected; ++k) {
      EXPECT_EQ(windowed[c].features.values[k], profiled[c].features.values[k])
          << "channel " << profiled[c].channel.src << "->"
          << profiled[c].channel.dst << " feature " << k;
    }
  }
}

TEST_F(FeaturesTest, NamesAndKeysAligned) {
  EXPECT_EQ(selected_feature_names().size(), 13u);
  EXPECT_EQ(selected_feature_keys().size(), 13u);
  EXPECT_EQ(selected_feature_keys()[5], "remote_dram_count");
  EXPECT_EQ(selected_feature_keys()[6], "remote_dram_avg_lat");
  EXPECT_EQ(selected_feature_names()[0],
            "Ratio of latency above 1000 among all samples");
}

TEST_F(FeaturesTest, NamedAccessorsReadRemoteDramFeatures) {
  FeatureVector v;
  v.values[5] = 12.0;
  v.values[6] = 640.0;
  EXPECT_EQ(v.remote_dram_count(), 12.0);
  EXPECT_EQ(v.remote_dram_latency(), 640.0);
}

TEST(FeatureGates, AdmitExactlyAtEachThresholdAndNotOneBelow) {
  // The whole-run gates follow §V-D / §IV-B; the window gates are the
  // serve loop's.  Pinned so a change is a deliberate, reviewed one.
  EXPECT_EQ(kRunGates.min_source_samples, 50u);
  EXPECT_EQ(kRunGates.min_remote_samples, 8u);
  EXPECT_EQ(kWindowGates.min_source_samples, 8u);
  EXPECT_EQ(kWindowGates.min_remote_samples, 2u);
  for (const Gates& gates : {kRunGates, kWindowGates}) {
    FeatureVector at;
    at.scope_samples = gates.min_source_samples;
    at.values[5] = static_cast<double>(gates.min_remote_samples);
    EXPECT_TRUE(gates.admits(at));

    FeatureVector few_source = at;
    few_source.scope_samples -= 1;
    EXPECT_FALSE(gates.admits(few_source));

    FeatureVector few_remote = at;
    few_remote.values[5] -= 1.0;
    EXPECT_FALSE(gates.admits(few_remote));
  }
}

TEST_F(FeaturesTest, CandidateCatalogueIsStableAndCategorized) {
  const auto names = candidate_names();
  EXPECT_GE(names.size(), 25u);
  const core::ProfileResult empty;
  const auto values = extract_candidates(empty);
  ASSERT_EQ(values.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(values[i].name, names[i]);
    EXPECT_TRUE(values[i].category == "identification" ||
                values[i].category == "location" ||
                values[i].category == "latency");
  }
}

TEST_F(FeaturesTest, CandidatesCountLevels) {
  const auto obj = space_.allocate("x.c:1 d", 1 << 20, PlacementSpec::bind(1));
  const mem::Addr base = space_.object(obj).base;
  const auto profile = profiler_.profile(
      space_.drain_events(),
      {sample(base, 0, pebs::MemLevel::kRemoteDram, 900.0f),
       sample(base + 64, 8, pebs::MemLevel::kLocalDram, 210.0f),
       sample(base + 128, 8, pebs::MemLevel::kL3, 41.0f)});
  const auto values = extract_candidates(profile);
  auto find = [&](const std::string& name) {
    for (const auto& v : values) {
      if (v.name == name) return v.value;
    }
    ADD_FAILURE() << "missing candidate " << name;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(find("num_RemoteDRAM_access"), 1.0);
  EXPECT_DOUBLE_EQ(find("num_LocalDRAM_access"), 1.0);
  EXPECT_DOUBLE_EQ(find("num_L3_access"), 1.0);
  EXPECT_DOUBLE_EQ(find("num_dram_access"), 2.0);
  EXPECT_DOUBLE_EQ(find("num_L3_miss"), 2.0);
  EXPECT_DOUBLE_EQ(find("total_samples"), 3.0);
  EXPECT_DOUBLE_EQ(find("num_distinct_nodes"), 2.0);
  EXPECT_DOUBLE_EQ(find("avg_RemoteDRAM_latency"), 900.0);
}

TEST(FeatureSelection, SeparablesSelectedInseparablesRejected) {
  // Synthetic study: candidate "sep" differs strongly between classes in
  // both programs; "noise" does not.
  std::vector<LabelledRun> runs;
  Rng rng(3);
  for (const char* program : {"sumv", "dotv"}) {
    for (int i = 0; i < 12; ++i) {
      for (const bool rmc : {false, true}) {
        LabelledRun run;
        run.program = program;
        run.rmc = rmc;
        run.values.push_back(
            {"sep", "latency", (rmc ? 100.0 : 10.0) + rng.normal(0, 2.0)});
        run.values.push_back({"noise", "location", rng.normal(50.0, 10.0)});
        runs.push_back(std::move(run));
      }
    }
  }
  const auto results = select_features(runs);
  ASSERT_EQ(results.size(), 2u);
  // Sorted by separation descending: "sep" first.
  EXPECT_EQ(results[0].name, "sep");
  EXPECT_TRUE(results[0].selected);
  EXPECT_EQ(results[0].programs_separated, 2);
  EXPECT_EQ(results[1].name, "noise");
  EXPECT_FALSE(results[1].selected);
}

TEST(FeatureSelection, SingleClassProgramsAreIgnored) {
  // The bandit contributes only "good" runs (Table II) and must not veto
  // selection.
  std::vector<LabelledRun> runs;
  for (int i = 0; i < 6; ++i) {
    LabelledRun bandit;
    bandit.program = "bandit";
    bandit.rmc = false;
    bandit.values.push_back({"sep", "latency", 5.0 + i});
    runs.push_back(bandit);
    for (const bool rmc : {false, true}) {
      LabelledRun run;
      run.program = "sumv";
      run.rmc = rmc;
      run.values.push_back({"sep", "latency", rmc ? 100.0 + i : 10.0 + i});
      runs.push_back(std::move(run));
    }
  }
  const auto results = select_features(runs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].programs_total, 1);  // only sumv counted
  EXPECT_TRUE(results[0].selected);
}

TEST(FeatureSelection, RejectsEmptyAndMismatched) {
  EXPECT_THROW(select_features({}), Error);
  std::vector<LabelledRun> runs(2);
  runs[0].program = "a";
  runs[0].values.push_back({"x", "latency", 1.0});
  runs[1].program = "a";
  EXPECT_THROW(select_features(runs), Error);
}

}  // namespace
}  // namespace drbw::features
