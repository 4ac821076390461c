#include "drbw/features/selected.hpp"

#include <algorithm>

#include "drbw/obs/trace.hpp"
#include "drbw/util/error.hpp"
#include "drbw/util/stats.hpp"

namespace drbw::features {

const std::array<std::string, kNumSelected>& selected_feature_names() {
  static const std::array<std::string, kNumSelected> names = {
      "Ratio of latency above 1000 among all samples",
      "Ratio of latency above 500 among all samples",
      "Ratio of latency above 200 among all samples",
      "Ratio of latency above 100 among all samples",
      "Ratio of latency above 50 among all samples",
      "# of remote dram access sample",
      "Average remote dram access latency",
      "# of local dram access sample",
      "Average local dram access latency",
      "Total # of memory access sample",
      "Average memory access latency",
      "Total # of line fill buffer access sample",
      "Line fill buffer access latency",
  };
  return names;
}

const std::array<std::string, kNumSelected>& selected_feature_keys() {
  static const std::array<std::string, kNumSelected> keys = {
      "lat_ratio_1000", "lat_ratio_500", "lat_ratio_200", "lat_ratio_100",
      "lat_ratio_50",   "remote_dram_count", "remote_dram_avg_lat",
      "local_dram_count", "local_dram_avg_lat", "total_samples",
      "avg_latency",    "lfb_count",       "lfb_avg_lat",
  };
  return keys;
}

namespace {

/// Accumulates Table I statistics over one scope.  The remote-DRAM
/// statistics (features 6-7) cover every remote sample, or — given
/// `num_nodes` — are split by home node, so one pass over a source node's
/// samples fills every channel leaving it (finish(home)).
class Accumulator {
 public:
  explicit Accumulator(int num_nodes = 0)
      : remote_by_home_(static_cast<std::size_t>(num_nodes)) {}

  void add(const core::AttributedSample& s) {
    const double lat = s.sample.latency_cycles;
    all_.add(lat);
    if (lat > 1000.0) ++above_[0];
    if (lat > 500.0) ++above_[1];
    if (lat > 200.0) ++above_[2];
    if (lat > 100.0) ++above_[3];
    if (lat > 50.0) ++above_[4];

    switch (s.sample.level) {
      case pebs::MemLevel::kRemoteDram:
        (remote_by_home_.empty()
             ? remote_
             : remote_by_home_[static_cast<std::size_t>(s.home_node)])
            .add(lat);
        break;
      case pebs::MemLevel::kLocalDram:
        local_.add(lat);
        break;
      case pebs::MemLevel::kLfb:
        lfb_.add(lat);
        break;
      default:
        break;
    }
  }

  FeatureVector finish() const { return finish(remote_); }
  FeatureVector finish(topology::NodeId home) const {
    return finish(remote_by_home_[static_cast<std::size_t>(home)]);
  }

 private:
  FeatureVector finish(const OnlineStats& remote) const {
    FeatureVector v;
    const auto n = static_cast<double>(all_.count());
    for (int i = 0; i < 5; ++i) {
      v.values[static_cast<std::size_t>(i)] =
          n > 0.0 ? static_cast<double>(above_[static_cast<std::size_t>(i)]) / n
                  : 0.0;
    }
    v.values[5] = static_cast<double>(remote.count());
    v.values[6] = remote.mean();
    v.values[7] = static_cast<double>(local_.count());
    v.values[8] = local_.mean();
    v.values[9] = n;
    v.values[10] = all_.mean();
    v.values[11] = static_cast<double>(lfb_.count());
    v.values[12] = lfb_.mean();
    v.scope_samples = all_.count();
    return v;
  }

  OnlineStats all_;
  OnlineStats remote_;
  std::vector<OnlineStats> remote_by_home_;
  OnlineStats local_;
  OnlineStats lfb_;
  std::array<std::uint64_t, 5> above_{};
};

}  // namespace

FeatureVector extract_run(const core::ProfileResult& profile) {
  Accumulator acc;
  for (const core::ChannelProfile& channel : profile.channels) {
    for (const core::AttributedSample& s : channel.samples) acc.add(s);
  }
  return acc.finish();
}

namespace {

/// The one channel-featurize driver.  `ordered` holds a scope's samples
/// grouped by source node, source s in [begin[s], begin[s + 1]), each group
/// in the order its Accumulator must see it.  The sources' accumulators
/// advance in lockstep, one sample each per round, so their independent
/// Welford chains overlap instead of running one after another; each still
/// sees exactly its own order, so every value is bit-for-bit what one pass
/// per source gives.
std::vector<ChannelFeatures> featurize_sources(
    const std::vector<const core::AttributedSample*>& ordered,
    const std::vector<std::size_t>& begin, const topology::Machine& machine) {
  const int nodes = machine.num_nodes();
  std::vector<Accumulator> acc(static_cast<std::size_t>(nodes),
                               Accumulator(nodes));
  std::size_t rounds = 0;
  for (int src = 0; src < nodes; ++src) {
    const auto s = static_cast<std::size_t>(src);
    rounds = std::max(rounds, begin[s + 1] - begin[s]);
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t s = 0; s < acc.size(); ++s) {
      const std::size_t at = begin[s] + round;
      if (at < begin[s + 1]) acc[s].add(*ordered[at]);
    }
  }
  std::vector<ChannelFeatures> out;
  out.reserve(static_cast<std::size_t>(nodes * (nodes - 1)));
  for (int src = 0; src < nodes; ++src) {
    for (int dst = 0; dst < nodes; ++dst) {
      if (dst == src) continue;  // detection targets remote channels only
      ChannelFeatures cf;
      cf.channel = topology::ChannelId{src, dst};
      cf.features = acc[static_cast<std::size_t>(src)].finish(dst);
      out.push_back(std::move(cf));
    }
  }
  return out;
}

}  // namespace

std::vector<ChannelFeatures> extract_channels(const core::ProfileResult& profile,
                                              const topology::Machine& machine) {
  // Channel-major per source: the profile's channel order, then arrival.
  const int nodes = machine.num_nodes();
  std::vector<const core::AttributedSample*> ordered;
  ordered.reserve(profile.total_samples);
  std::vector<std::size_t> begin(static_cast<std::size_t>(nodes) + 1, 0);
  for (int src = 0; src < nodes; ++src) {
    for (const core::ChannelProfile& channel : profile.channels) {
      if (channel.channel.src != src) continue;
      for (const core::AttributedSample& s : channel.samples) {
        ordered.push_back(&s);
      }
    }
    begin[static_cast<std::size_t>(src) + 1] = ordered.size();
  }
  return featurize_sources(ordered, begin, machine);
}

std::vector<ChannelFeatures> extract_window(
    const std::vector<core::AttributedSample>& samples,
    const topology::Machine& machine) {
  obs::Span span("profile");
  span.arg("samples", static_cast<double>(samples.size()));
  // Stable counting sort by channel index (Machine::channel_index,
  // src * nodes + home): each source's channels are one contiguous run, so
  // the sorted order is channel-major per source, then arrival.
  const auto nodes = static_cast<std::size_t>(machine.num_nodes());
  const auto channel_of = [nodes](const core::AttributedSample& s) {
    const auto src = static_cast<std::size_t>(s.src_node);
    const auto home = static_cast<std::size_t>(s.home_node);
    DRBW_CHECK(src < nodes && home < nodes);
    return src * nodes + home;
  };
  std::vector<std::size_t> next(nodes * nodes + 1, 0);
  std::uint64_t attributed = 0;
  for (const core::AttributedSample& s : samples) {
    ++next[channel_of(s) + 1];
    if (s.object != core::kUnknownObject) ++attributed;
  }
  core::Profiler::count_scope(samples.size(), attributed);
  for (std::size_t c = 1; c < next.size(); ++c) next[c] += next[c - 1];
  std::vector<std::size_t> begin(nodes + 1);
  for (std::size_t src = 0; src <= nodes; ++src) begin[src] = next[src * nodes];
  std::vector<const core::AttributedSample*> ordered(samples.size());
  for (const core::AttributedSample& s : samples) {
    ordered[next[channel_of(s)]++] = &s;
  }
  return featurize_sources(ordered, begin, machine);
}

}  // namespace drbw::features
