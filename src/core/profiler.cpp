#include "drbw/core/profiler.hpp"

#include "drbw/obs/trace.hpp"

namespace drbw::core {

namespace {

struct ProfilerMetrics {
  obs::Counter& calls;
  obs::Counter& attributed;
  obs::Counter& unattributed;

  static ProfilerMetrics& get() {
    auto& reg = obs::Registry::global();
    static ProfilerMetrics m{
        reg.counter("drbw_core_profile_calls_total", "Profiler::profile calls"),
        reg.counter("drbw_core_samples_attributed_total",
                    "Samples mapped to a tracked data object"),
        reg.counter("drbw_core_samples_unattributed_total",
                    "Samples whose address matched no tracked object"),
    };
    return m;
  }
};

}  // namespace

Profiler::Profiler(const topology::Machine& machine, PageLocator& locator)
    : machine_(machine), locator_(locator) {}

ProfileResult Profiler::profile(const sim::RunResult& run) const {
  return profile(run.alloc_events, run.samples);
}

ProfileResult Profiler::profile(
    const std::vector<mem::AllocationEvent>& events,
    const std::vector<pebs::MemorySample>& samples) const {
  obs::Span span("profile");
  span.arg("samples", static_cast<double>(samples.size()));
  ProfileResult result;
  result.channels.resize(static_cast<std::size_t>(machine_.num_channels()));
  for (int i = 0; i < machine_.num_channels(); ++i) {
    result.channels[static_cast<std::size_t>(i)].channel = machine_.channel_at(i);
  }
  result.tracker.on_events(events);

  for (const pebs::MemorySample& sample : samples) {
    const AttributedSample attributed = attribute(result.tracker, sample);
    const int index = machine_.channel_index(
        topology::ChannelId{attributed.src_node, attributed.home_node});
    if (attributed.object != kUnknownObject) ++result.attributed_samples;
    ++result.total_samples;
    result.channels[static_cast<std::size_t>(index)].samples.push_back(
        attributed);
  }
  count_scope(result.total_samples, result.attributed_samples);
  return result;
}

AttributedSample Profiler::attribute(const HeapTracker& tracker,
                                     const pebs::MemorySample& sample) const {
  AttributedSample attributed;
  attributed.sample = sample;
  attributed.src_node = machine_.node_of_cpu(sample.cpu);
  attributed.home_node = locator_.locate(sample.address, attributed.src_node);
  attributed.object = tracker.object_of(sample.address);
  return attributed;
}

void Profiler::count_scope(std::uint64_t total, std::uint64_t attributed) {
  ProfilerMetrics& metrics = ProfilerMetrics::get();
  metrics.calls.add(1);
  metrics.attributed.add(attributed);
  metrics.unattributed.add(total - attributed);
}

}  // namespace drbw::core
