#include "drbw/ml/classify.hpp"

#include "drbw/util/task_pool.hpp"

namespace drbw::ml {

std::vector<ChannelVerdict> classify_channels(
    const std::vector<features::ChannelFeatures>& channels,
    const Classifier& model, const features::Gates& gates) {
  std::vector<ChannelVerdict> verdicts;
  verdicts.reserve(channels.size());
  for (const features::ChannelFeatures& ch : channels) {
    ChannelVerdict v;
    v.channel = ch.channel;
    v.features = ch.features;
    v.sparse = !gates.admits(ch.features);
    if (!v.sparse) v.explanation = model.predict_explained(ch.features.as_row());
    verdicts.push_back(std::move(v));
  }
  return verdicts;
}

std::vector<std::vector<ChannelVerdict>> classify_windows(
    const std::vector<mem::AllocationEvent>& events,
    const std::vector<pebs::CycleWindow>& windows,
    const topology::Machine& machine, core::PageLocator& locator,
    const Classifier& model, const features::Gates& gates, int jobs) {
  core::HeapTracker tracker;
  tracker.on_events(events);
  const core::Profiler profiler(machine, locator);
  std::vector<std::vector<ChannelVerdict>> verdicts(windows.size());
  util::TaskPool pool(jobs);
  pool.parallel_for(windows.size(), [&](std::size_t w) {
    const std::vector<pebs::MemorySample>& samples = windows[w].samples;
    if (samples.empty()) return;
    std::vector<core::AttributedSample> attributed;
    attributed.reserve(samples.size());
    for (const pebs::MemorySample& sample : samples) {
      attributed.push_back(profiler.attribute(tracker, sample));
    }
    verdicts[w] = classify_channels(
        features::extract_window(attributed, machine), model, gates);
  });
  return verdicts;
}

obs::Histogram& confidence_histogram() {
  static obs::Histogram& hist = obs::Registry::global().histogram(
      "drbw_model_confidence_bucket",
      "Per-window classification confidence (leaf purity, percent)",
      {50, 60, 70, 80, 90, 95, 100});
  return hist;
}

}  // namespace drbw::ml
