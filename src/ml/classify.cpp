#include "drbw/ml/classify.hpp"

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

std::vector<ChannelVerdict> classify_channels(
    const core::ProfileResult& profile, const topology::Machine& machine,
    const Classifier& model, const features::Gates& gates) {
  return classify_channels(features::extract_channels(profile, machine), model,
                           gates);
}

obs::Histogram& confidence_histogram() {
  static obs::Histogram& hist = obs::Registry::global().histogram(
      "drbw_model_confidence_bucket",
      "Per-window classification confidence (leaf purity, percent)",
      {50, 60, 70, 80, 90, 95, 100});
  return hist;
}

}  // namespace drbw::ml
