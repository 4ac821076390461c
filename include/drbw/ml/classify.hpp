// Per-channel classification — the one featurize -> gate -> classify path.
//
// The paper's detection unit is the verdict for one directed remote channel
// (§IV-B).  Whole-run analysis (DrBw), the online serve loop, and
// `drbw explain` all classify channels through classify_channels, so for the
// same samples and the same gates they give the same verdicts; they differ
// only in the gates they pass (features::kRunGates for whole runs,
// features::kWindowGates for short windows) and in what they do with the
// result.
#pragma once

#include <cstdint>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::ml {

/// One remote channel's verdict.
struct ChannelVerdict {
  topology::ChannelId channel;
  features::FeatureVector features;
  /// True when the channel failed the gates and was defaulted to good
  /// without consulting the model; `explanation` is then default (good).
  bool sparse = false;
  Explanation explanation;

  bool rmc() const { return explanation.label == Label::kRmc; }
};

/// Classifies every channel of `channels`, in order: channels the gates
/// admit get the model's predict_explained result, the rest are sparse.
std::vector<ChannelVerdict> classify_channels(
    const std::vector<features::ChannelFeatures>& channels,
    const Classifier& model, const features::Gates& gates);

/// The window path of `drbw analyze --windows` and `drbw explain`: replays
/// `events` into one HeapTracker, then across `jobs` workers (0 = one per
/// hardware thread; `locator` must then allow concurrent calls) attributes
/// each window's samples once, featurizes them with features::extract_window
/// and classifies them.  Entry w holds window w's verdicts, none if empty.
std::vector<std::vector<ChannelVerdict>> classify_windows(
    const std::vector<mem::AllocationEvent>& events,
    const std::vector<pebs::CycleWindow>& windows,
    const topology::Machine& machine, core::PageLocator& locator,
    const Classifier& model, const features::Gates& gates, int jobs);

/// The drbw_model_confidence_bucket histogram (leaf-purity confidence in
/// percent) shared by serve and explain.
obs::Histogram& confidence_histogram();

/// A leaf-purity confidence as the histogram's integer percent.
inline std::uint64_t confidence_percent(double confidence) {
  return static_cast<std::uint64_t>(confidence * 100.0 + 0.5);
}

}  // namespace drbw::ml
