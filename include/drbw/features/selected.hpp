// The 13 selected features of Table I.
//
// Feature semantics (indices match the paper's Table I, 1-based there):
//   [0]  Ratio of latency above 1000 cycles among all samples
//   [1]  Ratio of latency above 500
//   [2]  Ratio of latency above 200
//   [3]  Ratio of latency above 100
//   [4]  Ratio of latency above 50
//   [5]  # of remote-DRAM access samples
//   [6]  Average remote-DRAM access latency
//   [7]  # of local-DRAM access samples
//   [8]  Average local-DRAM access latency
//   [9]  Total # of memory access samples
//   [10] Average memory access latency
//   [11] Total # of line-fill-buffer access samples
//   [12] Average line-fill-buffer access latency
//
// Extraction operates on an *analysis scope*:
//   * whole run  — a training instance (each Table II row is one run), or
//   * one directed remote channel — the detection unit (§IV-B).  For the
//     channel (i -> j) the scope is all samples issued from node i, with
//     the remote-DRAM statistics (features 6-7) restricted to samples whose
//     data lives on node j — the traffic actually on that channel.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::features {

inline constexpr int kNumSelected = 13;

/// Table I descriptions, index-aligned with FeatureVector::values.
const std::array<std::string, kNumSelected>& selected_feature_names();

/// Short machine-readable names ("lat_ratio_1000", "remote_dram_count", ...).
const std::array<std::string, kNumSelected>& selected_feature_keys();

struct FeatureVector {
  std::array<double, kNumSelected> values{};
  /// Number of samples in the scope (diagnostic; equals values[9]).
  std::size_t scope_samples = 0;

  /// Feature 6: remote-DRAM samples in the scope (on the channel, for a
  /// channel scope).
  double remote_dram_count() const { return values[5]; }
  /// Feature 7: their average latency in cycles.
  double remote_dram_latency() const { return values[6]; }

  std::vector<double> as_row() const {
    return std::vector<double>(values.begin(), values.end());
  }
};

/// Sparse-scope gates.  A channel whose source node produced fewer than
/// `min_source_samples` samples — hardware sampling "does not monitor every
/// memory access" (§V-D), so a starved batch carries no signal — or that
/// carries fewer than `min_remote_samples` remote-DRAM samples — §IV-B: a
/// channel with (almost) no observed traffic cannot be diagnosed as
/// contended — is defaulted to good without consulting the model.
struct Gates {
  std::size_t min_source_samples = 0;
  std::size_t min_remote_samples = 0;

  bool admits(const FeatureVector& f) const {
    return f.scope_samples >= min_source_samples &&
           f.remote_dram_count() >= static_cast<double>(min_remote_samples);
  }
};

/// Whole-run gates (DrBw::analyze, `drbw analyze`): a run-length scope has
/// thousands of samples per source node, so only a truly starved one fails.
inline constexpr Gates kRunGates{50, 8};
/// Window gates (`drbw serve`, `drbw explain`): a cycle window or a sliding
/// serve buffer holds a small fraction of a run, so the run gates would
/// default nearly every channel to good.
inline constexpr Gates kWindowGates{8, 2};

/// Features of one remote channel, ready for classification.
struct ChannelFeatures {
  topology::ChannelId channel;
  FeatureVector features;
};

/// Whole-run scope: one vector over every sample of the profile.
FeatureVector extract_run(const core::ProfileResult& profile);

/// Per-channel scope for every remote channel of the machine, in channel
/// index order.
std::vector<ChannelFeatures> extract_channels(const core::ProfileResult& profile,
                                              const topology::Machine& machine);

/// The window featurize step of serve, `drbw analyze --windows` and
/// `drbw explain`: the same scopes over samples attributed one at a time,
/// counted as one profiled scope under the "profile" span.  Each source
/// node sees its samples in the order profile() would file them — channel
/// index, then arrival — so the result equals, value for value,
/// extract_channels(Profiler::profile(...)) over the same samples.
std::vector<ChannelFeatures> extract_window(
    const std::vector<core::AttributedSample>& samples,
    const topology::Machine& machine);

}  // namespace drbw::features
