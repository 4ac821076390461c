// `drbw explain` — model observability for a windowed trace.
//
// Every cycle window goes through ml::classify_windows, the window path
// serve and `drbw analyze --windows` share, under features::kWindowGates
// (the serve loop's gates); each admitted verdict keeps its decision path,
// leaf-purity confidence, and Saabas-style per-feature attribution.  The
// aggregate — decision-path frequency, attribution means, confidence
// summary — renders as the checksummed `#drbw-explain v1` JSON artifact and
// as a per-window Markdown report.  Windows are explained in an indexed
// fan-out and aggregated in window order, so every output is byte-identical
// at any jobs count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drbw/ml/classify.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::report {

/// Version of the `#drbw-explain` JSON artifact.
inline constexpr int kExplainVersion = 1;

struct ExplainWindow {
  std::uint64_t start = 0, end = 0;
  std::size_t samples = 0;
  std::vector<ml::ChannelVerdict> verdicts;  ///< admitted channels only
};

/// One distinct decision path: how many verdicts took it, how many rmc.
struct PathTally {
  std::string signature;
  std::uint64_t count = 0, rmc = 0;
};

/// Mean (and mean absolute) delta-P(rmc) one feature contributed per verdict.
struct FeatureAttribution {
  std::string feature;
  double mean = 0.0, mean_abs = 0.0;
};

struct ExplainResult {
  std::vector<ExplainWindow> windows;
  std::uint64_t windows_explained = 0, windows_rmc = 0;
  std::uint64_t rows = 0, rmc_rows = 0;  ///< verdicts across every window
  double confidence_p50 = 0.0, confidence_min = 0.0;  ///< over every verdict
  std::vector<PathTally> paths;  ///< most common first, then by signature
  std::vector<FeatureAttribution> attributions;  ///< one per model feature
};

/// Explains `windows` against the allocation table `events` across `jobs`
/// workers (0 = one per hardware thread) under the "explain" span, and
/// observes each explained window's lowest verdict confidence into
/// ml::confidence_histogram().
ExplainResult explain_windows(const topology::Machine& machine,
                              const ml::Classifier& model,
                              const std::vector<mem::AllocationEvent>& events,
                              const std::vector<pebs::CycleWindow>& windows,
                              int jobs);

/// Body of the `#drbw-explain v1` artifact; `trace` and `model` (empty =
/// trained in-process) land in its context block.
std::string explain_json(const ExplainResult& result,
                         const topology::Machine& machine,
                         const std::string& trace, const std::string& model);
/// The per-window Markdown report.
std::string explain_markdown(const ExplainResult& result,
                             const topology::Machine& machine,
                             const std::string& trace,
                             const std::string& model);

}  // namespace drbw::report
