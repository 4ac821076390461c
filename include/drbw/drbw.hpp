// DR-BW — the end-to-end tool (Fig. 2's workflow).
//
//   profiler -> per-channel features -> decision-tree classifier
//            -> (if contended) root-cause diagnoser
//
// DrBw wraps a trained ml::Classifier and, given a run's sample stream,
// produces a Report: a per-remote-channel verdict, the overall good/rmc
// call, and — when contention is detected — the ranked Contribution
// Fractions of the data objects responsible.  Windowed analysis takes the
// window path serve and `drbw explain` share (ml::classify_windows): one
// allocation-table replay, each sample attributed once, a verdict per
// window and no diagnosis.  This is the class the example programs and the
// evaluation harnesses drive; everything below it (sampling, channel
// association, attribution) is reusable on its own.
#pragma once

#include <string>
#include <vector>

#include "drbw/core/profiler.hpp"
#include "drbw/diagnoser/advice.hpp"
#include "drbw/diagnoser/diagnoser.hpp"
#include "drbw/features/selected.hpp"
#include "drbw/ml/classify.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/ml/metrics.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw {

using ChannelVerdict = ml::ChannelVerdict;

struct Report {
  /// The paper's per-case rule 1 (§VII-A): rmc iff at least one remote
  /// channel is detected contended.
  bool rmc = false;
  std::vector<ChannelVerdict> channels;
  std::vector<topology::ChannelId> contended;
  diagnoser::Diagnosis diagnosis;          // populated when rmc
  std::vector<diagnoser::Advice> advice;   // populated when rmc
  core::ProfileResult profile;             // retained for further inspection

  /// Full human-readable report.
  std::string to_string(const topology::Machine& machine) const;
};

/// Verdict for one time window of a run (phase-aware detection): programs
/// like AMG2006 contend only in some phases, and a whole-run verdict blurs
/// that.  Windows with too few samples are reported as sparse/good.
struct WindowVerdict {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::size_t samples = 0;
  bool rmc = false;
  std::vector<topology::ChannelId> contended;
  /// Every remote channel's verdict, sparse included (none if no samples).
  std::vector<ChannelVerdict> channels;
};

class DrBw {
 public:
  /// `gates` default channels to good as sparse (see features::Gates).
  DrBw(const topology::Machine& machine, ml::Classifier model,
       features::Gates gates = features::kRunGates);

  /// Profiles a finished run (its samples + allocation events) and
  /// classifies/diagnoses it.
  Report analyze(const sim::RunResult& run, core::PageLocator& locator) const;

  /// Same, for a pre-built profile (replayed traces, tests).
  Report analyze_profile(core::ProfileResult profile) const;

  /// Phase-aware detection over windows cut by pebs::split_cycle_windows,
  /// under this tool's gates.  Latency-profile features are duration-free,
  /// so the whole-run model applies; count features shrink with the window,
  /// which only makes windowed detection more conservative.  Allocation
  /// events carry no timestamps, so `events` is every window's table.
  std::vector<WindowVerdict> analyze_windows(
      const std::vector<mem::AllocationEvent>& events,
      const std::vector<pebs::CycleWindow>& windows,
      core::PageLocator& locator) const;

  const ml::Classifier& model() const { return model_; }
  const topology::Machine& machine() const { return machine_; }

 private:
  const topology::Machine& machine_;
  ml::Classifier model_;
  features::Gates gates_;
};

}  // namespace drbw
