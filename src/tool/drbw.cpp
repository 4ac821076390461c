#include "drbw/drbw.hpp"

#include <sstream>

#include "drbw/obs/trace.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/table.hpp"

namespace drbw {

namespace {

obs::Counter& channels_classified_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "drbw_pipeline_channels_classified_total",
      "Channel verdicts produced by DrBw::analyze_profile (incl. sparse)");
  return counter;
}

}  // namespace

DrBw::DrBw(const topology::Machine& machine, ml::Classifier model,
           features::Gates gates)
    : machine_(machine), model_(std::move(model)), gates_(gates) {
  DRBW_CHECK_MSG(model_.feature_names().size() == features::kNumSelected,
                 "model expects " << model_.feature_names().size()
                                  << " features; DR-BW extracts "
                                  << features::kNumSelected);
}

Report DrBw::analyze(const sim::RunResult& run,
                     core::PageLocator& locator) const {
  core::Profiler profiler(machine_, locator);
  return analyze_profile(profiler.profile(run));
}

Report DrBw::analyze_profile(core::ProfileResult profile) const {
  Report report;
  std::vector<features::ChannelFeatures> channel_features;
  {
    obs::Span span("featurize");
    span.arg("samples", static_cast<double>(profile.total_samples));
    channel_features = features::extract_channels(profile, machine_);
  }
  {
    obs::Span span("classify");
    span.arg("channels", static_cast<double>(channel_features.size()));
    report.channels = ml::classify_channels(channel_features, model_, gates_);
    for (const ChannelVerdict& v : report.channels) {
      if (v.rmc()) report.contended.push_back(v.channel);
    }
    channels_classified_counter().add(report.channels.size());
  }
  report.rmc = !report.contended.empty();
  if (report.rmc) {
    obs::Span span("diagnose");
    span.arg("contended_channels", static_cast<double>(report.contended.size()));
    report.diagnosis = diagnoser::diagnose(profile, report.contended);
    report.advice = diagnoser::advise(profile, report.contended);
  }
  report.profile = std::move(profile);
  return report;
}

std::vector<WindowVerdict> DrBw::analyze_windows(
    const std::vector<mem::AllocationEvent>& events,
    const std::vector<pebs::CycleWindow>& windows,
    core::PageLocator& locator) const {
  std::vector<std::vector<ChannelVerdict>> classified = ml::classify_windows(
      events, windows, machine_, locator, model_, gates_, /*jobs=*/1);
  std::vector<WindowVerdict> verdicts;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    WindowVerdict& verdict = verdicts.emplace_back(
        WindowVerdict{windows[w].start, windows[w].end,
                      windows[w].samples.size(), false, {},
                      std::move(classified[w])});
    for (const ChannelVerdict& v : verdict.channels) {
      if (v.rmc()) verdict.contended.push_back(v.channel);
    }
    verdict.rmc = !verdict.contended.empty();
  }
  return verdicts;
}

std::string Report::to_string(const topology::Machine& machine) const {
  std::ostringstream os;
  os << "DR-BW verdict: " << (rmc ? "rmc (remote bandwidth contention)"
                                  : "good (no remote bandwidth contention)")
     << '\n';
  TablePrinter t({{"channel", Align::kLeft},
                  {"samples@src", Align::kRight},
                  {"remote samples", Align::kRight},
                  {"avg remote lat", Align::kRight},
                  {"verdict", Align::kLeft}});
  for (const ChannelVerdict& v : channels) {
    t.add_row({machine.channel_name(v.channel),
               std::to_string(v.features.scope_samples),
               format_fixed(v.features.remote_dram_count(), 0),
               format_fixed(v.features.remote_dram_latency(), 1),
               v.sparse ? "good (sparse)" : (v.rmc() ? "RMC" : "good")});
  }
  os << t.render();
  if (rmc) {
    os << '\n' << diagnoser::render(diagnosis);
    os << '\n' << diagnoser::render_advice(advice);
  }
  return os.str();
}

}  // namespace drbw
