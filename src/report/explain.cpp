#include "drbw/report/explain.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "drbw/obs/trace.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/stats.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::report {

ExplainResult explain_windows(const topology::Machine& machine,
                              const ml::Classifier& model,
                              const std::vector<mem::AllocationEvent>& events,
                              const std::vector<pebs::CycleWindow>& windows,
                              int jobs) {
  obs::Span explain_span("explain");
  ExplainResult result;
  core::MasterNodeLocator locator;
  std::vector<std::vector<ml::ChannelVerdict>> classified =
      ml::classify_windows(events, windows, machine, locator, model,
                           features::kWindowGates, jobs);

  // Serial aggregation in window order: decision-path frequency,
  // per-feature attribution sums, and the confidence summary.
  std::map<std::string, PathTally> paths;
  const std::size_t num_features = model.feature_names().size();
  std::vector<double> attr_sum(num_features, 0.0);
  std::vector<double> attr_abs(num_features, 0.0);
  std::vector<double> confidences;
  obs::Histogram& conf_hist = ml::confidence_histogram();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    ExplainWindow& window = result.windows.emplace_back(ExplainWindow{
        windows[w].start, windows[w].end, windows[w].samples.size(), {}});
    bool window_rmc = false;
    double window_confidence = 1.0;
    for (ml::ChannelVerdict& v : classified[w]) {
      if (v.sparse) continue;
      const ml::Explanation& exp = v.explanation;
      ++result.rows;
      if (v.rmc()) {
        ++result.rmc_rows;
        window_rmc = true;
      }
      confidences.push_back(exp.confidence);
      window_confidence = std::min(window_confidence, exp.confidence);
      PathTally& tally = paths[exp.path_signature()];
      ++tally.count;
      if (v.rmc()) ++tally.rmc;
      for (std::size_t f = 0; f < exp.attributions.size(); ++f) {
        attr_sum[f] += exp.attributions[f];
        attr_abs[f] += std::abs(exp.attributions[f]);
      }
      window.verdicts.push_back(std::move(v));
    }
    if (window.verdicts.empty()) continue;
    ++result.windows_explained;
    if (window_rmc) ++result.windows_rmc;
    conf_hist.observe(ml::confidence_percent(window_confidence));
  }
  result.confidence_p50 = lower_median(confidences);
  result.confidence_min =
      confidences.empty()
          ? 0.0
          : *std::min_element(confidences.begin(), confidences.end());

  for (auto& [signature, tally] : paths) {
    tally.signature = signature;
    result.paths.push_back(tally);
  }
  // The map iterates by signature, so a stable sort on count keeps the
  // signature as the tie-break.
  std::stable_sort(result.paths.begin(), result.paths.end(),
                   [](const PathTally& a, const PathTally& b) {
                     return a.count > b.count;
                   });

  const auto& keys = features::selected_feature_keys();
  const double rows = static_cast<double>(result.rows);
  for (std::size_t f = 0; f < num_features; ++f) {
    result.attributions.push_back(FeatureAttribution{
        f < keys.size() ? keys[f] : model.feature_names()[f],
        result.rows > 0 ? attr_sum[f] / rows : 0.0,
        result.rows > 0 ? attr_abs[f] / rows : 0.0});
  }
  return result;
}

std::string explain_json(const ExplainResult& result,
                         const topology::Machine& machine,
                         const std::string& trace, const std::string& model) {
  // Golden-vs-context split like the run manifest, but nothing here depends
  // on the jobs count, so the whole document (and its header checksum) is
  // byte-identical at any value.
  Json golden = JsonObject{};
  Json summary = JsonObject{};
  summary.set("windows", result.windows.size());
  summary.set("windows_explained", result.windows_explained);
  summary.set("windows_rmc", result.windows_rmc);
  summary.set("rows", result.rows);
  summary.set("rmc_rows", result.rmc_rows);
  summary.set("confidence_p50", result.confidence_p50);
  summary.set("confidence_min", result.confidence_min);
  golden.set("summary", std::move(summary));
  Json window_list = JsonArray{};
  for (std::size_t w = 0; w < result.windows.size(); ++w) {
    const ExplainWindow& window = result.windows[w];
    Json entry = JsonObject{};
    entry.set("window", w);
    entry.set("start", window.start);
    entry.set("end", window.end);
    entry.set("samples", window.samples);
    Json verdicts = JsonArray{};
    for (const ml::ChannelVerdict& v : window.verdicts) {
      Json row = JsonObject{};
      row.set("channel", machine.channel_name(v.channel));
      row.set("label", v.rmc() ? "rmc" : "good");
      row.set("confidence", v.explanation.confidence);
      row.set("path", v.explanation.path_signature());
      row.set("leaf", v.explanation.leaf);
      verdicts.push_back(std::move(row));
    }
    entry.set("verdicts", std::move(verdicts));
    window_list.push_back(std::move(entry));
  }
  golden.set("windows", std::move(window_list));
  Json path_list = JsonArray{};
  for (const PathTally& tally : result.paths) {
    Json entry = JsonObject{};
    entry.set("signature", tally.signature);
    entry.set("count", tally.count);
    entry.set("rmc", tally.rmc);
    path_list.push_back(std::move(entry));
  }
  golden.set("paths", std::move(path_list));
  Json attribution_list = JsonArray{};
  for (const FeatureAttribution& a : result.attributions) {
    Json entry = JsonObject{};
    entry.set("feature", a.feature);
    entry.set("mean", a.mean);
    entry.set("mean_abs", a.mean_abs);
    attribution_list.push_back(std::move(entry));
  }
  golden.set("attributions", std::move(attribution_list));
  Json context = JsonObject{};
  context.set("trace", trace);
  context.set("model", model.empty() ? "(trained in-process)" : model);
  Json doc = JsonObject{};
  doc.set("drbw_explain", kExplainVersion);
  doc.set("golden", std::move(golden));
  doc.set("context", std::move(context));
  return doc.dump(2) + "\n";
}

std::string explain_markdown(const ExplainResult& result,
                             const topology::Machine& machine,
                             const std::string& trace,
                             const std::string& model) {
  std::ostringstream md;
  md << "# DR-BW explain report\n\n`" << trace << "` vs "
     << (model.empty() ? std::string("an in-process model")
                       : "`" + model + "`")
     << ": " << result.windows_explained << " of " << result.windows.size()
     << " window(s) explained, " << result.rows << " channel verdict(s) ("
     << result.rmc_rows << " rmc), confidence p50 "
     << format_fixed(result.confidence_p50, 3) << ", min "
     << format_fixed(result.confidence_min, 3) << "\n";
  md << "\n## Decision paths\n\n| path | count | rmc |\n|---|---:|---:|\n";
  for (const PathTally& tally : result.paths) {
    md << "| `" << tally.signature << "` | " << tally.count << " | "
       << tally.rmc << " |\n";
  }
  md << "\n## Feature attribution (mean delta-P(rmc) per verdict)\n\n"
        "| feature | mean | mean abs |\n|---|---:|---:|\n";
  for (const FeatureAttribution& a : result.attributions) {
    md << "| " << a.feature << " | " << format_fixed(a.mean, 4) << " | "
       << format_fixed(a.mean_abs, 4) << " |\n";
  }
  md << "\n## Windows\n";
  for (std::size_t w = 0; w < result.windows.size(); ++w) {
    const ExplainWindow& window = result.windows[w];
    md << "\n### window " << w << " [" << window.start << ", " << window.end
       << ") — " << window.samples << " sample(s)\n\n";
    if (window.verdicts.empty()) {
      md << "no explainable channel (sparse window)\n";
      continue;
    }
    md << "| channel | verdict | confidence | path |\n"
          "|---|---|---:|---|\n";
    for (const ml::ChannelVerdict& v : window.verdicts) {
      md << "| " << machine.channel_name(v.channel) << " | "
         << (v.rmc() ? "RMC" : "good") << " | "
         << format_fixed(v.explanation.confidence, 3) << " | `"
         << v.explanation.path_signature() << "` |\n";
    }
  }
  return md.str();
}

}  // namespace drbw::report
