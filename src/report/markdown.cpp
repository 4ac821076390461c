#include "drbw/report/markdown.hpp"

#include <sstream>

#include "drbw/fault/injector.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::report {

namespace {

/// A 20-slot unicode-free bar for CF values (Markdown renders it verbatim).
std::string bar(double fraction) {
  const int filled =
      std::max(0, std::min(20, static_cast<int>(fraction * 20.0 + 0.5)));
  return std::string(static_cast<std::size_t>(filled), '#') +
         std::string(static_cast<std::size_t>(20 - filled), '.');
}

}  // namespace

std::string to_markdown(const Report& result, const topology::Machine& machine,
                        const ReportMeta& meta) {
  std::ostringstream md;
  md << "# " << meta.title << "\n\n";
  if (!meta.workload.empty()) md << "*Workload:* " << meta.workload << "  \n";
  md << "*Machine:* " << machine.spec().name << " (" << machine.num_nodes()
     << " NUMA nodes, " << machine.num_cores() << " cores)  \n";
  md << "*Verdict:* **"
     << (result.rmc ? "remote memory bandwidth contention (rmc)"
                    : "no remote bandwidth contention (good)")
     << "**\n";
  if (!meta.notes.empty()) md << "\n> " << meta.notes << "\n";

  md << "\n## Per-channel classification\n\n"
     << "| channel | samples@source | remote samples | avg remote latency "
        "(cyc) | verdict |\n"
     << "|---|---:|---:|---:|---|\n";
  for (const ChannelVerdict& v : result.channels) {
    md << "| " << machine.channel_name(v.channel) << " | "
       << v.features.scope_samples << " | "
       << format_fixed(v.features.remote_dram_count(), 0) << " | "
       << format_fixed(v.features.remote_dram_latency(), 1) << " | "
       << (v.sparse ? "good (sparse)" : (v.rmc() ? "**RMC**" : "good"))
       << " |\n";
  }

  if (result.rmc) {
    md << "\n## Root cause — Contribution Fractions\n\n"
       << "Aggregated over " << result.diagnosis.channels.size()
       << " contended channel(s), " << result.diagnosis.total_samples
       << " samples.\n\n"
       << "| data object | CF | samples | |\n|---|---:|---:|---|\n";
    for (const auto& c : result.diagnosis.ranking) {
      md << "| `" << c.site << "` | " << format_percent(c.cf) << " | "
         << c.samples << " | `" << bar(c.cf) << "` |\n";
    }
    if (result.diagnosis.untracked_samples > 0) {
      md << "| *(untracked static/stack data)* | "
         << format_percent(result.diagnosis.untracked_cf) << " | "
         << result.diagnosis.untracked_samples << " | `"
         << bar(result.diagnosis.untracked_cf) << "` |\n";
    }

    md << "\n## Optimization guidance\n\n";
    if (result.advice.empty()) {
      md << "No heap object dominates the contended traffic; the hot data "
            "is likely statically allocated — `numactl --interleave` is the "
            "available lever.\n";
    }
    for (const auto& a : result.advice) {
      md << "- **" << diagnoser::remedy_name(a.remedy) << "** `"
         << a.evidence.site << "` (CF " << format_percent(a.evidence.cf)
         << ", writes " << format_percent(a.evidence.write_fraction) << ", "
         << a.evidence.accessing_nodes << " accessing node(s)): "
         << a.rationale << "\n";
    }
  }
  return md.str();
}

std::string timeline_markdown(const std::vector<WindowVerdict>& windows,
                              const topology::Machine& machine) {
  std::ostringstream md;
  md << "\n## Contention timeline\n\n"
     << "| window (cycles) | samples | verdict | contended channels |\n"
     << "|---|---:|---|---|\n";
  for (const WindowVerdict& w : windows) {
    std::vector<std::string> names;
    for (const auto& ch : w.contended) names.push_back(machine.channel_name(ch));
    md << "| [" << w.start_cycle << ", " << w.end_cycle << ") | " << w.samples
       << " | " << (w.rmc ? "**RMC**" : "good") << " | " << join(names, ", ")
       << " |\n";
  }
  return md.str();
}

std::string telemetry_markdown(const obs::Registry& registry,
                               bool include_diagnostic) {
  const std::vector<obs::Registry::Row> rows = registry.rows(include_diagnostic);
  if (rows.empty()) return "";
  std::ostringstream md;
  md << "\n## Run telemetry\n\n"
     << "Pipeline instrumentation (drbw::obs). Counters and histograms are\n"
     << "deterministic for identical workload + seed at any `--jobs` value.\n\n"
     << "| metric | kind | value | description |\n"
     << "|---|---|---:|---|\n";
  for (const obs::Registry::Row& row : rows) {
    md << "| `" << row.name << "` | " << row.kind << " | " << row.value
       << " | " << row.help << " |\n";
  }
  return md.str();
}

std::string robustness_markdown(const util::LoadStats& stats,
                                const std::string& source,
                                const std::string& load_mode) {
  std::ostringstream md;
  md << "\n## Robustness\n\n"
     << "Trace load accounting (`" << source << "`, " << load_mode
     << " mode). Quarantine counts are deterministic for identical input\n"
     << "and fault spec at any `--jobs` value.\n\n"
     << "| outcome | records |\n"
     << "|---|---:|\n"
     << "| seen | " << stats.records_seen << " |\n"
     << "| parsed ok | " << stats.records_ok << " |\n"
     << "| quarantined | " << stats.records_quarantined << " |\n"
     << "| checksum | " << (stats.checksum_ok ? "ok" : "FAILED (tolerated)")
     << " |\n";
  return md.str();
}

void write_file(const std::string& path, const std::string& markdown) {
  // Fault site "report.render": chaos coverage for the very tail of the
  // pipeline.  Keyed by the rendered content's size, jobs-independent.
  fault::maybe_fail("report.render", markdown.size(),
                    "injected report failure while rendering '" + path + "'");
  // Reports are artifacts too: route them through the atomic writer so a
  // crash mid-write never leaves a truncated report at the target path.
  util::atomic_write_file(path, markdown);
}

}  // namespace drbw::report
