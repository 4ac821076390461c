// Shared scaffolding for the table/figure reproduction harnesses.
//
// Every binary in bench/ regenerates one of the paper's tables or figures:
// it trains (or loads) the classifier the same way §V describes, runs the
// relevant workloads on the simulated 4-socket machine, prints the same
// rows/series the paper reports, and ends with a short paper-vs-measured
// recap that EXPERIMENTS.md quotes.  All binaries run with no arguments;
// flags exist to change seeds or emit CSV artifacts.
#pragma once

#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "drbw/drbw.hpp"
#include "drbw/util/ascii_chart.hpp"
#include "drbw/util/cli.hpp"
#include "drbw/util/csv.hpp"
#include "drbw/util/json.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/table.hpp"
#include "drbw/util/task_pool.hpp"
#include "drbw/workloads/evaluation.hpp"
#include "drbw/workloads/suite.hpp"
#include "drbw/workloads/training.hpp"

namespace drbw::bench {

struct Harness {
  topology::Machine machine = topology::Machine::xeon_e5_4650();
  std::uint64_t seed = 2017;
  int jobs = 0;          // 0 = one per hardware thread
  std::string csv_path;  // empty = no CSV artifact

  /// Standard flags shared by all harnesses.  Returns false on --help.
  static std::optional<Harness> from_args(int argc, const char* const* argv,
                                          const std::string& name,
                                          const std::string& what) {
    ArgParser parser(name, what);
    parser.add_option("seed", "training/workload RNG seed", "2017");
    parser.add_option("jobs", "parallel runs (0 = hardware threads)", "0");
    parser.add_option("csv", "also write the data series to this CSV file", "");
    if (!parser.parse(argc, argv)) return std::nullopt;
    Harness h;
    h.seed = static_cast<std::uint64_t>(parser.option_int("seed"));
    h.jobs = static_cast<int>(parser.option_int("jobs"));
    h.csv_path = parser.option("csv");
    return h;
  }

  ml::Classifier train() const {
    std::cout << "[drbw] training classifier on the 192 mini-program runs "
                 "(Table II)...\n";
    return workloads::train_default_classifier(machine, seed, jobs);
  }

  workloads::EvaluationOptions evaluation_options() const {
    workloads::EvaluationOptions options;
    options.seed = seed;
    options.jobs = jobs;
    return options;
  }

  void maybe_csv(const std::function<void(CsvWriter&)>& emit) const {
    if (csv_path.empty()) return;
    std::ofstream out(csv_path);
    DRBW_CHECK_MSG(out.good(), "cannot open CSV path " << csv_path);
    CsvWriter writer(out);
    emit(writer);
    std::cout << "[drbw] wrote " << csv_path << '\n';
  }
};

inline void heading(const std::string& title) {
  std::cout << '\n' << std::string(72, '=') << '\n'
            << title << '\n'
            << std::string(72, '=') << '\n';
}

/// Shared shape of Figs 5-8: grouped speedup bars (one series per placement
/// mode) across a set of Tt-Nn configurations for one benchmark input.
/// Returns the studies so callers can add figure-specific commentary/CSV.
inline std::vector<workloads::OptimizationStudy> speedup_figure(
    const Harness& harness, const std::string& benchmark, std::size_t input,
    const std::vector<workloads::RunConfig>& configs,
    const std::vector<workloads::PlacementMode>& modes,
    const std::string& title) {
  const auto bench = workloads::make_suite_benchmark(benchmark);
  workloads::EvaluationOptions options;
  options.seed = harness.seed;

  // Every (config, mode) study is an independent seeded run: fan the
  // configurations out across the pool, then render bars in config order.
  std::vector<workloads::OptimizationStudy> studies(configs.size());
  util::TaskPool pool(harness.jobs);
  pool.parallel_for(configs.size(), [&](std::size_t c) {
    studies[c] = workloads::study_optimization(harness.machine, *bench, input,
                                               configs[c], modes, options);
  });

  BarChart chart("speedup over the original placement", 40);
  std::vector<std::string> series_names;
  for (const auto mode : modes) {
    series_names.emplace_back(workloads::placement_mode_name(mode));
  }
  chart.set_series_names(series_names);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (std::size_t m = 0; m < modes.size(); ++m) {
      chart.add(Bar{configs[c].name() + " " +
                        workloads::placement_mode_name(modes[m]),
                    studies[c].speedup(modes[m]), m});
    }
  }
  print_block(std::cout,
              chart.render_titled(title + " — input '" +
                                  bench->input_name(input) + "'"));
  return studies;
}

inline void paper_note(const std::string& note) {
  std::cout << "  [paper]    " << note << '\n';
}

inline void measured_note(const std::string& note) {
  std::cout << "  [measured] " << note << '\n';
}

/// The host a measurement came from: hardware threads, CPU model (from
/// /proc/cpuinfo where there is one), compiler, and CMake build type.
/// Speed figures committed to BENCH_*.json carry it, so a number is never
/// quoted apart from the machine that produced it.
inline Json host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (starts_with(line, "model name")) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = trim(line.substr(colon + 1));
      break;
    }
  }
  Json host = JsonObject{};
  host.set("hardware_threads",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("cpu_model", cpu);
#if defined(__clang__)
  host.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.set("compiler", std::string("GCC ") + __VERSION__);
#else
  host.set("compiler", std::string("unknown"));
#endif
  host.set("build_type", std::string(DRBW_BUILD_TYPE));
  return host;
}

}  // namespace drbw::bench
