// Microbenchmark for the online serving loop (the serve perf gate).
//
// Builds a deterministic synthetic trace of remote-heavy PEBS samples,
// replays it through serve::Server in three configurations, and persists
// best-of-reps timings to BENCH_serve.json under the host's fingerprint:
//   * pass-through (degraded, no model) — pure ingest/queue/drain cost,
//   * classified at --jobs 1 — ingest + featurize + tree per window,
//   * classified at --jobs 4 — the indexed classify fan-out,
// each reported as ingest samples/second, plus proof that the jobs-1 and
// jobs-4 snapshots are byte-identical.
//
// Runs to completion with no arguments, like every other bench binary.
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "drbw/serve/server.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/json.hpp"

namespace {

using namespace drbw;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic synthetic stream: samples spread over every node with a
/// remote-DRAM bias, dense enough that each ingest window classifies.
pebs::Trace make_trace(const topology::Machine& machine, std::size_t samples) {
  pebs::Trace trace;
  trace.events.push_back(mem::AllocationEvent{
      mem::AllocationEvent::Kind::kAlloc, {"serve.c:1 stream"},
      0x7f0000000000ull, 1ull << 24});
  trace.samples.reserve(samples);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < samples; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    pebs::MemorySample s;
    s.address = 0x7f0000000000ull + (state >> 20) % (1ull << 24);
    const auto node = static_cast<topology::NodeId>((state >> 8) % 4);
    s.cpu = machine.cpus_of_node(node)[(state >> 12) %
                                       machine.cpus_of_node(node).size()];
    s.tid = static_cast<std::uint32_t>((state >> 16) % 32);
    s.level = (state >> 24) % 3 == 0 ? pebs::MemLevel::kLocalDram
                                     : pebs::MemLevel::kRemoteDram;
    s.latency_cycles =
        100.0f + static_cast<float>((state >> 32) % 2048) * 0.5f;
    s.is_write = (state >> 40) % 4 == 0;
    s.cycle = 1000 + i * 7;
    trace.samples.push_back(s);
  }
  return trace;
}

struct ServeTiming {
  double best_seconds = 0.0;
  serve::ServeResult result;

  double samples_per_second(std::size_t samples) const {
    return static_cast<double>(samples) / best_seconds;
  }
};

ServeTiming time_serve(const topology::Machine& machine,
                       const ml::Classifier* model, const pebs::Trace& trace,
                       int jobs, int reps) {
  serve::ServeOptions options;
  options.clients = 8;
  options.queue_depth = 256;
  options.overload = serve::OverloadPolicy::kShedOldest;
  options.window_capacity = 256;
  options.min_window_samples = 1;
  options.min_remote_samples = 1;
  options.jobs = jobs;
  ServeTiming timing;
  timing.best_seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    serve::Server server(machine, model, options);
    const auto start = Clock::now();
    serve::ServeResult result = server.run(trace);
    timing.best_seconds = std::min(timing.best_seconds, seconds_since(start));
    timing.result = std::move(result);
  }
  return timing;
}

Json timing_json(const ServeTiming& timing, std::size_t samples) {
  Json node = JsonObject{};
  node.set("best_seconds", timing.best_seconds);
  node.set("samples_per_second", timing.samples_per_second(samples));
  node.set("ticks", timing.result.ticks);
  node.set("windows_classified", timing.result.windows_classified);
  node.set("windows_rmc", timing.result.windows_rmc);
  return node;
}

}  // namespace

int run_main(int argc, char** argv) {
  ArgParser parser("micro_serve",
                   "Time the online serving loop: pass-through ingest vs "
                   "classified windows at jobs 1 and 4");
  parser.add_option("samples", "synthetic PEBS samples in the stream",
                    "200000");
  parser.add_option("reps", "replay repetitions per config (best-of)", "3");
  parser.add_option("out", "JSON artifact path", "BENCH_serve.json");
  if (!parser.parse(argc, argv)) return 0;

  const auto samples = static_cast<std::size_t>(parser.option_int("samples"));
  const int reps = static_cast<int>(parser.option_int("reps"));

  const auto machine = topology::Machine::xeon_e5_4650();
  std::cout << "[drbw] synthesizing " << samples
            << " samples across 4 nodes...\n";
  const pebs::Trace trace = make_trace(machine, samples);

  // A trivially trained single-class tree: the gate times the serve loop
  // (queues, windows, featurization, fan-out), not tree depth.
  ml::Dataset data(std::vector<std::string>(
      features::selected_feature_names().begin(),
      features::selected_feature_names().end()));
  const std::size_t arity = features::selected_feature_names().size();
  for (int r = 0; r < 4; ++r) {
    data.add(std::vector<double>(arity, static_cast<double>(r)),
             ml::Label::kRmc);
  }
  const ml::Classifier model = ml::Classifier::train(data);

  bench::heading("serve replay throughput (best of " + std::to_string(reps) +
                 ")");
  const ServeTiming pass = time_serve(machine, nullptr, trace, 1, reps);
  const ServeTiming j1 = time_serve(machine, &model, trace, 1, reps);
  const ServeTiming j4 = time_serve(machine, &model, trace, 4, reps);
  DRBW_CHECK_MSG(j1.result.snapshot_json == j4.result.snapshot_json,
                 "serve snapshots differ between jobs 1 and jobs 4");

  auto row = [&](const std::string& name, const ServeTiming& t) {
    std::cout << "  " << name << ": "
              << format_fixed(t.best_seconds * 1e3, 1) << " ms  ("
              << format_fixed(t.samples_per_second(samples) / 1e6, 2)
              << " M samples/s, " << t.result.windows_classified
              << " windows)\n";
  };
  row("pass-through (degraded)", pass);
  row("classified, jobs 1     ", j1);
  row("classified, jobs 4     ", j4);
  std::cout << "\n  classify overhead vs pass-through: "
            << format_fixed(j1.best_seconds / pass.best_seconds, 1) << "x\n";
  bench::measured_note("jobs-1 and jobs-4 snapshots verified byte-identical "
                       "on every rep");

  Json result = JsonObject{};
  result.set("host", bench::host_fingerprint());
  result.set("samples", samples);
  result.set("reps", reps);
  result.set("pass_through", timing_json(pass, samples));
  result.set("classified_jobs1", timing_json(j1, samples));
  result.set("classified_jobs4", timing_json(j4, samples));
  result.set("classify_overhead_vs_pass_through",
             j1.best_seconds / pass.best_seconds);
  const std::string path = parser.option("out");
  util::atomic_write_file(path, result.dump(2) + "\n");
  std::cout << "\nwrote " << path << '\n';
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "micro_serve: " << e.what() << '\n';
    return 1;
  }
}
