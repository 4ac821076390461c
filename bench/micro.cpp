// Wall-clock microbenchmarks for what the perfbench workloads do not time
// on their own: the obs instrumentation budget and the jobs=1-vs-N
// executor contract.
//
// Measures four things and persists them, with the host's fingerprint, to
// BENCH_micro.json:
//   1. Per-call cost of the always-on instruments (counter add, histogram
//      observe) and of a span with the trace sink disabled vs enabled — the
//      disabled span is what every pipeline stage pays when no --trace-out
//      is requested.
//   2. A contended 16-thread engine run, timed as interleaved
//      untraced/traced pairs: the untraced median is the engine-throughput
//      figure, and the pairwise ratio is what --trace-out costs.
//   3. Training-set generation (the 192 Table II runs) at jobs 1 vs N.
//   4. RandomForest training at jobs 1 vs N.
// Sections 3 and 4 abort unless the jobs=1 and jobs=N outputs are identical.
//
// Runs to completion with no arguments, like every other bench binary.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "drbw/ml/random_forest.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/rng.hpp"

namespace {

using namespace drbw;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ns_per_op(double seconds, std::uint64_t ops) {
  return seconds / static_cast<double>(ops) * 1e9;
}

/// Median of a sample vector (mean of the middle pair for even sizes).
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Best-of-`reps` wall seconds of one call to `body`.
template <typename Body>
double best_seconds(int reps, Body&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// FNV-1a over a byte string; enough to witness (non-)identity of two
/// serialized artifacts without keeping both in memory.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_bits(std::ostringstream& os, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  os << bits << ',';
}

std::uint64_t checksum(const workloads::TrainingSet& set) {
  std::ostringstream os;
  for (const auto& inst : set.instances) {
    os << inst.program << '|' << inst.config << '|' << inst.rmc << '|';
    for (const double v : inst.features.values) put_bits(os, v);
    put_bits(os, inst.peak_remote_utilization);
  }
  return fnv1a(os.str());
}

std::uint64_t checksum(const ml::RandomForest& forest) {
  std::ostringstream os;
  for (const auto& tree : forest.trees()) os << tree.to_json().dump(-1);
  for (const auto& map : forest.feature_maps()) {
    for (const std::size_t f : map) os << f << ',';
  }
  return fnv1a(os.str());
}

/// One contended engine run: 16 threads across 4 nodes streaming a
/// node-0-bound gigabyte (the classic remote-contention shape).
sim::RunResult contended_run(const topology::Machine& machine,
                             std::uint64_t seed,
                             std::uint64_t accesses_per_thread) {
  mem::AddressSpace space(machine);
  const auto obj = space.allocate("micro.c:1 data", 1ull << 30,
                                  mem::PlacementSpec::bind(0));
  std::vector<sim::SimThread> threads;
  sim::Phase phase{"main", {}};
  std::uint32_t tid = 0;
  for (int n = 0; n < 4; ++n) {
    for (int t = 0; t < 4; ++t) {
      threads.push_back(
          {tid++, machine.cpus_of_node(n)[static_cast<std::size_t>(t)]});
      phase.work.push_back(
          sim::ThreadWork{{sim::seq_read(obj, accesses_per_thread)}, 1.0});
    }
  }
  sim::EngineConfig cfg;
  cfg.epoch_cycles = 100'000;
  cfg.seed = seed;
  sim::Engine engine(machine, space, cfg);
  return engine.run(threads, {phase});
}

ml::Dataset synthetic_dataset(std::size_t rows) {
  Rng rng(4);
  ml::Dataset data;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> row(13);
    for (double& v : row) v = rng.uniform();
    data.add(std::move(row),
             rng.bernoulli(0.4) ? ml::Label::kRmc : ml::Label::kGood);
  }
  return data;
}

/// Times `run(1)` against `run(jobs)` best-of-`reps` and aborts unless both
/// return the same output checksum: the determinism contract every
/// parallel path keeps.
template <typename Run>
Json jobs_scaling(const std::string& what, int reps, int jobs, Run&& run) {
  const unsigned resolved = util::TaskPool::resolve_jobs(jobs);
  std::uint64_t serial_sum = 0;
  std::uint64_t parallel_sum = 0;
  const double serial_s = best_seconds(reps, [&] { serial_sum = run(1); });
  const double parallel_s =
      best_seconds(reps, [&] { parallel_sum = run(jobs); });
  const bool identical = serial_sum == parallel_sum;
  const double speedup = serial_s / parallel_s;
  std::cout << what << ": jobs=1 " << format_fixed(serial_s, 3) << " s, jobs="
            << resolved << " " << format_fixed(parallel_s, 3) << " s ("
            << format_fixed(speedup, 2) << "x), outputs "
            << (identical ? "identical" : "DIFFERENT!") << '\n';
  DRBW_CHECK_MSG(identical, "jobs=1 and jobs=" << resolved << " " << what
                                               << " diverged — the "
                                                  "determinism contract is "
                                                  "broken");
  Json node = JsonObject{};
  node.set("serial_seconds", serial_s);
  node.set("parallel_seconds", parallel_s);
  node.set("speedup", speedup);
  return node;
}

}  // namespace

int run_main(int argc, char** argv) {
  ArgParser parser("micro",
                   "Time the obs instruments, the traced engine run, and "
                   "the jobs=1-vs-N executor paths");
  parser.add_option("jobs", "parallel jobs (0 = hardware threads)", "0");
  parser.add_option("reps",
                    "repetitions per measurement (the engine pairs round up "
                    "to an odd count for a single-sample median)",
                    "5");
  parser.add_option("ops", "instrument calls per timing loop", "20000000");
  parser.add_option("engine-accesses",
                    "per-thread accesses in the contended engine run",
                    "400000");
  parser.add_option("out", "JSON artifact path", "BENCH_micro.json");
  if (!parser.parse(argc, argv)) return 0;

  const int jobs = static_cast<int>(parser.option_int("jobs"));
  const int reps = std::max(1, static_cast<int>(parser.option_int("reps")));
  const auto ops = static_cast<std::uint64_t>(parser.option_int("ops"));
  const auto per_thread =
      static_cast<std::uint64_t>(parser.option_int("engine-accesses"));
  const unsigned resolved = util::TaskPool::resolve_jobs(jobs);
  const auto machine = topology::Machine::xeon_e5_4650();

  bench::heading("micro — instrument cost, traced engine run, jobs scaling");
  std::cout << "obs compiled " << (obs::kEnabled ? "IN" : "OUT (DRBW_OBS=OFF)")
            << ", parallel jobs: " << resolved << ", reps: " << reps
            << ", ops/loop: " << ops << "\n\n";

  Json result = JsonObject{};
  result.set("host", bench::host_fingerprint());
  result.set("obs_enabled", obs::kEnabled);
  result.set("jobs", static_cast<std::size_t>(resolved));
  result.set("reps", static_cast<std::size_t>(reps));
  result.set("ops", ops);

  // 1. Instrument call cost. --------------------------------------------- //
  {
    obs::Counter counter;
    obs::Histogram histogram({100, 200, 300, 500, 800, 1300, 2100});
    const double counter_s = best_seconds(reps, [&] {
      for (std::uint64_t i = 0; i < ops; ++i) counter.add(1);
    });
    const double histogram_s = best_seconds(reps, [&] {
      for (std::uint64_t i = 0; i < ops; ++i) histogram.observe(i & 4095);
    });

    // Enabled spans append an event each, so their loops are shorter, and
    // the sink is cleared outside the timed loop.
    const std::uint64_t span_ops = std::max<std::uint64_t>(1, ops / 100);
    obs::Trace& trace = obs::Trace::instance();
    double span_off_s = 1e300;
    double span_on_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      trace.disable();
      auto start = Clock::now();
      for (std::uint64_t i = 0; i < span_ops; ++i) obs::Span span("bench");
      span_off_s = std::min(span_off_s, seconds_since(start));
      trace.enable(obs::TimingMode::kSim);
      trace.clear();
      start = Clock::now();
      for (std::uint64_t i = 0; i < span_ops; ++i) obs::Span span("bench");
      span_on_s = std::min(span_on_s, seconds_since(start));
      trace.disable();
      trace.clear();
    }

    std::cout << "counter add:        "
              << format_fixed(ns_per_op(counter_s, ops), 2) << " ns/op\n"
              << "histogram observe:  "
              << format_fixed(ns_per_op(histogram_s, ops), 2) << " ns/op\n"
              << "span (sink off):    "
              << format_fixed(ns_per_op(span_off_s, span_ops), 2) << " ns/op\n"
              << "span (sink on):     "
              << format_fixed(ns_per_op(span_on_s, span_ops), 2) << " ns/op\n";
    Json cost = JsonObject{};
    cost.set("counter_add_ns", ns_per_op(counter_s, ops));
    cost.set("histogram_observe_ns", ns_per_op(histogram_s, ops));
    cost.set("span_disabled_ns", ns_per_op(span_off_s, span_ops));
    cost.set("span_enabled_ns", ns_per_op(span_on_s, span_ops));
    result.set("instrument_cost", std::move(cost));
  }

  // 2. Engine run, untraced vs traced. ----------------------------------- //
  //
  // The runs are interleaved pairwise and the overhead is the median of the
  // per-pair ratios, so both legs of a pair run under the same machine
  // state.  Tracing a few dozen events over a ~10 ms run sits far below
  // pair-to-pair jitter, so the headline is clamped to 0.0 whenever the
  // median is within the noise floor (the median absolute deviation of the
  // pair ratios): it is sign-stable, and a real regression still reports
  // its measured value.
  {
    // An odd pair count makes the median one actual measurement.
    const int pairs = reps % 2 == 0 ? reps + 1 : reps;
    obs::Trace& trace = obs::Trace::instance();
    std::vector<double> off_rates, on_rates, overheads;
    std::uint64_t accesses = 0;
    std::size_t traced_events = 0;
    const auto rate = [&](std::uint64_t seed) {
      trace.clear();
      const auto start = Clock::now();
      accesses = contended_run(machine, seed, per_thread).total_accesses;
      return static_cast<double>(accesses) / seconds_since(start);
    };
    for (int r = 0; r < pairs; ++r) {
      const auto seed = 7 + static_cast<std::uint64_t>(r);
      trace.disable();
      const double off = rate(seed);
      trace.enable(obs::TimingMode::kSim);
      const double on = rate(seed);
      traced_events = trace.event_count();
      trace.disable();
      trace.clear();
      off_rates.push_back(off);
      on_rates.push_back(on);
      overheads.push_back((off / on - 1.0) * 100.0);
    }
    const double rate_off = median(off_rates);
    const double rate_on = median(on_rates);
    const double overhead_raw = median(overheads);
    std::vector<double> deviations;
    for (const double o : overheads) {
      deviations.push_back(std::abs(o - overhead_raw));
    }
    const double noise_floor_pct = median(deviations);
    const bool overhead_resolved = std::abs(overhead_raw) > noise_floor_pct;
    std::cout << "\nengine (16-thread contended run on the simulated "
              << machine.spec().name << ", " << format_count(accesses)
              << " accesses): " << format_fixed(rate_off / 1e6, 2)
              << " M accesses/s untraced (median of " << pairs << ")\n"
              << "engine (tracing enabled, " << traced_events << " events): "
              << format_fixed(rate_on / 1e6, 2) << " M accesses/s ("
              << format_fixed(overhead_raw, 1) << "% raw overhead, noise "
              << "floor " << format_fixed(noise_floor_pct, 1) << "% -> "
              << (overhead_resolved ? "resolved"
                                    : "below noise floor, reported 0.0")
              << ")\n\n";
    Json engine = JsonObject{};
    engine.set("simulated_machine", machine.spec().name);
    engine.set("accesses_per_run", accesses);
    engine.set("accesses_per_second", rate_off);
    engine.set("accesses_per_second_traced", rate_on);
    engine.set("tracing_overhead_pct", overhead_resolved ? overhead_raw : 0.0);
    engine.set("tracing_overhead_pct_raw", overhead_raw);
    engine.set("noise_floor_pct", noise_floor_pct);
    engine.set("overhead_resolved", overhead_resolved);
    engine.set("overhead_method",
               "median of interleaved traced/untraced pairs, clamped to 0 "
               "below the pair-MAD noise floor");
    engine.set("pairs", static_cast<std::size_t>(pairs));
    engine.set("traced_events", traced_events);
    result.set("engine", std::move(engine));
  }

  // 3. Training-set generation, jobs 1 vs N. ----------------------------- //
  workloads::TrainingOptions training;
  training.seed = 2017;
  result.set("training_set_generation",
             jobs_scaling("training-set generation (192 runs)", reps, jobs,
                          [&](int run_jobs) {
                            training.jobs = run_jobs;
                            return checksum(workloads::generate_training_set(
                                machine, training));
                          }));

  // 4. RandomForest training, jobs 1 vs N. ------------------------------- //
  const ml::Dataset data = synthetic_dataset(2048);
  ml::ForestParams forest;
  forest.seed = 42;
  forest.num_trees = 64;
  result.set("random_forest_training",
             jobs_scaling("random-forest training (64 trees, 2048 rows)",
                          reps, jobs, [&](int run_jobs) {
                            forest.jobs = run_jobs;
                            return checksum(
                                ml::RandomForest::train(data, forest));
                          }));

  const std::string path = parser.option("out");
  util::atomic_write_file(path, result.dump(2) + "\n");
  std::cout << "\nwrote " << path << '\n';
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "micro: " << e.what() << '\n';
    return 1;
  }
}
