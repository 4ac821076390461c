// Microbenchmark for trace artifact save and load throughput.
//
// Builds a deterministic synthetic trace of >= 1M PEBS samples, persists it
// as CSV v2 (single file), binary v3 (single file), and binary v3 sharded,
// then times the saves and loads best-of-reps and persists the results,
// with the host's fingerprint, to BENCH_trace_io.json:
//   * save and load seconds + MB/s per format,
//   * speedup of binary v3 over CSV v2 for each direction, and of the
//     sharded parallel load over CSV v2,
//   * proof that every format loads back the identical trace.
//
// Runs to completion with no arguments, like every other bench binary.
#include <chrono>
#include <filesystem>
#include <iostream>

#include "bench_common.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/json.hpp"

namespace {

using namespace drbw;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic synthetic trace: `events` allocation sites (realistic
/// label text) and `samples` PEBS samples spread across them, with the full
/// field range exercised (levels, writes, wide addresses, float latencies).
pebs::Trace make_trace(std::size_t events, std::size_t samples) {
  pebs::Trace trace;
  trace.events.reserve(events);
  trace.samples.reserve(samples);
  for (std::size_t i = 0; i < events; ++i) {
    trace.events.push_back(mem::AllocationEvent{
        mem::AllocationEvent::Kind::kAlloc,
        {"src/kernel_" + std::to_string(i % 97) + ".c:" +
         std::to_string(100 + i % 411) + " block"},
        0x7f0000000000ull + i * 0x40000, 1ull << (12 + i % 8)});
  }
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < samples; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    pebs::MemorySample s;
    s.address = 0x7f0000000000ull + (state >> 20) % (events * 0x40000);
    s.cpu = static_cast<topology::CpuId>(state % 32);
    s.tid = static_cast<std::uint32_t>((state >> 8) % 64);
    s.level = static_cast<pebs::MemLevel>((state >> 16) % 6);
    s.latency_cycles =
        10.0f + static_cast<float>((state >> 24) % 4096) * 0.25f;
    s.is_write = (state >> 36) % 4 == 0;
    s.cycle = 1000 + i * 13;
    trace.samples.push_back(s);
  }
  return trace;
}

bool traces_equal(const pebs::Trace& a, const pebs::Trace& b) {
  if (a.events.size() != b.events.size() ||
      a.samples.size() != b.samples.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].site.label != b.events[i].site.label ||
        a.events[i].base != b.events[i].base) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (x.address != y.address || x.cycle != y.cycle ||
        x.latency_cycles != y.latency_cycles || x.level != y.level) {
      return false;
    }
  }
  return true;
}

struct LoadTiming {
  double best_seconds = 0.0;
  double megabytes = 0.0;

  double mb_per_second() const { return megabytes / best_seconds; }
};

/// Best-of-`reps` load of `path` at `jobs`, verifying the result against
/// `reference` on every rep.
LoadTiming time_load(const std::string& path, const pebs::Trace& reference,
                     int jobs, int reps) {
  namespace fs = std::filesystem;
  LoadTiming timing;
  double bytes = 0.0;
  for (const std::string& part : pebs::trace_artifact_paths(path)) {
    bytes += static_cast<double>(fs::file_size(part));
  }
  timing.megabytes = bytes / 1e6;
  timing.best_seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    pebs::LoadOptions options;
    options.jobs = jobs;
    const auto start = Clock::now();
    const pebs::Trace loaded = pebs::load_trace(path, options);
    timing.best_seconds = std::min(timing.best_seconds, seconds_since(start));
    DRBW_CHECK_MSG(traces_equal(reference, loaded),
                   "loaded trace differs from the recorded one: " << path);
  }
  return timing;
}

/// Best-of-`reps` single-file save of `trace` to `path` as `format`.
LoadTiming time_save(const std::string& path, const pebs::Trace& trace,
                     pebs::TraceFormat format, int reps) {
  pebs::SaveOptions options;
  options.format = format;
  LoadTiming timing;
  timing.best_seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    pebs::save_trace(path, trace, options);
    timing.best_seconds = std::min(timing.best_seconds, seconds_since(start));
  }
  timing.megabytes =
      static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  return timing;
}

Json timing_json(const LoadTiming& timing) {
  Json node = JsonObject{};
  node.set("best_seconds", timing.best_seconds);
  node.set("megabytes", timing.megabytes);
  node.set("mb_per_second", timing.mb_per_second());
  return node;
}

}  // namespace

int run_main(int argc, char** argv) {
  ArgParser parser("micro_trace_io",
                   "Time trace artifact loads: CSV v2 vs binary v3 vs "
                   "sharded parallel");
  parser.add_option("samples", "synthetic PEBS samples in the trace",
                    "1000000");
  parser.add_option("events", "synthetic allocation events in the trace",
                    "2000");
  parser.add_option("reps", "save/load repetitions per format (best-of)",
                    "3");
  parser.add_option("shards", "shard count for the sharded variant", "8");
  parser.add_option("out", "JSON artifact path", "BENCH_trace_io.json");
  if (!parser.parse(argc, argv)) return 0;
  namespace fs = std::filesystem;

  const auto samples =
      static_cast<std::size_t>(parser.option_int("samples"));
  const auto events = static_cast<std::size_t>(parser.option_int("events"));
  const int reps = static_cast<int>(parser.option_int("reps"));
  const auto shards = static_cast<std::size_t>(parser.option_int("shards"));

  const std::string dir =
      (fs::temp_directory_path() / "drbw_micro_trace_io").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::cout << "[drbw] synthesizing " << samples << " samples over " << events
            << " allocation sites...\n";
  const pebs::Trace trace = make_trace(events, samples);

  bench::heading("trace save throughput (best of " + std::to_string(reps) +
                 ")");
  const LoadTiming csv_save =
      time_save(dir + "/trace.csv", trace, pebs::TraceFormat::kCsv, reps);
  const LoadTiming bin_save =
      time_save(dir + "/trace.bin", trace, pebs::TraceFormat::kBinary, reps);
  pebs::SaveOptions sharded;
  sharded.format = pebs::TraceFormat::kBinary;
  sharded.shards = shards;
  sharded.jobs = 4;
  pebs::save_trace(dir + "/trace_sharded.bin", trace, sharded);

  auto row = [](const std::string& name, const LoadTiming& t) {
    std::cout << "  " << name << ": "
              << format_fixed(t.best_seconds * 1e3, 1) << " ms  ("
              << format_fixed(t.mb_per_second(), 1) << " MB/s, "
              << format_fixed(t.megabytes, 1) << " MB on disk)\n";
  };
  row("csv v2, 1 file        ", csv_save);
  row("binary v3, 1 file     ", bin_save);
  const double save_speedup = csv_save.best_seconds / bin_save.best_seconds;
  std::cout << "\n  binary v3 vs csv v2:          "
            << format_fixed(save_speedup, 1) << "x\n";

  bench::heading("trace load throughput (best of " + std::to_string(reps) +
                 ")");
  const LoadTiming csv_t = time_load(dir + "/trace.csv", trace, 1, reps);
  const LoadTiming bin_t = time_load(dir + "/trace.bin", trace, 1, reps);
  const LoadTiming sh1_t =
      time_load(dir + "/trace_sharded.bin", trace, 1, reps);
  const LoadTiming sh4_t =
      time_load(dir + "/trace_sharded.bin", trace, 4, reps);

  const double speedup_binary = csv_t.best_seconds / bin_t.best_seconds;
  const double speedup_sharded = csv_t.best_seconds / sh4_t.best_seconds;
  row("csv v2, 1 file        ", csv_t);
  row("binary v3, 1 file     ", bin_t);
  row("binary v3 sharded, j=1", sh1_t);
  row("binary v3 sharded, j=4", sh4_t);
  std::cout << "\n  binary v3 vs csv v2:          "
            << format_fixed(speedup_binary, 1) << "x\n"
            << "  sharded (jobs 4) vs csv v2:   "
            << format_fixed(speedup_sharded, 1) << "x\n";

  Json result = JsonObject{};
  result.set("host", bench::host_fingerprint());
  result.set("samples", samples);
  result.set("events", events);
  result.set("reps", reps);
  result.set("shards", shards);
  result.set("csv_v2_save", timing_json(csv_save));
  result.set("binary_v3_save", timing_json(bin_save));
  result.set("speedup_binary_vs_csv_save", save_speedup);
  result.set("csv_v2", timing_json(csv_t));
  result.set("binary_v3", timing_json(bin_t));
  result.set("binary_v3_sharded_jobs1", timing_json(sh1_t));
  result.set("binary_v3_sharded_jobs4", timing_json(sh4_t));
  result.set("speedup_binary_vs_csv", speedup_binary);
  result.set("speedup_sharded_jobs4_vs_csv", speedup_sharded);
  const std::string path = parser.option("out");
  util::atomic_write_file(path, result.dump(2) + "\n");
  std::cout << "\nwrote " << path << '\n';
  fs::remove_all(dir);
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "micro_trace_io: " << e.what() << '\n';
    return 1;
  }
}
