// Trace formats: one recorded run, three on-disk shapes.
//
//   1. record a sample trace by running sumv (master-thread allocation,
//      so the trace is worth re-analyzing later),
//   2. save it three ways — CSV v2, binary v3, and a 4-shard binary
//      set — and show what lands on disk,
//   3. load all three back and verify they are the *same trace*, at
//      jobs=1 and jobs=4 alike.
//
// Why bother with formats?  CSV is greppable; binary decodes faster (the
// perfbench analyze_corpus rows pebs.decode_mb_per_s.{binary,csv} time
// both codecs over 130 recorded traces on the host that runs them).
// Sharded sets add parallel writes and crash-safety: the index at the
// set path is written last, so a torn save is invisible, and
// merge-on-load is byte-identical at any --jobs.
//
// Build & run:  ./examples/trace_formats
#include <cstddef>
#include <filesystem>
#include <iostream>

#include "drbw/drbw.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/workloads/mini.hpp"

using namespace drbw;

namespace {

// CSV prints latency as decimal text (6 significant digits), so a CSV
// round trip is equal only to that precision; binary stores the raw f32
// bits and round-trips exactly.
bool same_trace(const pebs::Trace& a, const pebs::Trace& b,
                bool exact_latency) {
  if (a.events.size() != b.events.size() ||
      a.samples.size() != b.samples.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& x = a.events[i];
    const auto& y = b.events[i];
    if (x.kind != y.kind || x.site.label != y.site.label ||
        x.base != y.base || x.size_bytes != y.size_bytes) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (x.address != y.address || x.cpu != y.cpu || x.tid != y.tid ||
        x.level != y.level || x.is_write != y.is_write || x.cycle != y.cycle) {
      return false;
    }
    const float tolerance =
        exact_latency ? 0.0f : 1e-5f * (1.0f + x.latency_cycles);
    const float delta = x.latency_cycles - y.latency_cycles;
    if (delta > tolerance || -delta > tolerance) return false;
  }
  return true;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "drbw_trace_formats";
  fs::create_directories(dir);

  // --- 1. record: run the workload once, keep its events + samples ---
  const topology::Machine machine = topology::Machine::xeon_e5_4650();
  mem::AddressSpace space(machine);
  const workloads::ProxyBenchmark bench(
      workloads::sumv_spec(256ull << 20, /*master_alloc=*/true));
  const auto built = bench.build(space, machine, workloads::RunConfig{16, 4},
                                 workloads::PlacementMode::kOriginal, 0);
  const sim::RunResult run = workloads::execute(machine, space, built, {});
  const pebs::Trace trace{run.alloc_events, run.samples};
  std::cout << "recorded " << trace.samples.size() << " samples, "
            << trace.events.size() << " allocation events\n\n";

  // --- 2. save three ways ---
  const std::string csv_path = (dir / "run.csv").string();
  const std::string bin_path = (dir / "run.bin").string();
  const std::string set_path = (dir / "run_sharded.bin").string();

  pebs::save_trace(csv_path, trace, {});  // CSV v2 is the default

  pebs::SaveOptions binary;
  binary.format = pebs::TraceFormat::kBinary;
  pebs::save_trace(bin_path, trace, binary);

  pebs::SaveOptions sharded = binary;
  sharded.shards = 4;
  sharded.jobs = 4;  // parallel writers; the set is identical at jobs=1
  pebs::save_trace(set_path, trace, sharded);

  for (const std::string& path : {csv_path, bin_path}) {
    std::cout << fs::path(path).filename().string() << "  "
              << fs::file_size(path) << " bytes\n";
  }
  std::cout << "\nsharded set (index first, written last on save):\n";
  for (const std::string& path : pebs::trace_artifact_paths(set_path)) {
    std::cout << "  " << fs::path(path).filename().string() << "  "
              << fs::file_size(path) << " bytes\n";
  }

  // --- 3. load back: same trace from every format, at any jobs ---
  bool all_equal = true;
  for (const std::string& path : {csv_path, bin_path, set_path}) {
    const bool binary_body = path != csv_path;
    for (const int jobs : {1, 4}) {
      pebs::LoadOptions load;
      load.jobs = jobs;
      all_equal = all_equal &&
                  same_trace(trace, pebs::load_trace(path, load), binary_body);
    }
  }
  std::cout << "\nround trips " << (all_equal ? "agree" : "DIVERGED")
            << " across csv / binary / sharded at jobs 1 and 4\n"
            << "(binary and sharded are bit-exact; CSV rounds latency to 6 "
               "significant digits)\n";

  std::cout
      << "\nPicking a format: CSV stays greppable; `drbw record --format "
         "binary`\ndecodes faster (perfbench analyze_corpus, "
         "pebs.decode_mb_per_s.*) and\n`--shards 4` adds parallel, "
         "crash-safe writes. "
         "`drbw convert` moves a trace\nbetween formats after the fact, and "
         "`drbw analyze --expect-trace-version`\npins what a deployment "
         "accepts (exit 69 on skew).\n";

  fs::remove_all(dir);
  return all_equal ? 0 : 1;
}
