// Trace -> per-client session slicing for online replay.
//
// `drbw serve` simulates N concurrent clients by replaying a recorded trace
// as N independent sample streams: every sample is assigned to the client
// `tid % clients` (threads of one recorded run become the "users" of the
// online service), and each client's stream keeps the trace's simulated
// cycle order.  The slicer also stamps every sample with its *global*
// ordinal in the trace — the content-derived key the serve layer feeds the
// deterministic fault injector, so injected ingest faults hit the same
// samples at any --jobs value and any client count.
#pragma once

#include <cstdint>
#include <vector>

#include "drbw/pebs/sample.hpp"
#include "drbw/pebs/trace_io.hpp"

namespace drbw::pebs {

/// One sample of a client's replay stream.
struct SessionSample {
  MemorySample sample;
  /// Index of the sample in the source trace (0-based) — the deterministic
  /// fault-injection key for per-sample serve sites.
  std::uint64_t ordinal = 0;
};

/// One simulated client's replay stream, in trace (cycle) order.
struct ClientSession {
  std::uint32_t client = 0;
  std::vector<SessionSample> samples;
};

/// Slices `trace` into `clients` sessions (client = tid % clients).  Always
/// returns exactly `clients` entries, possibly with empty streams; throws
/// Error(kUsage) when clients == 0.  Slicing is a pure function of the
/// trace, so sessions are identical across runs and job counts.
std::vector<ClientSession> slice_sessions(const Trace& trace,
                                          std::uint32_t clients);

/// Largest sample cycle in the trace (0 for an empty trace); serve derives
/// its default window width from this span.
std::uint64_t trace_cycle_span(const Trace& trace);

/// One window of a cycle span: [start, end) and its samples, in input order.
struct CycleWindow {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::vector<MemorySample> samples;
};

/// Splits `samples` into consecutive `width`-cycle windows tiling
/// [0, span): ceil(span / width) windows (at least one), the last ending at
/// `span`.  Samples at or past the span land in the last window.
std::vector<CycleWindow> split_cycle_windows(
    const std::vector<MemorySample>& samples, std::uint64_t span,
    std::uint64_t width);

/// Cuts `trace` into `count` equal windows over its cycle span (last sample
/// cycle + 1), each ceil(span / count) cycles wide — the windows of
/// `drbw analyze --windows` and `drbw explain`.  Throws Error(kUsage),
/// naming the span, when `count` such windows do not tile it (count is 0,
/// exceeds the span, or would leave windows that start past its end).
std::vector<CycleWindow> split_trace_windows(const Trace& trace,
                                             std::uint64_t count);

}  // namespace drbw::pebs
