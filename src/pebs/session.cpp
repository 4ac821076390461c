#include "drbw/pebs/session.hpp"

#include <algorithm>
#include <string>

#include "drbw/util/error.hpp"

namespace drbw::pebs {

std::vector<ClientSession> slice_sessions(const Trace& trace,
                                          std::uint32_t clients) {
  if (clients == 0) {
    throw Error("slice_sessions: clients must be >= 1", ErrorCode::kUsage);
  }
  std::vector<std::size_t> sizes(clients, 0);
  for (const MemorySample& sample : trace.samples) ++sizes[sample.tid % clients];
  std::vector<ClientSession> sessions(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    sessions[c].client = c;
    sessions[c].samples.reserve(sizes[c]);
  }
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    const MemorySample& sample = trace.samples[i];
    ClientSession& session = sessions[sample.tid % clients];
    session.samples.push_back(SessionSample{sample, i});
  }
  return sessions;
}

std::uint64_t trace_cycle_span(const Trace& trace) {
  std::uint64_t last = 0;
  for (const MemorySample& s : trace.samples) last = std::max(last, s.cycle);
  return last;
}

std::vector<CycleWindow> split_cycle_windows(
    const std::vector<MemorySample>& samples, std::uint64_t span,
    std::uint64_t width) {
  DRBW_CHECK_MSG(width > 0, "window length must be positive");
  const std::uint64_t count =
      std::max<std::uint64_t>(1, span / width + (span % width != 0));
  std::vector<CycleWindow> windows(count);
  for (std::uint64_t w = 0; w < count; ++w) {
    windows[w].start = w * width;
    windows[w].end = std::min(span, (w + 1) * width);
  }
  for (const MemorySample& s : samples) {
    windows[std::min(s.cycle / width, count - 1)].samples.push_back(s);
  }
  return windows;
}

std::vector<CycleWindow> split_trace_windows(const Trace& trace,
                                             std::uint64_t count) {
  const std::uint64_t span = trace_cycle_span(trace) + 1;
  const std::uint64_t width = count == 0 ? 1 : (span - 1) / count + 1;
  if (count == 0 || (count - 1) * width >= span) {
    throw Error(std::to_string(count) +
                    " windows do not fit the trace's cycle span of " +
                    std::to_string(span) +
                    " cycles (last sample cycle + 1): " +
                    std::to_string(width) + "-cycle windows cover it in " +
                    std::to_string((span - 1) / width + 1),
                ErrorCode::kUsage);
  }
  return split_cycle_windows(trace.samples, span, width);
}

}  // namespace drbw::pebs
