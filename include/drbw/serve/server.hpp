// drbw::serve — online contention detection with bounded ingest,
// backpressure, and graceful degradation.
//
// The paper's pipeline is batch (record -> featurize -> classify); this
// layer runs the same featurize/classify machinery as a long-lived service
// fed by N simulated clients.  A recorded trace is sliced into per-client
// sessions (pebs/session.hpp) and replayed on the simulated cycle clock in
// fixed windows ("ticks").  Each tick:
//
//   1. admission — every client's arrivals for the window are offered to
//      its BoundedQueue in client/ordinal order, under the configured
//      overload policy (block | shed-oldest | reject);
//   2. drain — up to drain_per_tick samples per client move from the queue
//      into the client's sliding window buffer, each attributed (channel,
//      data object) once, as it moves;
//   3. classify — non-empty buffers are featurized straight from their
//      attributed samples and classified with the trained tree, fanned out
//      over util::TaskPool into indexed slots and applied serially, so
//      results are byte-identical at any jobs count.
//
// Robustness contract:
//   * Four fault sites guard the hot path — serve.ingest (per sample,
//     keyed by trace ordinal), serve.session (per client-window), and
//     serve.window / serve.classify (per client-window featurize/classify)
//     — all keyed by content, never call order, so fire patterns are
//     identical at any --jobs.
//   * Failed operations retry with deterministic exponential backoff
//     (attempt re-draws keyed ordinal*16+attempt; the backoff penalty is
//     accounted in simulated cycles).  An operation that exhausts its
//     retries counts one fault toward the client's circuit breaker;
//     breaker_threshold consecutive faults quarantine the client for the
//     rest of the run (mirroring the lenient-load quarantine taxonomy).
//   * With no usable model the server degrades to pass-through telemetry:
//     ingest/queue/drain still run and are fully accounted, classification
//     is skipped, and the result carries degraded = true — the CLI maps
//     this to exit 0 with `"degraded": true` in the run manifest.
//   * Shutdown always drains: the loop ends when every client's stream is
//     exhausted (or --max-cycles cuts replay short), and the final
//     checksummed serve_snapshot.json is written either way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drbw/features/selected.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/pebs/session.hpp"
#include "drbw/serve/queue.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::serve {

/// Version of the `#drbw-serve-snapshot` artifact.  v2 added the windowed
/// contention timeline and the per-client drift section; v1 snapshots are
/// still readable (both additions are simply absent).
inline constexpr int kServeSnapshotVersion = 2;

struct ServeOptions {
  std::uint32_t clients = 4;
  std::size_t queue_depth = 64;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Replay window width in simulated cycles; 0 derives span/8 + 1 from the
  /// trace so any trace replays in ~8 ingest windows.
  std::uint64_t window_cycles = 0;
  /// Samples drained per client per tick; 0 = queue_depth (empty each tick).
  std::size_t drain_per_tick = 0;
  /// Sliding-window buffer capacity per client (oldest samples age out).
  std::size_t window_capacity = 512;
  /// Stop admitting new samples at this simulated cycle (0 = replay all).
  std::uint64_t max_cycles = 0;
  /// Extra attempts after a failed draw before the operation counts as a
  /// fault (deterministic exponential backoff between attempts).
  int max_retries = 2;
  /// Simulated-cycle penalty of the first retry; doubles per attempt.
  std::uint64_t backoff_cycles = 100;
  /// Consecutive faults that trip a client into quarantine.
  int breaker_threshold = 3;
  /// Sparse-channel gates for each window (see features::Gates): channels
  /// below them are counted good without consulting the tree.
  std::size_t min_window_samples = features::kWindowGates.min_source_samples;
  std::size_t min_remote_samples = features::kWindowGates.min_remote_samples;
  int jobs = 1;
  /// Snapshot artifact path ("" = never write one).
  std::string snapshot_path;
  /// Rewrite the snapshot every N ticks (0 = final snapshot only).
  std::uint64_t snapshot_every = 0;
  /// Drift flag threshold: a client whose PSI divergence from the model's
  /// training baseline reaches this value is marked drift-suspected
  /// (doctor surfaces a DriftSuspected finding; fleet counts it).  0 never
  /// flags; divergence is still computed and exported when the model
  /// carries a baseline.  Typed, not fatal — the exit code is unaffected.
  double drift_threshold = 0.0;
};

/// Per-client accounting, index-aligned with the session list.
struct ClientStats {
  std::uint32_t client = 0;
  std::uint64_t offered = 0;    ///< samples offered to admission
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;       ///< evicted under shed-oldest
  std::uint64_t rejected = 0;   ///< refused under reject
  std::uint64_t deferred = 0;   ///< push-back events under block
  std::uint64_t dropped = 0;    ///< injected drops + quarantine discards
  std::uint64_t faults = 0;     ///< operations that exhausted their retries
  std::uint64_t retries = 0;    ///< extra attempts taken
  std::uint64_t backoff_cycles = 0;  ///< simulated retry penalty accrued
  std::uint64_t windows_classified = 0;
  std::uint64_t windows_rmc = 0;
  std::uint64_t peak_depth = 0;  ///< queue high-water mark
  bool quarantined = false;
  std::uint64_t quarantined_tick = 0;  ///< tick of the breaker trip
};

/// Per-client model-health accounting; populated only when the model
/// carries a drift baseline (format v3).  Confidence is the leaf-purity
/// score of predict_explained, summarized per classified window as the
/// minimum across the window's channel rows (the most uncertain verdict).
struct ClientModelHealth {
  std::uint32_t client = 0;
  std::uint64_t windows = 0;  ///< classified windows contributing confidence
  std::uint64_t rows = 0;     ///< channel rows classified
  double confidence_p50 = 0.0;  ///< lower-median window confidence
  double confidence_min = 0.0;
  double drift_score = 0.0;  ///< max per-feature PSI vs the training baseline
  bool drift_suspected = false;
};

/// One recorded tick of the windowed contention timeline (ticks that
/// classified no window are skipped).  render_snapshot downsamples long
/// timelines by merging adjacent rows, so the snapshot stays bounded.
struct TimelineRow {
  std::uint64_t tick = 0;
  std::uint64_t merged = 1;  ///< source rows merged into this one
  std::uint64_t windows = 0;
  std::uint64_t rmc = 0;
  double confidence_p50 = 0.0;  ///< 0 when the run had no model
  double drift_score = 0.0;     ///< running max drift at row end
};

struct ServeResult {
  std::vector<ClientStats> clients;
  std::uint64_t ticks = 0;
  std::uint64_t window_cycles = 0;  ///< resolved window width
  std::uint64_t samples_in = 0;     ///< trace samples routed to sessions
  std::uint64_t samples_admitted = 0;
  std::uint64_t samples_shed = 0;
  std::uint64_t samples_rejected = 0;
  std::uint64_t samples_deferred = 0;
  std::uint64_t samples_dropped = 0;
  std::uint64_t windows_classified = 0;
  std::uint64_t windows_rmc = 0;
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
  std::uint64_t quarantined_clients = 0;
  bool degraded = false;  ///< ran pass-through (no usable model)
  bool drained = true;    ///< false when --max-cycles cut replay short
  std::uint64_t snapshots_written = 0;
  std::string snapshot_json;  ///< body of the last snapshot (tests)

  /// Model observability.  drift_available is false for degraded runs and
  /// for pre-v3 models (no embedded baseline): the snapshot then omits the
  /// drift section and model_health stays empty.  The timeline is recorded
  /// whenever windows were classified (confidence needs only a model, not
  /// a baseline).
  bool drift_available = false;
  double drift_threshold = 0.0;  ///< as configured (0 = flagging disabled)
  double drift_score = 0.0;      ///< max client drift
  double confidence_p50 = 0.0;   ///< lower-median across all window confidences
  std::uint64_t drift_suspected_clients = 0;
  std::vector<ClientModelHealth> model_health;
  std::vector<TimelineRow> timeline;
};

/// Renders the deterministic snapshot body for `result` (pure function, no
/// I/O); Server writes it under the `#drbw-serve-snapshot v2` header.
std::string render_snapshot(const ServeResult& result);

class Server {
 public:
  /// `model` may be null: the server then runs degraded (pass-through
  /// telemetry, no classification).  `machine` and `model` must outlive the
  /// server.
  Server(const topology::Machine& machine, const ml::Classifier* model,
         ServeOptions options);

  /// Replays `trace` through the serve loop (see file comment).  Byte-for-
  /// byte deterministic: identical trace + options + fault spec produce an
  /// identical ServeResult and snapshot at any options.jobs value.
  ServeResult run(const pebs::Trace& trace);

 private:
  const topology::Machine& machine_;
  const ml::Classifier* model_;
  ServeOptions options_;
};

}  // namespace drbw::serve
