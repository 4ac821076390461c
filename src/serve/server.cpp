#include "drbw/serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <sstream>

#include "drbw/core/profiler.hpp"
#include "drbw/fault/injector.hpp"
#include "drbw/ml/classify.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/stats.hpp"
#include "drbw/util/task_pool.hpp"

namespace drbw::serve {

namespace {

/// One deterministic retry loop: `draw(attempt)` returns true when the
/// injected fault fires for that attempt.  Success on any attempt makes the
/// operation ok; every extra attempt costs an exponentially growing
/// simulated-cycle backoff penalty.
struct RetryOutcome {
  bool ok = false;
  std::uint64_t retries = 0;
  std::uint64_t backoff_cycles = 0;
};

template <typename Draw>
RetryOutcome attempt_with_backoff(int max_retries, std::uint64_t backoff_base,
                                  Draw&& draw) {
  RetryOutcome out;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (!draw(static_cast<std::uint64_t>(attempt))) {
      out.ok = true;
      return out;
    }
    if (attempt < max_retries) {
      ++out.retries;
      out.backoff_cycles += backoff_base << static_cast<unsigned>(attempt);
    }
  }
  return out;
}

/// Mutable per-client replay state around the public ClientStats.
struct ClientState {
  ClientStats stats;
  std::size_t cursor = 0;  ///< next unconsumed session sample
  /// Offers pushed back under block, oldest first; re-offered next tick.
  std::deque<pebs::SessionSample> backlog;
  /// Sliding classify window, each sample attributed once as it drains.
  std::vector<core::AttributedSample> buffer;
  int consecutive_faults = 0;
  // Model-health accounting (touched only when a model is present).
  std::vector<double> window_confidences;
  std::uint64_t rows_classified = 0;
  ml::DriftBaseline serving;  ///< serving-side drift histograms
  double drift_score = 0.0;   ///< drift of `serving`, refreshed on merge
};

const char* bool_token(bool v) { return v ? "true" : "false"; }

/// Fixed, locale-independent double rendering for the snapshot body.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Bounds the snapshot: merges adjacent timeline rows until at most
/// `max_rows` remain.  Counts sum, drift takes the running max, and the
/// merged confidence is the lower median of the source rows' medians —
/// a pure function of the input, so snapshots stay byte-identical at any
/// --jobs count.
std::vector<TimelineRow> downsample_timeline(
    const std::vector<TimelineRow>& rows, std::size_t max_rows) {
  if (rows.size() <= max_rows) return rows;
  const std::size_t group = (rows.size() + max_rows - 1) / max_rows;
  std::vector<TimelineRow> out;
  out.reserve(max_rows);
  for (std::size_t at = 0; at < rows.size(); at += group) {
    const std::size_t end = std::min(rows.size(), at + group);
    TimelineRow merged = rows[at];
    merged.merged = 0;
    std::vector<double> confidences;
    for (std::size_t i = at; i < end; ++i) {
      merged.merged += rows[i].merged;
      if (i > at) {
        merged.windows += rows[i].windows;
        merged.rmc += rows[i].rmc;
        merged.drift_score = std::max(merged.drift_score, rows[i].drift_score);
      }
      confidences.push_back(rows[i].confidence_p50);
    }
    merged.confidence_p50 = lower_median(std::move(confidences));
    out.push_back(merged);
  }
  return out;
}

/// Snapshot timelines never exceed this many rows (see downsample_timeline).
constexpr std::size_t kSnapshotTimelineRows = 256;

}  // namespace

std::string render_snapshot(const ServeResult& r) {
  std::ostringstream os;
  os << "{\n  \"drbw_serve_snapshot\": " << kServeSnapshotVersion << ",\n";
  os << "  \"degraded\": " << bool_token(r.degraded) << ",\n";
  os << "  \"drained\": " << bool_token(r.drained) << ",\n";
  os << "  \"ticks\": " << r.ticks << ",\n";
  os << "  \"window_cycles\": " << r.window_cycles << ",\n";
  os << "  \"samples\": {\"in\": " << r.samples_in
     << ", \"admitted\": " << r.samples_admitted
     << ", \"shed\": " << r.samples_shed
     << ", \"rejected\": " << r.samples_rejected
     << ", \"deferred\": " << r.samples_deferred
     << ", \"dropped\": " << r.samples_dropped << "},\n";
  os << "  \"windows\": {\"classified\": " << r.windows_classified
     << ", \"rmc\": " << r.windows_rmc << "},\n";
  const std::vector<TimelineRow> timeline =
      downsample_timeline(r.timeline, kSnapshotTimelineRows);
  os << "  \"timeline\": [";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const TimelineRow& row = timeline[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"tick\": " << row.tick
       << ", \"merged\": " << row.merged << ", \"windows\": " << row.windows
       << ", \"rmc\": " << row.rmc
       << ", \"confidence_p50\": " << fmt_double(row.confidence_p50)
       << ", \"drift\": " << fmt_double(row.drift_score) << "}";
  }
  os << (timeline.empty() ? "]" : "\n  ]") << ",\n";
  if (r.drift_available) {
    os << "  \"drift\": {\"threshold\": " << fmt_double(r.drift_threshold)
       << ", \"score\": " << fmt_double(r.drift_score)
       << ", \"confidence_p50\": " << fmt_double(r.confidence_p50)
       << ", \"suspected_clients\": " << r.drift_suspected_clients
       << ", \"clients\": [";
    for (std::size_t i = 0; i < r.model_health.size(); ++i) {
      const ClientModelHealth& mh = r.model_health[i];
      os << (i == 0 ? "\n" : ",\n") << "    {\"client\": " << mh.client
         << ", \"windows\": " << mh.windows << ", \"rows\": " << mh.rows
         << ", \"confidence_p50\": " << fmt_double(mh.confidence_p50)
         << ", \"confidence_min\": " << fmt_double(mh.confidence_min)
         << ", \"score\": " << fmt_double(mh.drift_score)
         << ", \"suspected\": " << bool_token(mh.drift_suspected) << "}";
    }
    os << (r.model_health.empty() ? "]" : "\n  ]") << "},\n";
  }
  os << "  \"faults\": {\"total\": " << r.faults
     << ", \"retries\": " << r.retries
     << ", \"quarantined_clients\": " << r.quarantined_clients << "},\n";
  os << "  \"clients\": [";
  for (std::size_t i = 0; i < r.clients.size(); ++i) {
    const ClientStats& c = r.clients[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"client\": " << c.client
       << ", \"offered\": " << c.offered << ", \"admitted\": " << c.admitted
       << ", \"shed\": " << c.shed << ", \"rejected\": " << c.rejected
       << ", \"deferred\": " << c.deferred << ", \"dropped\": " << c.dropped
       << ", \"faults\": " << c.faults << ", \"retries\": " << c.retries
       << ", \"backoff_cycles\": " << c.backoff_cycles
       << ", \"windows_classified\": " << c.windows_classified
       << ", \"windows_rmc\": " << c.windows_rmc
       << ", \"peak_depth\": " << c.peak_depth
       << ", \"quarantined\": " << bool_token(c.quarantined)
       << ", \"quarantined_tick\": " << c.quarantined_tick << "}";
  }
  os << (r.clients.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

Server::Server(const topology::Machine& machine, const ml::Classifier* model,
               ServeOptions options)
    : machine_(machine), model_(model), options_(std::move(options)) {}

ServeResult Server::run(const pebs::Trace& trace) {
  const std::uint32_t clients = std::max<std::uint32_t>(1, options_.clients);
  const std::size_t queue_depth = std::max<std::size_t>(1, options_.queue_depth);
  const std::size_t drain_n =
      options_.drain_per_tick == 0 ? queue_depth : options_.drain_per_tick;
  const int breaker = std::max(1, options_.breaker_threshold);
  const std::uint64_t span = pebs::trace_cycle_span(trace);
  const std::uint64_t window =
      options_.window_cycles == 0 ? span / 8 + 1 : options_.window_cycles;

  const std::vector<pebs::ClientSession> sessions =
      pebs::slice_sessions(trace, clients);
  // Each sample is attributed once, when it drains, against one tracker
  // per run; the trace's allocation events replay into it when the first
  // sample drains, so a run that never classifies never replays them.
  core::MasterNodeLocator locator;
  const core::Profiler profiler(machine_, locator);
  core::HeapTracker tracker;
  bool tracker_ready = false;
  util::TaskPool pool(options_.jobs);

  std::vector<ClientState> states(clients);
  // deque: BoundedQueue is immovable (owns a mutex), and deque constructs
  // elements in place without relocating the existing ones.
  std::deque<BoundedQueue> queues;
  for (std::uint32_t c = 0; c < clients; ++c) {
    states[c].stats.client = c;
    queues.emplace_back(queue_depth, options_.overload);
  }

  ServeResult result;
  result.degraded = model_ == nullptr;
  result.window_cycles = window;
  result.samples_in = trace.samples.size();
  // Drift needs a v3 model with an embedded training baseline; without one
  // the run still serves (and still records the confidence timeline), the
  // drift section is just unavailable.
  const bool drift_on = model_ != nullptr && model_->has_drift_baseline();
  const std::size_t num_features =
      model_ != nullptr ? model_->feature_names().size() : 0;
  result.drift_available = drift_on;
  result.drift_threshold = options_.drift_threshold;

  // Counts everything a client still holds (queued, deferred, and
  // unconsumed session samples) as dropped.
  const auto drop_unserved = [&](std::uint32_t c) {
    ClientState& st = states[c];
    st.stats.dropped += queues[c].drain(queue_depth).size();
    st.stats.dropped += st.backlog.size();
    st.backlog.clear();
    st.stats.dropped += sessions[c].samples.size() - st.cursor;
    st.cursor = sessions[c].samples.size();
  };

  // Trip the circuit breaker: quarantine the client and discard everything
  // it still holds.
  const auto record_fault = [&](std::uint32_t c, std::uint64_t tick) {
    ClientState& st = states[c];
    ++st.stats.faults;
    ++st.consecutive_faults;
    if (!st.stats.quarantined && st.consecutive_faults >= breaker) {
      st.stats.quarantined = true;
      st.stats.quarantined_tick = tick;
      drop_unserved(c);
      st.buffer.clear();
    }
  };

  // Max per-feature PSI divergence of a client's serving rows from the
  // training baseline (0 before it has classified any).
  const auto drift_of = [&](const ClientState& st) {
    double score = 0.0;
    if (st.serving.empty()) return score;
    for (const double d : model_->drift_baseline().divergence(st.serving)) {
      score = std::max(score, d);
    }
    return score;
  };

  // Per-client model health + run-level drift/confidence rollup — pure
  // function of the accumulated state, shared by partial and final
  // snapshots.
  const auto fill_model_health = [&](ServeResult& out) {
    if (!drift_on) return;
    out.model_health.clear();
    out.drift_score = 0.0;
    out.drift_suspected_clients = 0;
    std::vector<double> all_confidences;
    for (std::uint32_t c = 0; c < clients; ++c) {
      const ClientState& st = states[c];
      ClientModelHealth mh;
      mh.client = c;
      mh.windows = st.window_confidences.size();
      mh.rows = st.rows_classified;
      if (!st.window_confidences.empty()) {
        mh.confidence_p50 = lower_median(st.window_confidences);
        mh.confidence_min = *std::min_element(st.window_confidences.begin(),
                                              st.window_confidences.end());
      }
      mh.drift_score = st.drift_score;
      mh.drift_suspected = options_.drift_threshold > 0.0 && mh.windows > 0 &&
                           mh.drift_score >= options_.drift_threshold;
      if (mh.drift_suspected) ++out.drift_suspected_clients;
      out.drift_score = std::max(out.drift_score, mh.drift_score);
      all_confidences.insert(all_confidences.end(),
                             st.window_confidences.begin(),
                             st.window_confidences.end());
      out.model_health.push_back(mh);
    }
    out.confidence_p50 = lower_median(std::move(all_confidences));
  };

  // Renders `out`'s snapshot into it and writes it to the snapshot path.
  const auto write_snapshot = [&](ServeResult& out) {
    obs::Span snap_span("serve.snapshot");
    out.snapshot_json = render_snapshot(out);
    util::write_versioned_artifact(options_.snapshot_path, "serve-snapshot",
                                   kServeSnapshotVersion, out.snapshot_json);
    ++result.snapshots_written;
  };

  // Generous termination backstop: the loop below always makes progress
  // (every tick consumes arrivals, drains queues, or trips a breaker), but
  // a hard cap turns any future regression into a truncated-run result
  // instead of a hang.
  const std::uint64_t hard_cap =
      span / window + static_cast<std::uint64_t>(trace.samples.size()) + 16;

  struct Slot {
    bool candidate = false;
    bool window_fault = false;
    bool classify_fault = false;
    bool rmc = false;
    std::uint64_t retries = 0;
    std::uint64_t backoff_cycles = 0;
    // Model-health payload, merged serially after the fan-out.
    double confidence = 1.0;  ///< min row confidence, when rows > 0
    std::uint64_t rows = 0;
    ml::DriftBaseline drift;
  };

  std::uint64_t tick = 0;
  for (;; ++tick) {
    bool pending = false;
    for (std::uint32_t c = 0; c < clients; ++c) {
      const ClientState& st = states[c];
      if (st.stats.quarantined) continue;
      if (st.cursor < sessions[c].samples.size() || !st.backlog.empty() ||
          queues[c].size() > 0) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
    const std::uint64_t window_start = tick * window;
    if ((options_.max_cycles != 0 && window_start >= options_.max_cycles) ||
        tick >= hard_cap) {
      // Replay cut short: account every unserved sample so the snapshot
      // still balances, then stop cleanly (the caller still snapshots).
      result.drained = false;
      for (std::uint32_t c = 0; c < clients; ++c) {
        if (!states[c].stats.quarantined) drop_unserved(c);
      }
      break;
    }
    const std::uint64_t window_end = window_start + window;

    obs::Span tick_span("serve.tick");
    tick_span.arg("tick", static_cast<double>(tick));

    // -- admission (serial, client then ordinal order) ---------------------
    for (std::uint32_t c = 0; c < clients; ++c) {
      ClientState& st = states[c];
      if (st.stats.quarantined) continue;
      const std::vector<pebs::SessionSample>& stream = sessions[c].samples;
      const bool has_arrival =
          st.cursor < stream.size() && stream[st.cursor].sample.cycle < window_end;
      if (!has_arrival && st.backlog.empty()) continue;

      // Session-level gate: one retryable draw per client-window.
      const std::uint64_t session_key =
          tick * static_cast<std::uint64_t>(clients) + c;
      const RetryOutcome session = attempt_with_backoff(
          options_.max_retries, options_.backoff_cycles,
          [&](std::uint64_t attempt) {
            return fault::should_inject("serve.session", fault::Kind::kFail,
                                        session_key * 16 + attempt);
          });
      st.stats.retries += session.retries;
      st.stats.backoff_cycles += session.backoff_cycles;
      if (!session.ok) {
        // The whole window's admission is skipped; arrivals stay pending
        // and are re-offered next tick (the breaker bounds how long).
        record_fault(c, tick);
        continue;
      }
      st.consecutive_faults = 0;

      // This tick's offers are the backlog followed by the new arrivals.
      // Each is popped from the front and, if deferred, pushed to the back,
      // so after one pass the backlog holds the deferred ones in order.
      std::deque<pebs::SessionSample>& backlog = st.backlog;
      while (st.cursor < stream.size() &&
             stream[st.cursor].sample.cycle < window_end) {
        backlog.push_back(stream[st.cursor]);
        ++st.cursor;
      }
      const bool armed = fault::armed();
      // A breaker trip clears the backlog and counts it dropped.
      for (std::size_t left = backlog.size();
           left > 0 && !st.stats.quarantined; --left) {
        const pebs::SessionSample sample = backlog.front();
        backlog.pop_front();
        ++st.stats.offered;
        if (fault::should_inject("serve.ingest", fault::Kind::kDropSample,
                                 sample.ordinal)) {
          ++st.stats.dropped;
          continue;
        }
        const RetryOutcome ingest = attempt_with_backoff(
            options_.max_retries, options_.backoff_cycles,
            [&](std::uint64_t attempt) {
              return fault::should_inject("serve.ingest", fault::Kind::kFail,
                                          sample.ordinal * 16 + attempt);
            });
        st.stats.retries += ingest.retries;
        st.stats.backoff_cycles += ingest.backoff_cycles;
        if (!ingest.ok) {
          ++st.stats.dropped;
          record_fault(c, tick);
          continue;
        }
        const AdmitResult admit = queues[c].push(sample);
        if (admit == AdmitResult::kDeferred) {
          if (!armed) {
            // Nothing drains during admission and no draw can fire, so
            // every later offer this tick would be deferred as well: tally
            // them at once and leave them where they are.
            backlog.push_front(sample);
            st.stats.offered += left - 1;
            queues[c].note_deferred(left - 1);
            break;
          }
          backlog.push_back(sample);
        } else if (admit != AdmitResult::kRejected) {
          st.consecutive_faults = 0;
        }
      }
    }

    // -- drain into sliding windows (serial) -------------------------------
    std::vector<Slot> slots(clients);
    for (std::uint32_t c = 0; c < clients; ++c) {
      ClientState& st = states[c];
      if (st.stats.quarantined) continue;
      const std::vector<pebs::SessionSample> batch = queues[c].drain(drain_n);
      if (batch.empty() || model_ == nullptr) continue;  // nothing to classify
      if (!tracker_ready) {
        tracker.on_events(trace.events);
        tracker_ready = true;
      }
      for (const pebs::SessionSample& queued : batch) {
        st.buffer.push_back(profiler.attribute(tracker, queued.sample));
      }
      if (st.buffer.size() > options_.window_capacity) {
        st.buffer.erase(st.buffer.begin(),
                        st.buffer.begin() +
                            static_cast<std::ptrdiff_t>(
                                st.buffer.size() - options_.window_capacity));
      }
      slots[c].candidate = true;
    }

    // -- classify (indexed fan-out; applied serially below) ----------------
    pool.parallel_for(clients, [&](std::size_t i) {
      Slot& slot = slots[i];
      if (!slot.candidate) return;
      const std::uint64_t key =
          tick * static_cast<std::uint64_t>(clients) + i;
      const RetryOutcome featurize = attempt_with_backoff(
          options_.max_retries, options_.backoff_cycles,
          [&](std::uint64_t attempt) {
            return fault::should_inject("serve.window", fault::Kind::kFail,
                                        key * 16 + attempt);
          });
      slot.retries += featurize.retries;
      slot.backoff_cycles += featurize.backoff_cycles;
      if (!featurize.ok) {
        slot.window_fault = true;
        return;
      }
      const std::vector<features::ChannelFeatures> channels =
          features::extract_window(states[i].buffer, machine_);
      const RetryOutcome classify = attempt_with_backoff(
          options_.max_retries, options_.backoff_cycles,
          [&](std::uint64_t attempt) {
            return fault::should_inject("serve.classify", fault::Kind::kFail,
                                        key * 16 + attempt);
          });
      slot.retries += classify.retries;
      slot.backoff_cycles += classify.backoff_cycles;
      if (!classify.ok) {
        slot.classify_fault = true;
        return;
      }
      for (const ml::ChannelVerdict& v : ml::classify_channels(
               channels, *model_,
               {options_.min_window_samples, options_.min_remote_samples})) {
        if (v.sparse) continue;
        if (drift_on && slot.rows == 0) slot.drift.resize(num_features);
        ++slot.rows;
        if (v.rmc()) slot.rmc = true;
        slot.confidence = std::min(slot.confidence, v.explanation.confidence);
        if (drift_on) model_->observe_drift(v.features.as_row(), slot.drift);
      }
    });

    std::vector<double> tick_confidences;
    std::uint64_t tick_windows = 0;
    std::uint64_t tick_rmc = 0;
    for (std::uint32_t c = 0; c < clients; ++c) {
      const Slot& slot = slots[c];
      if (!slot.candidate) continue;
      ClientState& st = states[c];
      st.stats.retries += slot.retries;
      st.stats.backoff_cycles += slot.backoff_cycles;
      if (slot.window_fault || slot.classify_fault) {
        record_fault(c, tick);
        continue;
      }
      st.consecutive_faults = 0;
      ++st.stats.windows_classified;
      ++tick_windows;
      if (slot.rmc) {
        ++st.stats.windows_rmc;
        ++tick_rmc;
      }
      if (slot.rows > 0) {
        st.window_confidences.push_back(slot.confidence);
        tick_confidences.push_back(slot.confidence);
        st.rows_classified += slot.rows;
        if (drift_on) {
          st.serving.merge(slot.drift);
          st.drift_score = drift_of(st);
        }
      }
    }

    if (tick_windows > 0) {
      // One windowed-timeline row per classifying tick; the drift column is
      // the running max across clients so the rendered timeline shows when
      // serving traffic left the training distribution.
      double drift_now = 0.0;
      for (const ClientState& st : states) {
        drift_now = std::max(drift_now, st.drift_score);
      }
      result.timeline.push_back(TimelineRow{tick, 1, tick_windows, tick_rmc,
                                            lower_median(tick_confidences),
                                            drift_now});
    }

    result.ticks = tick + 1;
    if (!options_.snapshot_path.empty() && options_.snapshot_every != 0 &&
        (tick + 1) % options_.snapshot_every == 0) {
      ServeResult partial = result;
      for (std::uint32_t c = 0; c < clients; ++c) {
        states[c].stats.peak_depth = queues[c].peak();
        partial.clients.push_back(states[c].stats);
      }
      fill_model_health(partial);
      write_snapshot(partial);
    }
  }

  // -- final accounting ----------------------------------------------------
  for (std::uint32_t c = 0; c < clients; ++c) {
    ClientStats& st = states[c].stats;
    st.admitted = queues[c].admitted();
    st.shed = queues[c].shed();
    st.rejected = queues[c].rejected();
    st.deferred = queues[c].deferred();
    st.peak_depth = queues[c].peak();
    result.samples_admitted += st.admitted;
    result.samples_shed += st.shed;
    result.samples_rejected += st.rejected;
    result.samples_deferred += st.deferred;
    result.samples_dropped += st.dropped;
    result.windows_classified += st.windows_classified;
    result.windows_rmc += st.windows_rmc;
    result.faults += st.faults;
    result.retries += st.retries;
    if (st.quarantined) ++result.quarantined_clients;
    result.clients.push_back(st);
  }
  fill_model_health(result);

  auto& registry = obs::Registry::global();
  registry
      .counter("drbw_serve_samples_ingested_total",
               "Trace samples routed into client sessions by drbw serve")
      .add(result.samples_in);
  registry
      .counter("drbw_serve_samples_admitted_total",
               "Samples admitted through the bounded client queues")
      .add(result.samples_admitted);
  registry
      .counter("drbw_serve_samples_shed_total",
               "Oldest queued samples evicted under the shed-oldest policy")
      .add(result.samples_shed);
  registry
      .counter("drbw_serve_samples_rejected_total",
               "Samples refused by a full queue under the reject policy")
      .add(result.samples_rejected);
  registry
      .counter("drbw_serve_samples_deferred_total",
               "Push-back events on a full queue under the block policy")
      .add(result.samples_deferred);
  registry
      .counter("drbw_serve_samples_dropped_total",
               "Samples lost to injected drops, exhausted retries, "
               "quarantine, or a --max-cycles cutoff")
      .add(result.samples_dropped);
  registry
      .counter("drbw_serve_windows_classified_total",
               "Sliding windows featurized and classified by drbw serve")
      .add(result.windows_classified);
  registry
      .counter("drbw_serve_windows_rmc_total",
               "Classified windows with at least one contended channel")
      .add(result.windows_rmc);
  registry
      .counter("drbw_serve_ticks_total",
               "Replay ticks (ingest windows) executed by drbw serve")
      .add(result.ticks);
  registry
      .counter("drbw_serve_faults_total",
               "Serve operations that exhausted their retries")
      .add(result.faults);
  registry
      .counter("drbw_serve_retries_total",
               "Extra attempts taken by the serve retry-with-backoff loops")
      .add(result.retries);
  registry
      .counter("drbw_serve_clients_quarantined_total",
               "Clients tripped into quarantine by the circuit breaker")
      .add(result.quarantined_clients);
  std::uint64_t peak = 0;
  for (const ClientStats& st : result.clients) {
    peak = std::max(peak, st.peak_depth);
  }
  registry
      .gauge("drbw_serve_queue_depth_peak",
             "High-water mark across every client ingest queue")
      .set_max(static_cast<double>(peak));
  if (model_ != nullptr) {
    obs::Histogram& confidence_hist = ml::confidence_histogram();
    for (const ClientState& st : states) {
      for (const double c : st.window_confidences) {
        confidence_hist.observe(ml::confidence_percent(c));
      }
    }
    registry
        .gauge("drbw_model_drift_score",
               "Max per-feature PSI divergence of serving traffic from the "
               "model's training baseline (0 when the model has none)")
        .set_max(result.drift_score);
  }

  if (!options_.snapshot_path.empty()) {
    write_snapshot(result);
  } else {
    result.snapshot_json = render_snapshot(result);
  }
  return result;
}

}  // namespace drbw::serve
