// Bounded per-client admission queues with explicit overload policies.
//
// The serve loop admits every client's replayed samples through one of
// these before any featurization work happens, so ingest pressure is
// bounded by construction: a queue holds at most `depth` samples, and what
// happens past that point is a *policy*, not an accident:
//
//   block       — the producer is pushed back: the sample stays in the
//                 client's pending stream and is re-offered next tick
//                 (lossless, adds latency).
//   shed-oldest — the oldest queued sample is evicted to make room (bounded
//                 staleness, loses the oldest data first).
//   reject      — the incoming sample is refused with a typed AdmitResult
//                 (the client sees the failure immediately; newest data is
//                 lost under pressure).
//
// push() is mutex-guarded (MPSC-safe), but every counter is a plain tally
// under the same mutex: the deterministic serve loop admits serially, in
// client/ordinal order, so all counts are pure functions of the stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "drbw/pebs/session.hpp"

namespace drbw::serve {

/// What a full queue does with the next sample.
enum class OverloadPolicy {
  kBlock,      ///< "block": defer the sample to the next tick (lossless)
  kShedOldest, ///< "shed-oldest": evict the oldest queued sample
  kReject,     ///< "reject": refuse the incoming sample (typed response)
};

/// Stable CLI token for each policy ("block", "shed-oldest", "reject").
const char* overload_policy_name(OverloadPolicy policy);
/// Inverse of overload_policy_name; throws Error(kUsage) on unknown tokens.
OverloadPolicy overload_policy_from_name(const std::string& name);

/// Typed admission response — what a real client would get back.
enum class AdmitResult {
  kAdmitted,  ///< enqueued
  kShed,      ///< enqueued, but the oldest queued sample was evicted
  kRejected,  ///< refused: queue full under the reject policy
  kDeferred,  ///< refused for now: queue full under the block policy
};

const char* admit_result_name(AdmitResult result);

/// One client's bounded ingest queue.
class BoundedQueue {
 public:
  BoundedQueue(std::size_t depth, OverloadPolicy policy);

  /// Offers one sample under the overload policy (see file comment).
  AdmitResult push(const pebs::SessionSample& sample);

  /// Tallies `count` offers pushed back at once.  Under block a full queue
  /// defers every later offer until the next drain, so a caller that just
  /// got kDeferred can account the rest of its backlog in one call instead
  /// of re-offering each sample.
  void note_deferred(std::uint64_t count);

  /// Pops up to `max` samples, oldest first.
  std::vector<pebs::SessionSample> drain(std::size_t max);

  std::size_t size() const;
  std::size_t depth() const { return depth_; }
  OverloadPolicy policy() const { return policy_; }

  /// High-water mark of size() since construction.
  std::size_t peak() const;
  std::uint64_t admitted() const;
  std::uint64_t shed() const;
  std::uint64_t rejected() const;
  std::uint64_t deferred() const;

 private:
  const std::size_t depth_;
  const OverloadPolicy policy_;
  mutable std::mutex mutex_;
  std::deque<pebs::SessionSample> queue_;
  std::size_t peak_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t deferred_ = 0;
};

}  // namespace drbw::serve
