// drbw::fault — deterministic, seed-driven fault injection.
//
// DR-BW's real-world analogue ingests lossy hardware telemetry: PEBS drops
// and corrupts samples under buffer pressure, traces get truncated by full
// disks, model files get damaged in transit.  This layer makes every such
// failure mode *testable by construction*: named injection sites are
// threaded through the PEBS sampler, trace I/O, model load/save, the atomic
// artifact writer, and the engine epoch loop, and a spec string (the CLI's
// --inject-faults) arms a subset of them.
//
// Determinism contract (same as obs): identical spec + seed produce
// identical injection decisions at any --jobs count.  Decisions are
// *stateless* — should_inject(site, kind, key) is a pure function of
// (plan seed, site name, kind, caller-supplied key), never of call order —
// so parallel task scheduling cannot change which faults fire.  Callers
// derive keys from content (sample fields, line numbers, body checksums),
// which is scheduling-independent by construction.
//
// Layering: fault sits at the very bottom, below obs and util.  It depends
// only on the standard library and the header-only drbw/util/error.hpp;
// consumers (trace I/O, the engine, the artifact writer) count quarantines
// and drops in their own obs instruments, and the obs flight recorder
// installs a fire hook (set_fire_hook) so every fired site leaves a
// breadcrumb without the fault layer ever depending upward.
//
// Compile-out: -DDRBW_FAULT=OFF defines DRBW_FAULT_DISABLED, which turns
// every query below into a constant `false` the optimizer deletes — zero
// instrumented overhead, like the obs layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "drbw/util/error.hpp"

namespace drbw::fault {

#if defined(DRBW_FAULT_DISABLED)
inline constexpr bool kEnabled = false;
#else
/// Compile-time master switch (see header comment).
inline constexpr bool kEnabled = true;
#endif

/// What an armed site does when its draw fires.
enum class Kind : std::uint8_t {
  kDropSample,    ///< "drop":       discard the record (PEBS buffer overflow)
  kCorruptField,  ///< "corrupt":    flip bits in a field / byte of a record
  kTruncateFile,  ///< "truncate":   cut an artifact body short before write
  kMalformJson,   ///< "malform":    damage a JSON body so it no longer parses
  kShortWrite,    ///< "short-write": crash mid-write, temp file half-written
  kFail,          ///< "fail":       throw Error(kFaultInjected) at the site
};

/// Stable spec token for each kind ("drop", "corrupt", …).
const char* kind_token(Kind kind);
/// Inverse of kind_token; throws Error(kParse) on an unknown token.
Kind kind_from_token(const std::string& token);

/// One armed injection site.
struct SiteSpec {
  std::string site;  ///< dotted site name, e.g. "pebs.sample", "trace.write"
  Kind kind = Kind::kFail;
  double rate = 0.0;  ///< fire probability per key draw, in [0, 1]
};

/// A parsed --inject-faults spec.  Grammar (clauses comma-separated):
///
///   spec   := clause (',' clause)*
///   clause := 'seed=' uint64
///           | site ':' kind ':' rate
///   site   := dotted identifier   (pebs.sample, engine.epoch, trace.read,
///                                  trace.write, trace.shard.read,
///                                  trace.shard.write, model.write,
///                                  artifact.write, diagnose.cf,
///                                  report.render — the full list is the
///                                  registry: tools/analyze/registry.json)
///   kind   := drop | corrupt | truncate | malform | short-write | fail
///   rate   := decimal in [0, 1]
///
/// Example: "seed=42,pebs.sample:drop:0.01,trace.write:truncate:1"
struct Plan {
  std::uint64_t seed = 0;
  std::vector<SiteSpec> sites;

  /// Parses a spec string; throws Error(kParse) with the offending clause.
  static Plan parse(const std::string& spec);
  /// Canonical spec text (parse round-trips through it).
  std::string to_string() const;
};

/// The process-wide injector.  arm()/disarm() must not race with decision
/// queries (the CLI arms once before any pipeline work; tests arm/disarm
/// between serial phases).  Decision queries themselves are thread-safe and,
/// per the contract above, schedule-independent.
class Injector {
 public:
  Injector() = default;
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  void arm(Plan plan);
  void disarm();
  bool armed() const { return armed_; }
  const Plan& plan() const { return plan_; }

  /// True when `site` is armed with `kind` and the deterministic draw for
  /// `key` falls under the configured rate.  Fires are tallied per
  /// site:kind for reports and tests.
  bool should_inject(std::string_view site, Kind kind, std::uint64_t key);

  /// Deterministic single-bit corruption of `value` (bit index derived from
  /// the same hash stream as the decisions).
  std::uint64_t corrupt_bits(std::string_view site, std::uint64_t key,
                             std::uint64_t value) const;

  /// Fire tallies as sorted (site:kind, count) rows.  Deterministic whenever
  /// the callers' keys are (sums are commutative).
  std::vector<std::pair<std::string, std::uint64_t>> fire_counts() const;
  void reset_counts();

  /// Breadcrumb hook invoked after every *fired* (tallied) decision.  The
  /// obs flight recorder installs it so fault-site hits appear in flight
  /// dumps; a plain function pointer keeps fault free of upward
  /// dependencies.  The callee must not query the injector re-entrantly.
  using FireHook = void (*)(std::string_view site, const char* kind_token,
                            std::uint64_t key);
  void set_fire_hook(FireHook hook) {
    fire_hook_.store(hook, std::memory_order_relaxed);
  }

  static Injector& global();

 private:
  bool armed_ = false;
  Plan plan_;
  std::atomic<FireHook> fire_hook_{nullptr};
  mutable std::mutex mutex_;  // guards counts_ only
  std::vector<std::pair<std::string, std::uint64_t>> counts_;  // sorted keys
};

namespace detail {
/// Mirrors Injector::global().armed(), which arm() and disarm() keep in
/// step.  A constant-initialized flag, so an unarmed query is answered by
/// inline code without reaching the function-local global injector.
constinit inline bool global_armed = false;
}  // namespace detail

/// Decision query; compiled out to a constant under -DDRBW_FAULT=OFF.
inline bool should_inject(std::string_view site, Kind kind,
                          std::uint64_t key) {
  if constexpr (!kEnabled) {
    (void)site;
    (void)kind;
    (void)key;
    return false;
  } else {
    if (!detail::global_armed) return false;
    return Injector::global().should_inject(site, kind, key);
  }
}

/// True while a plan is armed; compiled out to a constant `false`.  Hot
/// loops use it to take a bulk path when no draw can fire.
inline bool armed() {
  if constexpr (!kEnabled) {
    return false;
  } else {
    return detail::global_armed;
  }
}

/// Bit-flips `value` when compiled in (callers gate on should_inject first).
inline std::uint64_t corrupt_bits(std::string_view site, std::uint64_t key,
                                  std::uint64_t value) {
  if constexpr (!kEnabled) {
    (void)site;
    (void)key;
    return value;
  } else {
    return Injector::global().corrupt_bits(site, key, value);
  }
}

/// Throws Error(what, kFaultInjected) when the site's kFail draw fires.
inline void maybe_fail(std::string_view site, std::uint64_t key,
                       const std::string& what) {
  if (should_inject(site, Kind::kFail, key)) {
    throw Error(what, ErrorCode::kFaultInjected);
  }
}

}  // namespace drbw::fault
