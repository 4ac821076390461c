// Sample-trace persistence.
//
// The real DR-BW collects PEBS records during the monitored run and
// analyzes them offline.  This module provides that decoupling for the
// reproduction: a run's sample stream plus its allocation events can be
// written to a trace artifact and re-analyzed later (or on a different
// machine description) without re-simulating.  Two body encodings share
// the checksummed artifact header (see util/artifact.hpp):
//
//   CSV (v1/v2) — line-oriented, human-greppable:
//     #drbw-trace v2 crc32=<hex> bytes=<n>
//     A,<site>,<base>,<size>          allocation event
//     F,<base>                        free event
//     S,<addr>,<cpu>,<tid>,<level>,<latency>,<w>,<cycle>   sample
//
//   Binary (v3) — little-endian fixed-width records that decode faster
//   than CSV (perfbench analyze_corpus, pebs.decode_mb_per_s.{binary,csv};
//   fields sit at fixed offsets instead of being parsed from text):
//     #drbw-trace v3 crc32=<hex> bytes=<n>
//     prelude   magic 'DRBW' u32 | flags u32 (0) | event count u64 |
//               sample count u64 | label-blob bytes u64
//     labels    concatenated allocation-site labels (referenced by offset)
//     events    kind u8 | label_off u32 | label_len u32 | base u64 | size u64
//     samples   addr u64 | cycle u64 | cpu u32 | tid u32 |
//               latency f32-bits u32 | level u8 | is_write u8
//
// v1 traces ("#drbw-trace v1", no checksum) are still accepted on load;
// save_trace writes CSV v2 by default and binary v3 behind
// SaveOptions{.format = TraceFormat::kBinary}.
//
// Sharded sets: save_trace with shards > 1 writes one standalone trace
// artifact per shard (`<path>.shard-000-of-004`, each with its own
// checksummed header) plus a "#drbw-trace-index" artifact at `path` that
// records every shard's file name, crc32, byte count, and record counts.
// The index is written *last*, so a crashed or fault-injected sharded
// save never leaves a loadable-but-incomplete set — the index is the
// commit point, mirroring the single-file atomic rename.  load_trace
// detects the index transparently, fans the shard reads out across a
// util::TaskPool (`LoadOptions::jobs`), cross-checks each shard against
// the index, and merges in index order — the merged trace and its load
// stats are byte-identical at any jobs count.
//
// File writes go through the atomic artifact writer, so a crashed or
// fault-injected save never leaves a partial trace at the target path.
//
// Loads run under a util::LoadPolicy: strict (the default) rejects the
// first malformed record with a typed Error naming the source, record, and
// offending token; lenient quarantines malformed records, reports counts
// through util::LoadStats and the drbw_trace_* obs counters, and escalates
// to Error(kCorruptArtifact) when the quarantined fraction exceeds the
// policy cap.  For sharded sets the cap applies to the *merged* totals, and
// a shard that cannot be read at all (missing file, damaged beyond the
// header) is quarantined whole using the index's declared record counts, so
// lenient stats stay stable across loads.  The loader threads the
// "trace.read" fault site (keyed by line / record ordinal) plus the
// "trace.shard.write" / "trace.shard.read" sites around per-shard I/O, all
// keyed so injection is deterministic at any --jobs.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "drbw/mem/address_space.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/util/artifact.hpp"

namespace drbw::pebs {

/// Highest trace artifact version this build reads (the binary body).
inline constexpr int kTraceVersion = 3;
/// Version written for CSV bodies (the v2 checksummed line format).
inline constexpr int kTraceCsvVersion = 2;
/// Version of the "#drbw-trace-index" artifact naming a sharded set.
inline constexpr int kTraceIndexVersion = 1;
/// Largest accepted --shards value (shard names are zero-padded to 3).
inline constexpr std::size_t kMaxTraceShards = 999;

struct Trace {
  std::vector<mem::AllocationEvent> events;
  std::vector<MemorySample> samples;
};

/// Body encodings; name round-trip is exposed for the CLI's --format flag.
enum class TraceFormat {
  kCsv,     ///< v2 line-oriented body (default; human-greppable)
  kBinary,  ///< v3 fixed-width little-endian body (fast bulk loads)
};
const char* trace_format_name(TraceFormat format);
/// Parses "csv" / "binary"; throws Error(kUsage) otherwise.
TraceFormat trace_format_from_name(const std::string& name);

struct SaveOptions {
  TraceFormat format = TraceFormat::kCsv;
  std::size_t shards = 1;  ///< > 1 writes a sharded set behind an index
  int jobs = 1;            ///< TaskPool width for shard writes (0 = hw)
};

struct LoadOptions {
  util::LoadPolicy policy{};
  int jobs = 1;                      ///< TaskPool width for shard reads
  int max_version = kTraceVersion;   ///< reject newer headers (kVersionSkew)
};

/// Writes a trace; events come first so replay order matches collection.
/// The stream form emits the legacy v1 CSV header (no checksum — a stream
/// has no stable byte count to pin); save_trace writes the v2 checksummed
/// artifact atomically and threads the "trace.write" fault site.
void write_trace(std::ostream& os, const Trace& trace);
void save_trace(const std::string& path, const Trace& trace);

/// Format/shard-aware save.  Returns every path written: the artifact at
/// `path` first (single file, or the shard-set index), then each shard in
/// index order.  Shard bodies thread the "trace.shard.write" fault site.
std::vector<std::string> save_trace(const std::string& path,
                                    const Trace& trace,
                                    const SaveOptions& options);

/// Parses a trace; throws drbw::Error on malformed or wrong-version input.
/// The policy overloads implement strict/lenient loading as described in
/// the header comment; `stats` (optional) receives record accounting.
Trace read_trace(std::istream& is);
Trace read_trace(std::istream& is, const util::LoadPolicy& policy,
                 util::LoadStats* stats);
Trace load_trace(const std::string& path);
Trace load_trace(const std::string& path, const util::LoadPolicy& policy,
                 util::LoadStats* stats = nullptr);

/// Full-control load: CSV or binary body, single file or sharded set (the
/// index header is sniffed, no flag needed), parallel shard reads, and a
/// version ceiling (`max_version` < an artifact's header version throws
/// Error(kVersionSkew) naming the offending token).  `stats` is filled
/// incrementally, so callers see partial accounting even when a strict
/// load throws mid-set.
Trace load_trace(const std::string& path, const LoadOptions& options,
                 util::LoadStats* stats = nullptr);

/// Every file backing the trace at `path`: just {path} for a single-file
/// trace, or the index followed by each shard (index order) for a sharded
/// set.  Unreadable paths are returned as {path} — callers use this to list
/// artifacts in run manifests, where content hashing tolerates absence.
std::vector<std::string> trace_artifact_paths(const std::string& path);

/// Level <-> trace-token conversion (exposed for tests).
const char* level_token(MemLevel level);
MemLevel level_from_token(const std::string& token);

namespace detail {

/// The two CSV record decoders, exposed for the codec equivalence tests.
/// parse_csv_record is the general one: it accepts every record the format
/// allows, appends it to `trace`, and throws Error(kParse) naming the
/// offending token.  parse_csv_sample_fast decodes only a sample line in
/// the exact shape the writer emits and returns false, leaving `out`
/// untouched, for anything else.  Loads try the fast one first; wherever it
/// accepts, the general one yields the same sample bit for bit.
void parse_csv_record(std::string_view line, Trace& trace);
bool parse_csv_sample_fast(std::string_view line, MemorySample& out);

}  // namespace detail

}  // namespace drbw::pebs
