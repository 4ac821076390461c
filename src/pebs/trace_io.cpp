#include "drbw/pebs/trace_io.hpp"

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/flight_recorder.hpp"
#include "drbw/obs/metrics.hpp"
#include "drbw/obs/trace.hpp"
#include "drbw/util/csv.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/task_pool.hpp"

namespace drbw::pebs {

namespace {

constexpr const char* kArtifactKind = "trace";
constexpr const char* kIndexKind = "trace-index";

// Binary (v3) body geometry.  All integers are little-endian regardless of
// host byte order; the encoder/decoder below shift bytes explicitly.
constexpr std::uint32_t kBinaryMagic = 0x57425244u;  // "DRBW" read as LE u32
constexpr std::size_t kBinaryPreludeBytes = 32;
constexpr std::size_t kBinaryEventBytes = 25;
constexpr std::size_t kBinarySampleBytes = 30;
constexpr std::uint8_t kMaxLevelByte =
    static_cast<std::uint8_t>(MemLevel::kRemoteDram);

/// Loader-side instruments.  Every count below keys off record content /
/// ordinals (never scheduling), so the totals are byte-identical at any
/// --jobs value (golden visibility).
struct TraceMetrics {
  obs::Counter& records_seen;
  obs::Counter& records_quarantined;
  obs::Counter& checksum_failures;
  obs::Counter& bytes_loaded;
  obs::Counter& shards_loaded;

  static TraceMetrics& get() {
    auto& reg = obs::Registry::global();
    static TraceMetrics m{
        reg.counter("drbw_trace_records_total",
                    "Trace records seen by the loader"),
        reg.counter("drbw_trace_records_quarantined_total",
                    "Malformed trace records quarantined by lenient loads"),
        reg.counter("drbw_trace_checksum_failures_total",
                    "Trace artifact bodies whose crc32 failed validation"),
        reg.counter("drbw_trace_bytes_loaded_total",
                    "Trace artifact body bytes parsed by the loader"),
        reg.counter("drbw_trace_shards_loaded_total",
                    "Trace shards parsed out of sharded sets"),
    };
    return m;
  }
};

std::string hex8(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return std::string(buf);
}

}  // namespace

const char* level_token(MemLevel level) {
  switch (level) {
    case MemLevel::kL1: return "L1";
    case MemLevel::kL2: return "L2";
    case MemLevel::kL3: return "L3";
    case MemLevel::kLfb: return "LFB";
    case MemLevel::kLocalDram: return "LDR";
    case MemLevel::kRemoteDram: return "RDR";
  }
  return "?";
}

MemLevel level_from_token(const std::string& token) {
  if (token == "L1") return MemLevel::kL1;
  if (token == "L2") return MemLevel::kL2;
  if (token == "L3") return MemLevel::kL3;
  if (token == "LFB") return MemLevel::kLfb;
  if (token == "LDR") return MemLevel::kLocalDram;
  if (token == "RDR") return MemLevel::kRemoteDram;
  throw Error("unknown memory-level token '" + token + "' in trace",
              ErrorCode::kParse);
}

const char* trace_format_name(TraceFormat format) {
  return format == TraceFormat::kBinary ? "binary" : "csv";
}

TraceFormat trace_format_from_name(const std::string& name) {
  if (name == "csv") return TraceFormat::kCsv;
  if (name == "binary") return TraceFormat::kBinary;
  throw Error("trace format must be csv or binary, got '" + name + "'",
              ErrorCode::kUsage);
}

namespace {

// Worst-case bytes of one CSV record, the room TextSink makes before it:
// "S," + u64 + int + u32 + level + %.6g float (at most "-1.17549e-38") +
// write flag + u64, plus separators, rounded up.
constexpr std::size_t kMaxSampleLine = 96;
constexpr std::size_t kMaxFreeLine = 32;
constexpr std::size_t kMaxAllocLine = 64;  // plus the escaped label

/// printf "%.6g" of a float in [1, 1e6), where latencies live, without the
/// general formatter.  With X the decimal exponent, value * 10^(5-X) is
/// exact in double (a 24-bit significand times at most 10^5), so rounding
/// it to an integer, ties to even as printf rounds, gives printf's six
/// significant digits; %g then prints them fixed, trailing zeros dropped.
/// Returns nullptr, writing nothing, outside that range or when rounding
/// carries into 1e6 (which %g prints as "1e+06").
char* put_g6_fixed(char* p, float value) {
  static constexpr float kDecades[] = {1e1f, 1e2f, 1e3f, 1e4f, 1e5f};
  static constexpr double kScale[] = {1e5, 1e4, 1e3, 1e2, 1e1, 1e0};
  if (!(value >= 1.0f && value < 1e6f)) return nullptr;
  std::size_t x = 0;  // 10^x <= value < 10^(x+1)
  while (x < 5 && value >= kDecades[x]) ++x;
  auto digits = static_cast<std::uint32_t>(
      std::nearbyint(static_cast<double>(value) * kScale[x]));
  if (digits == 1000000) {  // rounded up into the next decade
    if (x == 5) return nullptr;
    ++x;
    digits = 100000;
  }
  char text[6];
  for (std::size_t i = 6; i-- > 0; digits /= 10) {
    text[i] = static_cast<char>('0' + digits % 10);
  }
  std::size_t last = 5;
  while (last > x && text[last] == '0') --last;
  std::memcpy(p, text, x + 1);
  p += x + 1;
  if (last > x) {
    *p++ = '.';
    std::memcpy(p, text + x + 1, last - x);
    p += last - x;
  }
  return p;
}

/// Appends text to a string through a raw cursor.  Before each record,
/// room() makes sure the string extends at least the record's worst-case
/// width past the cursor (growing it geometrically, so the zero fill is
/// amortized); finish() trims the string back to the text written.  Output
/// is locale-independent, matching `ostream <<` under the classic "C"
/// locale byte for byte.
class TextSink {
 public:
  explicit TextSink(std::string& out)
      : out_(out), cursor_(out.data() + out.size()), end_(cursor_) {}

  TextSink& room(std::size_t max_bytes) {
    if (static_cast<std::size_t>(end_ - cursor_) < max_bytes) grow(max_bytes);
    return *this;
  }
  TextSink& put(char c) {
    *cursor_++ = c;
    return *this;
  }
  TextSink& put(std::string_view text) {
    std::memcpy(cursor_, text.data(), text.size());
    cursor_ += text.size();
    return *this;
  }
  template <typename Int>
  TextSink& put_int(Int value) {
    cursor_ = std::to_chars(cursor_, end_, value).ptr;
    return *this;
  }
  /// printf "%.6g" — what `ostream << float` emits under default flags.
  TextSink& put_latency(float value) {
    char* const fixed = put_g6_fixed(cursor_, value);
    cursor_ = fixed != nullptr
                  ? fixed
                  : std::to_chars(cursor_, end_, value,
                                  std::chars_format::general, 6)
                        .ptr;
    return *this;
  }
  void finish() { out_.resize(written()); }

 private:
  std::size_t written() const {
    return static_cast<std::size_t>(cursor_ - out_.data());
  }
  void grow(std::size_t max_bytes) {
    const std::size_t at = written();
    out_.resize(std::max({out_.capacity(), 2 * out_.size(), at + max_bytes}));
    cursor_ = out_.data() + at;
    end_ = out_.data() + out_.size();
  }

  std::string& out_;
  char* cursor_;
  char* end_;
};

void render_csv(std::string& out, const mem::AllocationEvent* events,
                std::size_t event_count, const MemorySample* samples,
                std::size_t sample_count) {
  // A typical sample line is ~40 bytes; growth past the estimate doubles.
  out.reserve(out.size() + event_count * kMaxAllocLine + sample_count * 48);
  TextSink sink(out);
  for (std::size_t i = 0; i < event_count; ++i) {
    const mem::AllocationEvent& e = events[i];
    if (e.kind == mem::AllocationEvent::Kind::kAlloc) {
      const std::string label = CsvWriter::escape(e.site.label);
      sink.room(kMaxAllocLine + label.size())
          .put("A,")
          .put(label)
          .put(',')
          .put_int(e.base)
          .put(',')
          .put_int(e.size_bytes)
          .put('\n');
    } else {
      sink.room(kMaxFreeLine).put("F,").put_int(e.base).put('\n');
    }
  }
  for (std::size_t i = 0; i < sample_count; ++i) {
    const MemorySample& s = samples[i];
    sink.room(kMaxSampleLine)
        .put("S,")
        .put_int(s.address)
        .put(',')
        .put_int(s.cpu)
        .put(',')
        .put_int(s.tid)
        .put(',')
        .put(level_token(s.level))
        .put(',')
        .put_latency(s.latency_cycles)
        .put(',')
        .put(s.is_write ? '1' : '0')
        .put(',')
        .put_int(s.cycle)
        .put('\n');
  }
  sink.finish();
}

unsigned char* put_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v & 0xffu);
  p[1] = static_cast<unsigned char>((v >> 8) & 0xffu);
  p[2] = static_cast<unsigned char>((v >> 16) & 0xffu);
  p[3] = static_cast<unsigned char>((v >> 24) & 0xffu);
  return p + 4;
}

unsigned char* put_u64(unsigned char* p, std::uint64_t v) {
  p = put_u32(p, static_cast<std::uint32_t>(v & 0xffffffffu));
  return put_u32(p, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::uint32_t float_bits(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

float bits_float(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

/// Renders the v3 binary body (see the layout in trace_io.hpp).  Labels are
/// deduplicated into one blob; events reference them by (offset, length).
/// The body's size is known up front, so it is allocated once and written
/// through a cursor.
std::string render_binary(const mem::AllocationEvent* events,
                          std::size_t event_count, const MemorySample* samples,
                          std::size_t sample_count) {
  std::string labels;
  std::map<std::string_view, std::pair<std::uint32_t, std::uint32_t>> interned;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> refs(event_count);
  for (std::size_t i = 0; i < event_count; ++i) {
    const std::string& label = events[i].site.label;
    const auto it = interned.find(label);
    if (it != interned.end()) {
      refs[i] = it->second;
      continue;
    }
    const auto ref = std::make_pair(static_cast<std::uint32_t>(labels.size()),
                                    static_cast<std::uint32_t>(label.size()));
    labels += label;
    interned.emplace(label, ref);
    refs[i] = ref;
  }
  std::string out(kBinaryPreludeBytes + labels.size() +
                      event_count * kBinaryEventBytes +
                      sample_count * kBinarySampleBytes,
                  '\0');
  auto* p = reinterpret_cast<unsigned char*>(out.data());
  p = put_u32(p, kBinaryMagic);
  p = put_u32(p, 0);  // flags, reserved
  p = put_u64(p, event_count);
  p = put_u64(p, sample_count);
  p = put_u64(p, labels.size());
  std::copy(labels.begin(), labels.end(), p);
  p += labels.size();
  for (std::size_t i = 0; i < event_count; ++i) {
    const mem::AllocationEvent& e = events[i];
    *p++ = static_cast<unsigned char>(e.kind);
    p = put_u32(p, refs[i].first);
    p = put_u32(p, refs[i].second);
    p = put_u64(p, e.base);
    p = put_u64(p, e.size_bytes);
  }
  for (std::size_t i = 0; i < sample_count; ++i) {
    const MemorySample& s = samples[i];
    p = put_u64(p, s.address);
    p = put_u64(p, s.cycle);
    p = put_u32(p, static_cast<std::uint32_t>(s.cpu));
    p = put_u32(p, s.tid);
    p = put_u32(p, float_bits(s.latency_cycles));
    p[0] = static_cast<unsigned char>(s.level);
    p[1] = s.is_write ? 1 : 0;
    p += 2;
  }
  return out;
}

std::string render_body(TraceFormat format, const mem::AllocationEvent* events,
                        std::size_t event_count, const MemorySample* samples,
                        std::size_t sample_count) {
  if (format == TraceFormat::kBinary) {
    return render_binary(events, event_count, samples, sample_count);
  }
  std::string out;
  render_csv(out, events, event_count, samples, sample_count);
  return out;
}

/// Escalates a lenient load once the quarantined fraction clears the policy
/// cap.  Shared by the CSV parser, the binary parser, and the post-merge
/// check of sharded loads (shards parse under an uncapped policy so the cap
/// applies exactly once, to the merged totals).
void enforce_quarantine_cap(const std::string& source,
                            const util::LoadPolicy& policy,
                            const util::LoadStats& st) {
  if (!policy.lenient() ||
      st.quarantined_fraction() <= policy.max_bad_fraction) {
    return;
  }
  std::ostringstream os;
  os << source << ": " << st.records_quarantined << " of " << st.records_seen
     << " records are malformed, above the tolerated fraction "
     << policy.max_bad_fraction << " — artifact too damaged to trust";
  throw Error(os.str(), ErrorCode::kCorruptArtifact);
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  std::string text = "#drbw-trace v1\n";
  render_csv(text, trace.events.data(), trace.events.size(),
             trace.samples.data(), trace.samples.size());
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void save_trace(const std::string& path, const Trace& trace) {
  util::write_versioned_artifact(
      path, kArtifactKind, kTraceCsvVersion,
      render_body(TraceFormat::kCsv, trace.events.data(), trace.events.size(),
                  trace.samples.data(), trace.samples.size()),
      "trace.write");
}

namespace {

/// Minimal CSV field splitter honoring the double-quote escaping CsvWriter
/// produces for site labels.
std::vector<std::string> split_csv(std::string_view line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

std::uint64_t to_u64(const std::string& s) {
  // stoull skips leading whitespace and then wraps a '-' sign modulo 2^64
  // ("-1" would load as 2^64-1), so a sign is rejected outright.
  const std::size_t first = s.find_first_not_of(" \t\n\v\f\r");
  const bool negative = first != std::string::npos && s[first] == '-';
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (negative || pos != s.size() || s.empty()) {
    throw Error("malformed number '" + s + "'", ErrorCode::kParse);
  }
  return v;
}

/// A latency is a finite, non-negative cycle count — the same rule the
/// binary decoder applies to the raw float bits.
float to_latency(const std::string& s) {
  std::size_t pos = 0;
  float v = 0.0f;
  try {
    v = std::stof(s, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != s.size() || s.empty() || !std::isfinite(v) || v < 0.0f) {
    throw Error("malformed latency '" + s + "'", ErrorCode::kParse);
  }
  return v;
}

void require_arity(const std::vector<std::string>& fields, std::size_t want) {
  if (fields.size() != want) {
    throw Error("record has " + std::to_string(fields.size()) +
                    " fields, expected " + std::to_string(want),
                ErrorCode::kParse);
  }
}

/// True when `line` holds nothing but whitespace.
bool blank(std::string_view line) {
  for (const char c : line) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Cursor for the fast sample decoder.  Each take_* reads one field in the
/// shape render_csv writes, plus the ',' that ends it (or, for the last
/// field, the end of the line), and returns false on anything else.
class SampleCursor {
 public:
  explicit SampleCursor(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// Exactly `token`; on a mismatch the cursor stays put, so the caller
  /// can try an alternative.
  bool take(std::string_view token, bool last = false) {
    if (static_cast<std::size_t>(end_ - p_) < token.size() ||
        std::memcmp(p_, token.data(), token.size()) != 0) {
      return false;
    }
    const char* const start = p_;
    p_ += token.size();
    if (field_end(last)) return true;
    p_ = start;
    return false;
  }

  /// 1–19 decimal digits: the widths that cannot overflow a u64.
  bool take_u64(std::uint64_t& out, bool last = false) {
    const char* const from = p_;
    std::uint64_t v = 0;
    while (p_ != end_ && is_digit(*p_)) v = v * 10 + digit(*p_++);
    if (p_ == from || p_ - from > 19) return false;
    out = v;
    return field_end(last);
  }

  bool take_level(MemLevel& out) {
    for (const MemLevel level :
         {MemLevel::kLocalDram, MemLevel::kRemoteDram, MemLevel::kL1,
          MemLevel::kL2, MemLevel::kL3, MemLevel::kLfb}) {
      if (take(level_token(level))) {
        out = level;
        return true;
      }
    }
    return false;
  }

  /// A latency in the shape "%g" prints — digits, an optional fraction, an
  /// optional exponent with an explicit sign — whose value is 0 or lies
  /// strictly inside (FLT_MIN, FLT_MAX), clear of every case where stof
  /// reports a range error.  Up to 7 digits without an exponent (the usual
  /// token) make m / 10^k with both operands exact floats, so the one IEEE
  /// division rounds as stof does; longer tokens go through from_chars,
  /// which is correctly rounded as well.
  bool take_latency(float& out) {
    static constexpr float kPow10[] = {1e0f, 1e1f, 1e2f, 1e3f,
                                       1e4f, 1e5f, 1e6f, 1e7f};
    const char* const from = p_;
    std::uint32_t mantissa = 0;  // the first 7 digits
    int digits = 0;
    int fraction = 0;
    const auto run = [&](bool in_fraction) {
      const char* const start = p_;
      for (; p_ != end_ && is_digit(*p_); ++p_, ++digits) {
        if (digits < 7) mantissa = mantissa * 10 + digit(*p_);
        if (in_fraction) ++fraction;
      }
      return p_ != start;
    };
    if (!run(false)) return false;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (!run(true)) return false;
    }
    bool exponent = false;
    if (p_ != end_ && *p_ == 'e') {
      exponent = true;
      if (++p_ == end_ || (*p_ != '+' && *p_ != '-')) return false;
      ++p_;
      const char* const start = p_;
      while (p_ != end_ && is_digit(*p_)) ++p_;
      if (p_ == start) return false;
    }
    const char* const token_end = p_;
    if (!field_end(false)) return false;
    if (!exponent && digits <= 7) {
      out = static_cast<float>(mantissa) / kPow10[fraction];
      return true;
    }
    // from_chars reports underflow to zero and overflow as out of range;
    // subnormal and boundary results are left to stof's verdict.
    float v = 0.0f;
    const auto [ptr, ec] =
        std::from_chars(from, token_end, v, std::chars_format::general);
    if (ec != std::errc() || ptr != token_end ||
        (v != 0.0f && !(v > FLT_MIN && v < FLT_MAX))) {
      return false;
    }
    out = v;
    return true;
  }

 private:
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }
  static std::uint32_t digit(char c) {
    return static_cast<std::uint32_t>(c - '0');
  }

  bool field_end(bool last) {
    if (last) return p_ == end_;
    if (p_ == end_ || *p_ != ',') return false;
    ++p_;
    return true;
  }

  const char* p_;
  const char* end_;
};

}  // namespace

namespace detail {

bool parse_csv_sample_fast(std::string_view line, MemorySample& out) {
  SampleCursor cursor(line);
  MemorySample s;
  std::uint64_t cpu = 0;
  std::uint64_t tid = 0;
  bool is_write = false;
  if (!cursor.take("S") || !cursor.take_u64(s.address) ||
      !cursor.take_u64(cpu) || !cursor.take_u64(tid) ||
      !cursor.take_level(s.level) || !cursor.take_latency(s.latency_cycles)) {
    return false;
  }
  if (cursor.take("1")) {
    is_write = true;
  } else if (!cursor.take("0")) {
    return false;
  }
  if (!cursor.take_u64(s.cycle, /*last=*/true)) return false;
  s.cpu = static_cast<topology::CpuId>(cpu);
  s.tid = static_cast<std::uint32_t>(tid);
  s.is_write = is_write;
  out = s;
  return true;
}

void parse_csv_record(std::string_view line, Trace& trace) {
  const auto fields = split_csv(line);
  const std::string& kind = fields[0];
  if (kind == "A") {
    require_arity(fields, 4);
    trace.events.push_back(mem::AllocationEvent{
        mem::AllocationEvent::Kind::kAlloc, {fields[1]}, to_u64(fields[2]),
        to_u64(fields[3])});
  } else if (kind == "F") {
    require_arity(fields, 2);
    trace.events.push_back(mem::AllocationEvent{
        mem::AllocationEvent::Kind::kFree, {""}, to_u64(fields[1]), 0});
  } else if (kind == "S") {
    require_arity(fields, 8);
    MemorySample s;
    s.address = to_u64(fields[1]);
    s.cpu = static_cast<topology::CpuId>(to_u64(fields[2]));
    s.tid = static_cast<std::uint32_t>(to_u64(fields[3]));
    s.level = level_from_token(fields[4]);
    s.latency_cycles = to_latency(fields[5]);
    s.is_write = fields[6] == "1";
    s.cycle = to_u64(fields[7]);
    trace.samples.push_back(s);
  } else {
    throw Error("unknown record kind '" + kind + "'", ErrorCode::kParse);
  }
}

}  // namespace detail

namespace {

/// Parses the record lines of a CSV `body` under `policy`.  `source` names
/// the origin (file path or "<stream>") in every error; `first_line_no` is
/// the 1-based line number of the first body line in the original file, so
/// messages point at real file lines even though the header was stripped.
/// Sample lines in the writer's own shape take the fast decoder; every
/// other line, and every line the "trace.read" fault damages, takes the
/// general one, which owns the error texts.
Trace parse_records(const std::string& body, const std::string& source,
                    std::size_t first_line_no, const util::LoadPolicy& policy,
                    util::LoadStats* stats) {
  Trace trace;
  util::LoadStats local;
  util::LoadStats& st = stats != nullptr ? *stats : local;
  TraceMetrics& metrics = TraceMetrics::get();
  // A sample is one line, so the newline count bounds the sample count.
  trace.samples.reserve(
      static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n')) +
      1);
  const bool faults_armed = fault::armed();
  // One batched counter add per body, as parse_binary does; a strict failure
  // adds the lines seen so far, the failing one included, before it throws.
  std::uint64_t seen = 0;
  std::string damaged;
  std::size_t line_no = first_line_no - 1;
  for (std::size_t pos = 0; pos < body.size();) {
    const std::size_t eol = std::min(body.find('\n', pos), body.size());
    std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (blank(line)) continue;
    ++seen;
    ++st.records_seen;
    // Fault site "trace.read": deterministically damage this line (keyed by
    // its line number, so the decision is identical at any --jobs count).
    if (faults_armed && fault::should_inject("trace.read",
                                             fault::Kind::kCorruptField,
                                             line_no)) {
      damaged.assign(line);
      const std::uint64_t bit = fault::corrupt_bits("trace.read", line_no, 0);
      const std::size_t at = static_cast<std::size_t>(bit % damaged.size());
      damaged[at] = static_cast<char>(damaged[at] ^ 0x11);
      line = damaged;
    } else {
      MemorySample s;
      if (detail::parse_csv_sample_fast(line, s)) {
        trace.samples.push_back(s);
        ++st.records_ok;
        continue;
      }
    }
    try {
      detail::parse_csv_record(line, trace);
      ++st.records_ok;
    } catch (const Error& e) {
      if (!policy.lenient()) {
        metrics.records_seen.add(seen);
        throw Error(source + ":" + std::to_string(line_no) + ": " + e.what(),
                    e.code());
      }
      ++st.records_quarantined;
      metrics.records_quarantined.add(1);
      // Post-mortem breadcrumb: which source line was quarantined.  Keyed by
      // content (line number), so flight dumps stay jobs-independent.
      obs::flight().note("quarantine", source, line_no);
    }
  }
  metrics.records_seen.add(seen);
  enforce_quarantine_cap(source, policy, st);
  return trace;
}

/// Decodes one binary event record; throws Error(kParse) on an invalid
/// field.  `label_blob` is the label region the (offset, length) reference
/// must fall inside.
mem::AllocationEvent parse_binary_event(const unsigned char* p,
                                        std::string_view label_blob,
                                        std::size_t ordinal) {
  const std::uint8_t kind = p[0];
  if (kind > 1) {
    throw Error("event record #" + std::to_string(ordinal) +
                    ": unknown kind byte " + std::to_string(kind),
                ErrorCode::kParse);
  }
  const std::uint32_t off = get_u32(p + 1);
  const std::uint32_t len = get_u32(p + 5);
  if (off > label_blob.size() || len > label_blob.size() - off) {
    throw Error("event record #" + std::to_string(ordinal) +
                    ": label reference [" + std::to_string(off) + ", +" +
                    std::to_string(len) + ") falls outside the label blob",
                ErrorCode::kParse);
  }
  mem::AllocationEvent e;
  e.kind = static_cast<mem::AllocationEvent::Kind>(kind);
  e.site.label = std::string(label_blob.substr(off, len));
  e.base = get_u64(p + 9);
  e.size_bytes = get_u64(p + 17);
  return e;
}

/// Decodes one binary sample record; throws Error(kParse) on an invalid
/// field (level byte, write flag, non-finite latency).
MemorySample parse_binary_sample(const unsigned char* p, std::size_t ordinal) {
  const std::uint8_t level = p[28];
  if (level > kMaxLevelByte) {
    throw Error("sample record #" + std::to_string(ordinal) +
                    ": unknown memory-level byte " + std::to_string(level),
                ErrorCode::kParse);
  }
  const std::uint8_t write = p[29];
  if (write > 1) {
    throw Error("sample record #" + std::to_string(ordinal) +
                    ": malformed write flag " + std::to_string(write),
                ErrorCode::kParse);
  }
  const float latency = bits_float(get_u32(p + 24));
  if (!std::isfinite(latency) || latency < 0.0f) {
    throw Error("sample record #" + std::to_string(ordinal) +
                    ": malformed latency bits",
                ErrorCode::kParse);
  }
  MemorySample s;
  s.address = get_u64(p);
  s.cycle = get_u64(p + 8);
  s.cpu = static_cast<topology::CpuId>(get_u32(p + 16));
  s.tid = get_u32(p + 20);
  s.latency_cycles = latency;
  s.level = static_cast<MemLevel>(level);
  s.is_write = write == 1;
  return s;
}

/// Parses a v3 binary body under `policy`.  Record ordinals are keyed the
/// way CSV line numbers would be for the same trace (events start at 2,
/// samples follow), so one fault spec damages the same logical record in
/// either format.  In lenient mode a truncated tail quarantines the missing
/// records against the declared counts, so stats are stable across loads.
Trace parse_binary(const std::string& body, const std::string& source,
                   const util::LoadPolicy& policy, util::LoadStats* stats) {
  util::LoadStats local;
  util::LoadStats& st = stats != nullptr ? *stats : local;
  TraceMetrics& metrics = TraceMetrics::get();
  const auto* base = reinterpret_cast<const unsigned char*>(body.data());
  if (body.size() < kBinaryPreludeBytes) {
    throw Error(source + ": binary trace prelude is " +
                    std::to_string(body.size()) + " bytes, expected " +
                    std::to_string(kBinaryPreludeBytes) +
                    " — artifact is truncated or corrupt",
                ErrorCode::kCorruptArtifact);
  }
  if (get_u32(base) != kBinaryMagic) {
    throw Error(source + ": binary trace magic mismatch (body is not a v3 "
                         "trace encoding)",
                ErrorCode::kParse);
  }
  if (get_u32(base + 4) != 0) {
    throw Error(source + ": unsupported binary trace flags", ErrorCode::kParse);
  }
  const std::uint64_t event_count = get_u64(base + 8);
  const std::uint64_t sample_count = get_u64(base + 16);
  const std::uint64_t label_bytes = get_u64(base + 24);
  // Declared counts beyond what any body of this size could hold mean the
  // prelude itself is damaged — unrecoverable in either mode (and the guard
  // bounds the quarantine loops below against absurd counts).
  if (event_count > body.size() || sample_count > body.size() ||
      label_bytes > body.size()) {
    throw Error(source + ": binary trace prelude declares more records than "
                         "the body could hold — prelude is corrupt",
                ErrorCode::kCorruptArtifact);
  }
  const std::size_t events_off = kBinaryPreludeBytes +
                                 static_cast<std::size_t>(label_bytes);
  const std::size_t samples_off =
      events_off + static_cast<std::size_t>(event_count) * kBinaryEventBytes;
  const std::size_t expected =
      samples_off + static_cast<std::size_t>(sample_count) * kBinarySampleBytes;
  if (body.size() != expected && !policy.lenient()) {
    throw Error(source + ": binary trace body is " +
                    std::to_string(body.size()) + " bytes, expected " +
                    std::to_string(expected) +
                    " — artifact is truncated or corrupt",
                ErrorCode::kCorruptArtifact);
  }
  const bool labels_ok = events_off <= body.size();
  const std::string_view label_blob(
      body.data() + kBinaryPreludeBytes,
      labels_ok ? static_cast<std::size_t>(label_bytes) : 0);
  std::size_t events_avail = 0;
  std::size_t samples_avail = 0;
  if (labels_ok) {
    events_avail = std::min<std::uint64_t>(
        event_count, (body.size() - events_off) / kBinaryEventBytes);
    if (body.size() >= samples_off) {
      samples_avail = std::min<std::uint64_t>(
          sample_count, (body.size() - samples_off) / kBinarySampleBytes);
    }
  }
  Trace trace;
  trace.events.reserve(events_avail);
  trace.samples.reserve(samples_avail);
  const bool faults_armed = fault::armed();
  unsigned char scratch[kBinaryPreludeBytes];
  // Returns the record bytes to decode: the mapped body bytes, or a locally
  // damaged copy when the "trace.read" corrupt fault fires for this key.
  const auto record_bytes = [&](const unsigned char* p, std::size_t nbytes,
                                std::uint64_t key) -> const unsigned char* {
    if (!faults_armed ||
        !fault::should_inject("trace.read", fault::Kind::kCorruptField, key)) {
      return p;
    }
    std::memcpy(scratch, p, nbytes);
    const std::uint64_t bit = fault::corrupt_bits("trace.read", key, 0);
    scratch[bit % nbytes] ^= 0x11;
    return scratch;
  };
  const auto quarantine = [&](const Error& e, std::uint64_t key) {
    if (!policy.lenient()) {
      throw Error(source + ": " + e.what(), e.code());
    }
    ++st.records_quarantined;
    metrics.records_quarantined.add(1);
    obs::flight().note("quarantine", source, key);
  };
  // One batched add instead of a per-record atomic increment: with 1M+
  // samples per trace the counter traffic is measurable in the load path.
  metrics.records_seen.add(event_count + sample_count);
  for (std::uint64_t i = 0; i < event_count; ++i) {
    const std::uint64_t key = 2 + i;  // the CSV line this record would be on
    ++st.records_seen;
    if (i >= events_avail) {
      quarantine(Error("event record #" + std::to_string(i) +
                           ": missing from truncated body",
                       ErrorCode::kCorruptArtifact),
                 key);
      continue;
    }
    try {
      trace.events.push_back(parse_binary_event(
          record_bytes(base + events_off + i * kBinaryEventBytes,
                       kBinaryEventBytes, key),
          label_blob, static_cast<std::size_t>(i)));
      ++st.records_ok;
    } catch (const Error& e) {
      quarantine(e, key);
    }
  }
  for (std::uint64_t i = 0; i < sample_count; ++i) {
    const std::uint64_t key = 2 + event_count + i;
    ++st.records_seen;
    if (i >= samples_avail) {
      quarantine(Error("sample record #" + std::to_string(i) +
                           ": missing from truncated body",
                       ErrorCode::kCorruptArtifact),
                 key);
      continue;
    }
    try {
      trace.samples.push_back(parse_binary_sample(
          record_bytes(base + samples_off + i * kBinarySampleBytes,
                       kBinarySampleBytes, key),
          static_cast<std::size_t>(i)));
      ++st.records_ok;
    } catch (const Error& e) {
      quarantine(e, key);
    }
  }
  enforce_quarantine_cap(source, policy, st);
  return trace;
}

/// Dispatches a validated artifact body to the CSV or binary parser by its
/// header version.
Trace parse_trace_body(const util::VersionedArtifact& artifact,
                       const std::string& source,
                       const util::LoadPolicy& policy,
                       util::LoadStats* stats) {
  if (artifact.header.version >= 3) {
    return parse_binary(artifact.body, source, policy, stats);
  }
  return parse_records(artifact.body, source, 2, policy, stats);
}

// --- Sharded sets ---------------------------------------------------------

struct ShardEntry {
  std::string file;  // file name relative to the index's directory
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
  std::size_t events = 0;
  std::size_t samples = 0;
};

struct ShardIndex {
  TraceFormat format = TraceFormat::kCsv;
  std::vector<ShardEntry> entries;
};

/// Parses the line-oriented "#drbw-trace-index" body.  `source` names the
/// index file in every error.
ShardIndex parse_shard_index(const std::string& body,
                             const std::string& source) {
  ShardIndex index;
  std::size_t declared_shards = 0;
  bool saw_format = false;
  bool saw_shards = false;
  std::istringstream is(body);
  std::string line;
  std::size_t line_no = 1;  // the header line
  while (std::getline(is, line)) {
    ++line_no;
    if (trim(line).empty()) continue;
    const auto fields = split_csv(line);
    const std::string& kind = fields[0];
    try {
      if (kind == "format") {
        require_arity(fields, 2);
        index.format = trace_format_from_name(fields[1]);
        saw_format = true;
      } else if (kind == "shards") {
        require_arity(fields, 2);
        declared_shards = static_cast<std::size_t>(to_u64(fields[1]));
        saw_shards = true;
      } else if (kind == "shard") {
        require_arity(fields, 6);
        ShardEntry entry;
        entry.file = fields[1];
        char* end = nullptr;
        entry.crc = static_cast<std::uint32_t>(
            std::strtoul(fields[2].c_str(), &end, 16));
        if (end == nullptr || *end != '\0' || fields[2].size() != 8) {
          throw Error("malformed shard crc32 '" + fields[2] + "'",
                      ErrorCode::kParse);
        }
        entry.bytes = static_cast<std::size_t>(to_u64(fields[3]));
        entry.events = static_cast<std::size_t>(to_u64(fields[4]));
        entry.samples = static_cast<std::size_t>(to_u64(fields[5]));
        if (entry.file.empty() ||
            entry.file.find('/') != std::string::npos ||
            entry.file.find("..") != std::string::npos) {
          throw Error("shard file name '" + entry.file +
                          "' must be a plain sibling file name",
                      ErrorCode::kParse);
        }
        index.entries.push_back(std::move(entry));
      } else {
        throw Error("unknown index record kind '" + kind + "'",
                    ErrorCode::kParse);
      }
    } catch (const Error& e) {
      if (e.code() == ErrorCode::kUsage) {
        // trace_format_from_name flags bad CLI input as kUsage; in an index
        // body it is a parse defect of the artifact, not of the invocation.
        throw Error(source + ":" + std::to_string(line_no) + ": " + e.what(),
                    ErrorCode::kParse);
      }
      throw Error(source + ":" + std::to_string(line_no) + ": " + e.what(),
                  e.code());
    }
  }
  if (!saw_format || !saw_shards) {
    throw Error(source + ": shard index is missing its format/shards lines",
                ErrorCode::kParse);
  }
  if (declared_shards != index.entries.size() || index.entries.empty()) {
    throw Error(source + ": shard index declares " +
                    std::to_string(declared_shards) + " shards but lists " +
                    std::to_string(index.entries.size()),
                ErrorCode::kCorruptArtifact);
  }
  return index;
}

std::string shard_sibling_path(const std::string& index_path,
                               const std::string& file) {
  namespace fs = std::filesystem;
  const fs::path parent = fs::path(index_path).parent_path();
  return parent.empty() ? file : (parent / file).string();
}

/// Loads every shard of a set in parallel and merges in index order.  The
/// merged trace, stats, and every obs count are byte-identical at any
/// `options.jobs` because each shard is a pure function of its index slot
/// and errors are re-raised lowest-shard-first after the join.
Trace load_sharded(const std::string& index_path, const ShardIndex& index,
                   const LoadOptions& options, util::LoadStats& st) {
  TraceMetrics& metrics = TraceMetrics::get();
  const std::size_t n = index.entries.size();
  struct Slot {
    Trace trace;
    util::LoadStats stats;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(n);
  // Shards parse uncapped: the max_bad_fraction cap must apply once, to the
  // merged totals, or a small shard could escalate a load the policy would
  // tolerate as a whole.
  util::LoadPolicy shard_policy = options.policy;
  shard_policy.max_bad_fraction = 1.0;
  util::TaskPool pool(options.jobs);
  pool.parallel_for(n, [&](std::size_t i) {
    Slot& slot = slots[i];
    try {
      obs::Span span("trace.shard.load");
      const ShardEntry& entry = index.entries[i];
      const std::string shard_path = shard_sibling_path(index_path, entry.file);
      fault::maybe_fail("trace.shard.read", i,
                        "injected fault: shard read failure at shard #" +
                            std::to_string(i) + " of '" + index_path + "'");
      std::string content = util::read_file_or_throw(shard_path, "trace shard");
      const util::VersionedArtifact artifact = util::validate_versioned_content(
          shard_path, std::move(content), kArtifactKind, options.max_version,
          shard_policy, &slot.stats);
      if (artifact.legacy) {
        throw Error(shard_path +
                        ": not a DR-BW trace (missing '#drbw-trace' header)",
                    ErrorCode::kParse);
      }
      const std::uint32_t crc = util::crc32(artifact.body);
      const bool matches_index =
          crc == entry.crc && artifact.body.size() == entry.bytes;
      if (!matches_index &&
          (!options.policy.lenient() || slot.stats.checksum_ok)) {
        // Either strict, or the shard is internally consistent yet not the
        // one the index committed (swapped or regenerated out-of-band) —
        // per-record salvage can't repair a set-level inconsistency.
        throw Error(shard_path + ": shard does not match the set index at '" +
                        index_path + "' (crc32 " + hex8(crc) +
                        " != declared " + hex8(entry.crc) +
                        ") — shard set is inconsistent",
                    ErrorCode::kCorruptArtifact);
      }
      if (!slot.stats.checksum_ok) metrics.checksum_failures.add(1);
      slot.trace = parse_trace_body(artifact, shard_path, shard_policy,
                                    &slot.stats);
      metrics.bytes_loaded.add(artifact.body.size());
      metrics.shards_loaded.add(1);
    } catch (...) {
      slot.error = std::current_exception();
    }
  });
  Trace merged;
  std::size_t total_events = 0;
  std::size_t total_samples = 0;
  for (const ShardEntry& entry : index.entries) {
    total_events += entry.events;
    total_samples += entry.samples;
  }
  merged.events.reserve(total_events);
  merged.samples.reserve(total_samples);
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    if (slot.error) {
      if (!options.policy.lenient()) std::rethrow_exception(slot.error);
      // Whole-shard quarantine: account the index's declared record counts,
      // so lenient stats are stable no matter how the shard failed.
      const ShardEntry& entry = index.entries[i];
      const std::size_t declared = entry.events + entry.samples;
      st.records_seen += declared;
      st.records_quarantined += declared;
      st.checksum_ok = false;
      metrics.records_seen.add(declared);
      metrics.records_quarantined.add(declared);
      obs::flight().note("shard-quarantine", index_path, i);
      continue;
    }
    st.records_seen += slot.stats.records_seen;
    st.records_ok += slot.stats.records_ok;
    st.records_quarantined += slot.stats.records_quarantined;
    st.checksum_ok = st.checksum_ok && slot.stats.checksum_ok;
    merged.events.insert(merged.events.end(),
                         std::make_move_iterator(slot.trace.events.begin()),
                         std::make_move_iterator(slot.trace.events.end()));
    merged.samples.insert(merged.samples.end(), slot.trace.samples.begin(),
                          slot.trace.samples.end());
  }
  enforce_quarantine_cap(index_path, options.policy, st);
  return merged;
}

}  // namespace

std::vector<std::string> save_trace(const std::string& path,
                                    const Trace& trace,
                                    const SaveOptions& options) {
  if (options.shards < 1 || options.shards > kMaxTraceShards) {
    throw Error("--shards must be between 1 and " +
                    std::to_string(kMaxTraceShards) + ", got " +
                    std::to_string(options.shards),
                ErrorCode::kUsage);
  }
  const int version = options.format == TraceFormat::kBinary
                          ? kTraceVersion
                          : kTraceCsvVersion;
  if (options.shards == 1) {
    util::write_versioned_artifact(
        path, kArtifactKind, version,
        render_body(options.format, trace.events.data(), trace.events.size(),
                    trace.samples.data(), trace.samples.size()),
        "trace.write");
    return {path};
  }
  const std::size_t shards = options.shards;
  struct ShardMeta {
    std::uint32_t crc = 0;
    std::size_t bytes = 0;
    std::size_t events = 0;
    std::size_t samples = 0;
  };
  std::vector<ShardMeta> metas(shards);
  std::vector<std::string> shard_paths(shards);
  std::vector<std::exception_ptr> errors(shards);
  const auto range = [](std::size_t total, std::size_t parts, std::size_t i) {
    return std::make_pair(total * i / parts, total * (i + 1) / parts);
  };
  util::TaskPool pool(options.jobs);
  pool.parallel_for(shards, [&](std::size_t i) {
    try {
      obs::Span span("trace.shard.save");
      const auto [eb, ee] = range(trace.events.size(), shards, i);
      const auto [sb, se] = range(trace.samples.size(), shards, i);
      fault::maybe_fail("trace.shard.write", i,
                        "injected fault: shard write failure at shard #" +
                            std::to_string(i) + " of '" + path + "'");
      const std::string body = render_body(
          options.format, trace.events.data() + eb, ee - eb,
          trace.samples.data() + sb, se - sb);
      const std::string shard_path = util::shard_file_name(path, i, shards);
      util::write_versioned_artifact(shard_path, kArtifactKind, version, body,
                                     "trace.shard.write");
      metas[i] = ShardMeta{util::crc32(body), body.size(), ee - eb, se - sb};
      shard_paths[i] = shard_path;
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  // Re-raise lowest shard first so the surfaced error is jobs-independent.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  // The index commits the set: it is written last, so a failure anywhere
  // above leaves no index and a loader never sees a partial set.
  std::ostringstream body;
  body << "format," << trace_format_name(options.format) << '\n'
       << "shards," << shards << '\n';
  namespace fs = std::filesystem;
  for (std::size_t i = 0; i < shards; ++i) {
    body << "shard," << fs::path(shard_paths[i]).filename().string() << ','
         << hex8(metas[i].crc) << ',' << metas[i].bytes << ','
         << metas[i].events << ',' << metas[i].samples << '\n';
  }
  util::write_versioned_artifact(path, kIndexKind, kTraceIndexVersion,
                                 body.str(), "trace.write");
  std::vector<std::string> written;
  written.reserve(shards + 1);
  written.push_back(path);
  written.insert(written.end(), shard_paths.begin(), shard_paths.end());
  return written;
}

Trace read_trace(std::istream& is, const util::LoadPolicy& policy,
                 util::LoadStats* stats) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string content = buffer.str();
  const std::size_t eol = content.find('\n');
  const std::string first_line =
      trim(eol == std::string::npos ? content : content.substr(0, eol));
  const auto header = util::parse_artifact_header(first_line);
  if (!header.has_value()) {
    throw Error("not a DR-BW trace (missing '#drbw-trace' header)",
                ErrorCode::kParse);
  }
  if (header->kind != kArtifactKind) {
    throw Error("not a DR-BW trace (artifact kind is '" + header->kind + "')",
                ErrorCode::kParse);
  }
  if (header->version > kTraceCsvVersion) {
    throw Error("trace format v" + std::to_string(header->version) +
                    " is newer than the stream reader's v" +
                    std::to_string(kTraceCsvVersion) +
                    " (offending header token 'v" +
                    std::to_string(header->version) +
                    "'; binary traces load from files via load_trace)",
                ErrorCode::kVersionSkew);
  }
  const std::string body =
      eol == std::string::npos ? std::string() : content.substr(eol + 1);
  return parse_records(body, "<stream>", 2, policy, stats);
}

Trace read_trace(std::istream& is) {
  return read_trace(is, util::LoadPolicy{}, nullptr);
}

Trace load_trace(const std::string& path, const LoadOptions& options,
                 util::LoadStats* stats) {
  util::LoadStats local;
  util::LoadStats& st = stats != nullptr ? *stats : local;
  std::string content = util::read_file_or_throw(path, "trace file");
  const std::size_t eol = content.find('\n');
  const std::string first_line =
      trim(eol == std::string::npos ? content : content.substr(0, eol));
  std::optional<util::ArtifactHeader> header;
  try {
    header = util::parse_artifact_header(first_line);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what(), e.code());
  }
  if (header.has_value() && header->kind == kIndexKind) {
    const util::VersionedArtifact artifact = util::validate_versioned_content(
        path, std::move(content), kIndexKind, kTraceIndexVersion,
        options.policy, &st);
    if (!st.checksum_ok) TraceMetrics::get().checksum_failures.add(1);
    return load_sharded(path, parse_shard_index(artifact.body, path), options,
                        st);
  }
  const util::VersionedArtifact artifact = util::validate_versioned_content(
      path, std::move(content), kArtifactKind, options.max_version,
      options.policy, &st);
  if (artifact.legacy) {
    throw Error(path + ": not a DR-BW trace (missing '#drbw-trace' header)",
                ErrorCode::kParse);
  }
  if (!st.checksum_ok) TraceMetrics::get().checksum_failures.add(1);
  Trace trace = parse_trace_body(artifact, path, options.policy, &st);
  TraceMetrics::get().bytes_loaded.add(artifact.body.size());
  return trace;
}

Trace load_trace(const std::string& path, const util::LoadPolicy& policy,
                 util::LoadStats* stats) {
  LoadOptions options;
  options.policy = policy;
  return load_trace(path, options, stats);
}

Trace load_trace(const std::string& path) {
  return load_trace(path, util::LoadPolicy{}, nullptr);
}

std::vector<std::string> trace_artifact_paths(const std::string& path) {
  try {
    const std::string content = util::read_file_or_throw(path, "trace file");
    const std::size_t eol = content.find('\n');
    const std::string first_line =
        trim(eol == std::string::npos ? content : content.substr(0, eol));
    const auto header = util::parse_artifact_header(first_line);
    if (!header.has_value() || header->kind != kIndexKind) return {path};
    const std::string body =
        eol == std::string::npos ? std::string() : content.substr(eol + 1);
    const ShardIndex index = parse_shard_index(body, path);
    std::vector<std::string> paths;
    paths.reserve(index.entries.size() + 1);
    paths.push_back(path);
    for (const ShardEntry& entry : index.entries) {
      paths.push_back(shard_sibling_path(path, entry.file));
    }
    return paths;
  } catch (const Error&) {
    // Damaged or missing artifacts still get listed (and content-hashed as
    // absent) under the primary path; the loader reports the real error.
    return {path};
  }
}

}  // namespace drbw::pebs
