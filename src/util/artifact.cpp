#include "drbw/util/artifact.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "drbw/fault/injector.hpp"
#include "drbw/obs/sink.hpp"
#include "drbw/util/strings.hpp"

namespace drbw::util {

// The writer primitives live below obs (src/obs/sink.cpp) so the trace,
// metrics, flight-recorder, and manifest sinks share the same never-partial
// guarantee; these thin forwards keep the historical util spelling.
std::uint32_t crc32(std::string_view data) { return obs::crc32(data); }

LoadPolicy load_policy_from_name(const std::string& name,
                                 double max_bad_fraction) {
  LoadPolicy policy;
  policy.max_bad_fraction = max_bad_fraction;
  if (name == "strict") {
    policy.mode = LoadMode::kStrict;
  } else if (name == "lenient") {
    policy.mode = LoadMode::kLenient;
  } else {
    throw Error("load mode must be strict or lenient, got '" + name + "'",
                ErrorCode::kUsage);
  }
  return policy;
}

std::string format_artifact_header(const std::string& kind, int version,
                                   std::string_view body) {
  return obs::format_artifact_header(kind, version, body);
}

std::optional<ArtifactHeader> parse_artifact_header(std::string_view line) {
  constexpr std::string_view kPrefix = "#drbw-";
  if (line.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  const std::string text(line);
  ArtifactHeader header;
  // Tokens: "#drbw-<kind>" "v<version>" ["crc32=<hex>" "bytes=<n>"].
  const std::vector<std::string> tokens = split(trim(text), ' ');
  header.kind = tokens[0].substr(kPrefix.size());
  if (header.kind.empty() || tokens.size() < 2 || tokens[1].size() < 2 ||
      tokens[1][0] != 'v') {
    throw Error("malformed artifact header '" + text + "'", ErrorCode::kParse);
  }
  char* end = nullptr;
  header.version =
      static_cast<int>(std::strtol(tokens[1].c_str() + 1, &end, 10));
  if (end == nullptr || *end != '\0' || header.version <= 0) {
    throw Error("malformed artifact version in header '" + text + "'",
                ErrorCode::kParse);
  }
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("crc32=", 0) == 0) {
      header.crc = static_cast<std::uint32_t>(
          std::strtoul(token.c_str() + 6, &end, 16));
      if (end == nullptr || *end != '\0' || token.size() != 6 + 8) {
        throw Error("malformed crc32 field in header '" + text + "'",
                    ErrorCode::kParse);
      }
      header.has_checksum = true;
    } else if (token.rfind("bytes=", 0) == 0) {
      header.bytes = static_cast<std::size_t>(
          std::strtoull(token.c_str() + 6, &end, 10));
      if (end == nullptr || *end != '\0') {
        throw Error("malformed bytes field in header '" + text + "'",
                    ErrorCode::kParse);
      }
    } else if (!token.empty()) {
      throw Error("unknown field '" + token + "' in artifact header '" + text +
                      "'",
                  ErrorCode::kParse);
    }
  }
  return header;
}

std::string sibling_hint(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  const fs::path dir = p.has_parent_path() ? p.parent_path() : fs::path(".");
  const std::string ext = p.extension().string();
  std::vector<std::string> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    if (!ext.empty() && entry.path().extension().string() != ext) continue;
    candidates.push_back(entry.path().filename().string());
  }
  if (candidates.empty()) return "";
  std::sort(candidates.begin(), candidates.end());
  if (candidates.size() > 5) candidates.resize(5);
  std::string hint = "; did you mean ";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0) hint += ", ";
    hint += "'" + (dir / candidates[i]).string() + "'";
  }
  return hint + "?";
}

void require_input_file(const std::string& path, const std::string& what) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::exists(path, ec) && !fs::is_directory(path, ec)) return;
  throw Error(what + " '" + path + "' does not exist" + sibling_hint(path),
              ErrorCode::kNotFound);
}

std::string read_file_or_throw(const std::string& path,
                               const std::string& what) {
  require_input_file(path, what);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open " + what + " '" + path +
                    "': " + std::strerror(errno),
                ErrorCode::kIo);
  }
  // Size the buffer up front and read once: streaming through an
  // ostringstream costs more than the checksum pass for multi-megabyte
  // binary trace bodies.
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(0, std::ios::beg);
  if (end < 0) {
    throw Error("I/O error reading " + what + " '" + path + "'",
                ErrorCode::kIo);
  }
  std::string buffer(static_cast<std::size_t>(end), '\0');
  in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (in.bad() || in.gcount() != static_cast<std::streamsize>(buffer.size())) {
    throw Error("I/O error reading " + what + " '" + path + "'",
                ErrorCode::kIo);
  }
  return buffer;
}

void atomic_write_file(const std::string& path, std::string_view content) {
  obs::atomic_write_file(path, content);
}

void write_versioned_artifact(const std::string& path, const std::string& kind,
                              int version, std::string_view body,
                              const std::string& fault_site) {
  // Checksum the pristine body first: injected damage below must be
  // detectable on load exactly like real damage.
  const std::string header = format_artifact_header(kind, version, body);
  std::string damaged;
  // The body's crc32 only keys the fault draws, so it is computed only
  // while a plan is armed.
  if (!fault_site.empty() && fault::armed()) {
    const std::uint64_t key = crc32(body);
    if (fault::should_inject(fault_site, fault::Kind::kTruncateFile, key)) {
      damaged.assign(body.substr(0, body.size() / 2));
      body = damaged;
    } else if (fault::should_inject(fault_site, fault::Kind::kMalformJson,
                                    key)) {
      // Cut mid-token near the end: enough to break JSON without emptying
      // the file.
      damaged.assign(body.substr(0, body.size() - std::min<std::size_t>(
                                                      body.size(), 7)));
      body = damaged;
    } else if (fault::should_inject(fault_site, fault::Kind::kCorruptField,
                                    key)) {
      damaged.assign(body);
      if (!damaged.empty()) {
        const std::size_t at = key % damaged.size();
        damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
      }
      body = damaged;
    }
  }
  std::string content;
  content.reserve(header.size() + 1 + body.size());
  content += header;
  content += '\n';
  content += body;
  atomic_write_file(path, content);
}

std::string shard_file_name(const std::string& path, std::size_t index,
                            std::size_t count) {
  char suffix[40];
  std::snprintf(suffix, sizeof suffix, ".shard-%03zu-of-%03zu", index, count);
  return path + suffix;
}

VersionedArtifact validate_versioned_content(const std::string& source,
                                             std::string&& content,
                                             const std::string& kind,
                                             int max_version,
                                             const LoadPolicy& policy,
                                             LoadStats* stats) {
  VersionedArtifact result;
  const std::size_t eol = content.find('\n');
  const std::string first_line =
      trim(eol == std::string::npos ? content : content.substr(0, eol));
  std::optional<ArtifactHeader> header;
  try {
    header = parse_artifact_header(first_line);
  } catch (const Error& e) {
    throw Error(source + ": " + e.what(), e.code());
  }
  if (!header.has_value()) {
    result.legacy = true;
    result.body = std::move(content);
    return result;
  }
  if (header->kind != kind) {
    throw Error(source + ": artifact kind is '" + header->kind +
                    "', expected '" + kind + "'",
                ErrorCode::kParse);
  }
  if (header->version > max_version) {
    throw Error(source + ": " + kind + " format v" +
                    std::to_string(header->version) +
                    " is newer than the supported v" +
                    std::to_string(max_version) +
                    " (offending header token 'v" +
                    std::to_string(header->version) +
                    "'; version skew — regenerate the artifact with this "
                    "build, or convert it to a supported version)",
                ErrorCode::kVersionSkew);
  }
  result.header = *header;
  if (eol == std::string::npos) {
    result.body.clear();
  } else {
    // Strip the header line in place instead of copying the body out:
    // erase is one memmove, substr would be a second body-sized allocation.
    content.erase(0, eol + 1);
    result.body = std::move(content);
  }
  if (header->has_checksum) {
    const std::uint32_t actual = crc32(result.body);
    const bool size_ok = result.body.size() == header->bytes;
    if (actual != header->crc || !size_ok) {
      if (!policy.lenient()) {
        std::ostringstream os;
        os << source << ": " << kind << " body fails validation (";
        if (!size_ok) {
          os << "length " << result.body.size() << " != declared "
             << header->bytes;
        } else {
          char want[16];
          char got[16];
          std::snprintf(want, sizeof want, "%08x", header->crc);
          std::snprintf(got, sizeof got, "%08x", actual);
          os << "crc32 " << got << " != declared " << want;
        }
        os << ") — artifact is truncated or corrupt";
        throw Error(os.str(), ErrorCode::kCorruptArtifact);
      }
      if (stats != nullptr) stats->checksum_ok = false;
    }
  }
  return result;
}

VersionedArtifact read_versioned_artifact(const std::string& path,
                                          const std::string& kind,
                                          int max_version,
                                          const LoadPolicy& policy,
                                          LoadStats* stats) {
  std::string content = read_file_or_throw(path, kind + " file");
  return validate_versioned_content(path, std::move(content), kind,
                                    max_version, policy, stats);
}

}  // namespace drbw::util
