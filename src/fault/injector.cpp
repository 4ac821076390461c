#include "drbw/fault/injector.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace drbw::fault {

namespace {

/// SplitMix64 finalizer (same mixer as util/rng.hpp, duplicated here so the
/// fault layer stays below util in the link order).
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a over the site name: decisions depend on the *name*, not on any
/// registration order.
std::uint64_t hash_site(std::string_view site) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The deterministic draw: a pure function of (seed, site, kind, key).
std::uint64_t draw(std::uint64_t seed, std::string_view site, Kind kind,
                   std::uint64_t key) {
  std::uint64_t h = hash_site(site);
  h = mix64(h ^ (seed + 0x9e3779b97f4a7c15ULL));
  h = mix64(h ^ (static_cast<std::uint64_t>(kind) + 1));
  return mix64(h ^ key);
}

bool fires(double rate, std::uint64_t drawn) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  // Compare in double space: 53 bits of the draw against the rate.  Exact
  // and branch-cheap; the sites are not hot enough to warrant fixed-point.
  return static_cast<double>(drawn >> 11) * 0x1.0p-53 < rate;
}

}  // namespace

const char* kind_token(Kind kind) {
  switch (kind) {
    case Kind::kDropSample: return "drop";
    case Kind::kCorruptField: return "corrupt";
    case Kind::kTruncateFile: return "truncate";
    case Kind::kMalformJson: return "malform";
    case Kind::kShortWrite: return "short-write";
    case Kind::kFail: return "fail";
  }
  return "?";
}

Kind kind_from_token(const std::string& token) {
  for (const Kind k : {Kind::kDropSample, Kind::kCorruptField,
                       Kind::kTruncateFile, Kind::kMalformJson,
                       Kind::kShortWrite, Kind::kFail}) {
    if (token == kind_token(k)) return k;
  }
  throw Error("unknown fault kind '" + token +
                  "' (expected drop, corrupt, truncate, malform, "
                  "short-write, or fail)",
              ErrorCode::kParse);
}

namespace {

[[noreturn]] void spec_error(const std::string& clause, const std::string& why) {
  throw Error("bad --inject-faults clause '" + clause + "': " + why +
                  " (grammar: seed=N or site:kind:rate, comma-separated)",
              ErrorCode::kParse);
}

std::vector<std::string> split_clauses(const std::string& spec) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : spec) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

}  // namespace

Plan Plan::parse(const std::string& spec) {
  Plan plan;
  for (const std::string& raw : split_clauses(spec)) {
    const std::string clause = strip(raw);
    if (clause.empty()) continue;
    if (clause.rfind("seed=", 0) == 0) {
      const std::string value = clause.substr(5);
      char* end = nullptr;
      const unsigned long long seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0') {
        spec_error(clause, "seed must be an unsigned integer");
      }
      plan.seed = seed;
      continue;
    }
    const std::size_t first = clause.find(':');
    const std::size_t second =
        first == std::string::npos ? std::string::npos
                                   : clause.find(':', first + 1);
    if (first == std::string::npos || second == std::string::npos) {
      spec_error(clause, "expected site:kind:rate");
    }
    SiteSpec site;
    site.site = strip(clause.substr(0, first));
    if (site.site.empty()) spec_error(clause, "empty site name");
    site.kind = kind_from_token(strip(clause.substr(first + 1, second - first - 1)));
    const std::string rate_text = strip(clause.substr(second + 1));
    char* end = nullptr;
    site.rate = std::strtod(rate_text.c_str(), &end);
    if (rate_text.empty() || end == nullptr || *end != '\0') {
      spec_error(clause, "rate '" + rate_text + "' is not a number");
    }
    if (site.rate < 0.0 || site.rate > 1.0) {
      spec_error(clause, "rate must be in [0, 1]");
    }
    plan.sites.push_back(std::move(site));
  }
  return plan;
}

std::string Plan::to_string() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const SiteSpec& s : sites) {
    char rate[32];
    std::snprintf(rate, sizeof rate, "%g", s.rate);
    out += "," + s.site + ":" + kind_token(s.kind) + ":" + rate;
  }
  return out;
}

void Injector::arm(Plan plan) {
  plan_ = std::move(plan);
  armed_ = true;
  if (this == &global()) detail::global_armed = true;
  reset_counts();
}

void Injector::disarm() {
  armed_ = false;
  if (this == &global()) detail::global_armed = false;
  plan_ = Plan{};
  reset_counts();
}

bool Injector::should_inject(std::string_view site, Kind kind,
                             std::uint64_t key) {
  if (!armed_) return false;
  for (const SiteSpec& s : plan_.sites) {
    if (s.kind != kind || s.site != site) continue;
    if (!fires(s.rate, draw(plan_.seed, site, kind, key))) return false;
    const std::string tally = std::string(site) + ":" + kind_token(kind);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = std::lower_bound(
          counts_.begin(), counts_.end(), tally,
          [](const auto& row, const std::string& k) { return row.first < k; });
      if (it != counts_.end() && it->first == tally) {
        ++it->second;
      } else {
        counts_.insert(it, {tally, 1});
      }
    }
    if (const FireHook hook = fire_hook_.load(std::memory_order_relaxed)) {
      hook(site, kind_token(kind), key);
    }
    return true;
  }
  return false;
}

std::uint64_t Injector::corrupt_bits(std::string_view site, std::uint64_t key,
                                     std::uint64_t value) const {
  const std::uint64_t h = draw(plan_.seed, site, Kind::kCorruptField, ~key);
  return value ^ (1ULL << (h % 64));
}

std::vector<std::pair<std::string, std::uint64_t>> Injector::fire_counts()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

void Injector::reset_counts() {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_.clear();
}

Injector& Injector::global() {
  static Injector injector;
  return injector;
}

}  // namespace drbw::fault
