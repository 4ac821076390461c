#include "drbw/obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "internal.hpp"

namespace drbw::obs {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name.front())) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

}  // namespace

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1)) {
  DRBW_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
                 "histogram bucket bounds must be strictly ascending");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(std::uint64_t v) {
  if (!kEnabled) return;
  // First bound >= v: Prometheus `le` semantics — v lands in the bucket whose
  // upper edge it is <= to; past the last bound it lands in +Inf.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

void Histogram::observe_n(std::uint64_t v, std::uint64_t n) {
  if (!kEnabled || n == 0) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(v * n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
}

void HistogramTally::flush() {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (kEnabled) {
      target_.counts_[i].fetch_add(counts_[i], std::memory_order_relaxed);
    }
    count += counts_[i];
    counts_[i] = 0;
  }
  if (kEnabled && count > 0) {
    target_.sum_.fetch_add(sum_, std::memory_order_relaxed);
    target_.count_.fetch_add(count, std::memory_order_relaxed);
  }
  sum_ = 0;
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  DRBW_CHECK(i <= bounds_.size());
  return counts_[i].load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

Registry::Entry& Registry::find_or_insert(const std::string& name, Kind kind,
                                          const std::string& help,
                                          Visibility visibility) {
  DRBW_CHECK_MSG(valid_metric_name(name), "invalid metric name: " << name);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw Error("metric '" + name + "' re-registered with a different kind");
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.visibility = visibility;
  entry.help = help;
  return entries_.emplace(name, std::move(entry)).first->second;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Visibility visibility) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_insert(name, Kind::kCounter, help, visibility);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       Visibility visibility) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_insert(name, Kind::kGauge, help, visibility);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<std::uint64_t> bounds,
                               Visibility visibility) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = find_or_insert(name, Kind::kHistogram, help, visibility);
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else if (entry.histogram->bounds() != bounds) {
    throw Error("histogram '" + name + "' re-registered with different bounds");
  }
  return *entry.histogram;
}

std::string Registry::prometheus_text(bool include_diagnostic) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, entry] : entries_) {
    if (entry.visibility == Visibility::kDiagnostic && !include_diagnostic) continue;
    os << "# HELP " << name << ' ' << internal::prometheus_escape(entry.help) << '\n';
    switch (entry.kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << ' ' << entry.counter->value() << '\n';
        break;
      case Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << ' ' << internal::format_double(entry.gauge->value()) << '\n';
        break;
      case Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        const Histogram& h = *entry.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.bucket_count(i);
          os << name << "_bucket{le=\"" << h.bounds()[i] << "\"} " << cumulative << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
        os << name << "_sum " << h.sum() << '\n';
        os << name << "_count " << h.count() << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string Registry::json_text(bool include_diagnostic) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n";
  const char* kind_keys[] = {"counters", "gauges", "histograms"};
  const Kind kinds[] = {Kind::kCounter, Kind::kGauge, Kind::kHistogram};
  for (std::size_t k = 0; k < 3; ++k) {
    os << "  \"" << kind_keys[k] << "\": {";
    bool first = true;
    for (const auto& [name, entry] : entries_) {
      if (entry.kind != kinds[k]) continue;
      if (entry.visibility == Visibility::kDiagnostic && !include_diagnostic) continue;
      os << (first ? "\n" : ",\n");
      first = false;
      os << "    \"" << internal::json_escape(name) << "\": {\"help\": \""
         << internal::json_escape(entry.help) << "\", ";
      switch (entry.kind) {
        case Kind::kCounter:
          os << "\"value\": " << entry.counter->value() << '}';
          break;
        case Kind::kGauge:
          os << "\"value\": " << internal::format_double(entry.gauge->value()) << '}';
          break;
        case Kind::kHistogram: {
          const Histogram& h = *entry.histogram;
          os << "\"buckets\": [";
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            if (i != 0) os << ", ";
            os << '[' << h.bounds()[i] << ", " << h.bucket_count(i) << ']';
          }
          os << "], \"inf\": " << h.bucket_count(h.bounds().size())
             << ", \"sum\": " << h.sum() << ", \"count\": " << h.count() << '}';
          break;
        }
      }
    }
    os << (first ? "" : "\n  ") << '}' << (k + 1 < 3 ? ",\n" : "\n");
  }
  os << "}\n";
  return os.str();
}

std::vector<Registry::Row> Registry::rows(bool include_diagnostic) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Row> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    if (entry.visibility == Visibility::kDiagnostic && !include_diagnostic) continue;
    Row row;
    row.name = name;
    row.help = entry.help;
    switch (entry.kind) {
      case Kind::kCounter:
        row.kind = "counter";
        row.value = std::to_string(entry.counter->value());
        break;
      case Kind::kGauge:
        row.kind = "gauge";
        row.value = internal::format_double(entry.gauge->value());
        break;
      case Kind::kHistogram: {
        row.kind = "histogram";
        const Histogram& h = *entry.histogram;
        std::ostringstream v;
        v << "count=" << h.count() << " sum=" << h.sum();
        row.value = v.str();
        break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    if (entry.counter) entry.counter->reset();
    if (entry.gauge) entry.gauge->reset();
    if (entry.histogram) entry.histogram->reset();
  }
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace drbw::obs
