#include "drbw/serve/queue.hpp"

#include <algorithm>

#include "drbw/util/error.hpp"

namespace drbw::serve {

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
    case OverloadPolicy::kReject:
      return "reject";
  }
  return "?";
}

OverloadPolicy overload_policy_from_name(const std::string& name) {
  for (const OverloadPolicy policy :
       {OverloadPolicy::kBlock, OverloadPolicy::kShedOldest,
        OverloadPolicy::kReject}) {
    if (name == overload_policy_name(policy)) return policy;
  }
  throw Error("unknown overload policy '" + name +
                  "' (use block, shed-oldest, or reject)",
              ErrorCode::kUsage);
}

const char* admit_result_name(AdmitResult result) {
  switch (result) {
    case AdmitResult::kAdmitted:
      return "admitted";
    case AdmitResult::kShed:
      return "shed";
    case AdmitResult::kRejected:
      return "rejected";
    case AdmitResult::kDeferred:
      return "deferred";
  }
  return "?";
}

BoundedQueue::BoundedQueue(std::size_t depth, OverloadPolicy policy)
    : depth_(std::max<std::size_t>(1, depth)), policy_(policy) {}

AdmitResult BoundedQueue::push(const pebs::SessionSample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.size() < depth_) {
    queue_.push_back(sample);
    peak_ = std::max(peak_, queue_.size());
    ++admitted_;
    return AdmitResult::kAdmitted;
  }
  switch (policy_) {
    case OverloadPolicy::kBlock:
      ++deferred_;
      return AdmitResult::kDeferred;
    case OverloadPolicy::kShedOldest:
      queue_.pop_front();
      queue_.push_back(sample);
      ++admitted_;
      ++shed_;
      return AdmitResult::kShed;
    case OverloadPolicy::kReject:
      ++rejected_;
      return AdmitResult::kRejected;
  }
  ++rejected_;
  return AdmitResult::kRejected;
}

void BoundedQueue::note_deferred(std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  deferred_ += count;
}

std::vector<pebs::SessionSample> BoundedQueue::drain(std::size_t max) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = std::min(max, queue_.size());
  std::vector<pebs::SessionSample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(queue_.front());
    queue_.pop_front();
  }
  return out;
}

std::size_t BoundedQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t BoundedQueue::peak() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_;
}

std::uint64_t BoundedQueue::admitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admitted_;
}

std::uint64_t BoundedQueue::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

std::uint64_t BoundedQueue::rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

std::uint64_t BoundedQueue::deferred() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deferred_;
}

}  // namespace drbw::serve
