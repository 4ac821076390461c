// DR-BW's profiler (§IV): sample ingestion, channel association, and
// data-object attribution.
//
// The profiler receives the raw PEBS sample stream plus the intercepted
// allocation events, and produces per-channel batches of attributed samples:
//
//   * the *accessing node* comes from the sample's CPU id and the machine
//     topology (§IV-B),
//   * the *locating node* comes from a libnuma-style page lookup on the
//     sampled effective address (PageLocator), and
//   * the touched *data object* comes from the heap tracker's range table
//     (§IV-C).
//
// Detection downstream is per directed channel: "we use only samples
// observed between nodes 0 and 1 to diagnose performance problems on the
// bus connecting nodes 0 and 1".
#pragma once

#include <cstdint>
#include <vector>

#include "drbw/core/heap_tracker.hpp"
#include "drbw/pebs/sample.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/topology/machine.hpp"

namespace drbw::core {

/// Page-location oracle: the tool's view of libnuma's move_pages query.
/// `accessing_node` matters only for replicated ranges (where the kernel
/// would report the local replica).
class PageLocator {
 public:
  virtual ~PageLocator() = default;
  virtual topology::NodeId locate(mem::Addr addr,
                                  topology::NodeId accessing_node) = 0;
};

/// Adapter over the simulated address space.
class AddressSpaceLocator final : public PageLocator {
 public:
  explicit AddressSpaceLocator(mem::AddressSpace& space) : space_(space) {}
  topology::NodeId locate(mem::Addr addr,
                          topology::NodeId accessing_node) override {
    return space_.resolve_home(addr, accessing_node);
  }

 private:
  mem::AddressSpace& space_;
};

/// Locator for replayed traces, whose address space is gone: every address
/// is homed on node 0, the master-allocation default the tool targets.
/// Sound for verdicts: whether a sample is remote comes from its recorded
/// level; only the channel's home-node attribution uses this.  Stateless,
/// so concurrent locate() calls are safe.
class MasterNodeLocator final : public PageLocator {
 public:
  topology::NodeId locate(mem::Addr, topology::NodeId) override { return 0; }
};

/// A sample annotated with everything the classifier and diagnoser need.
struct AttributedSample {
  pebs::MemorySample sample;
  topology::NodeId src_node = 0;   // node of the CPU that issued the access
  topology::NodeId home_node = 0;  // node where the data resides
  std::uint32_t object = kUnknownObject;  // heap object index, if tracked

  bool is_remote() const { return src_node != home_node; }
};

/// All samples whose (src, home) pair maps to one directed channel.
struct ChannelProfile {
  topology::ChannelId channel;
  std::vector<AttributedSample> samples;
};

struct ProfileResult {
  /// One entry per machine channel index (possibly with zero samples).
  std::vector<ChannelProfile> channels;
  HeapTracker tracker;
  std::uint64_t total_samples = 0;
  /// Samples attributed to tracked heap objects (vs static/stack).
  std::uint64_t attributed_samples = 0;
};

class Profiler {
 public:
  Profiler(const topology::Machine& machine, PageLocator& locator);

  /// Ingests a run's allocation events and samples.
  ProfileResult profile(const sim::RunResult& run) const;

  /// Lower-level entry point for callers with a raw stream (tests,
  /// replayed traces).
  ProfileResult profile(const std::vector<mem::AllocationEvent>& events,
                        const std::vector<pebs::MemorySample>& samples) const;

  /// Attributes one sample against `tracker`'s ranges: its accessing node,
  /// its home node, and its data object.  profile() attributes every sample
  /// through it; callers that receive samples one batch at a time (the
  /// serve loop) attribute each as it arrives, against one tracker.
  AttributedSample attribute(const HeapTracker& tracker,
                             const pebs::MemorySample& sample) const;

  /// Adds one profiled scope of `total` samples, `attributed` of them to
  /// tracked objects, to the profiler counters.  profile() counts its
  /// scope through it; a scope assembled from samples attributed one at a
  /// time is counted the same way when it is featurized.
  static void count_scope(std::uint64_t total, std::uint64_t attributed);

 private:
  const topology::Machine& machine_;
  PageLocator& locator_;
};

}  // namespace drbw::core
