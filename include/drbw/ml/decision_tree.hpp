// CART decision tree (Gini impurity) — the classifier of §V-D.
//
// The paper trains a binary decision tree in MATLAB's Statistics & ML
// toolbox; the resulting model (Fig. 3) uses two of the thirteen selected
// features: the number of remote-DRAM samples and the average remote-DRAM
// latency.  We implement CART from scratch: exhaustive threshold search
// over sorted feature values, Gini impurity gain, depth/leaf-size/gain
// stopping rules, and optional cost-complexity-style collapse of pure
// subtrees.  Trees operate on *normalized* inputs (Fig. 3's thresholds are
// over normalized values); the Classifier wrapper below bundles the
// normalizer with the tree and persists both as one JSON document.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "drbw/ml/dataset.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/json.hpp"

namespace drbw::ml {

/// One internal-node hop of a decision path (predict_explained).
struct PathStep {
  int node = 0;       ///< node index in DecisionTree::nodes()
  int feature = -1;   ///< split feature consulted at this node
  double threshold = 0.0;
  bool went_right = false;  ///< value > threshold (Fig. 3 "yes" branch)
};

/// predict() plus the observability payload: the exact root-to-leaf path,
/// a deterministic confidence score, and per-feature attribution.
struct Explanation {
  Label label = Label::kGood;
  /// Leaf purity: fraction of the predicted leaf's training samples that
  /// carry the predicted label.  Pure function of the model artifact, so
  /// identical at any --jobs; in [0.5, 1] for a majority-vote leaf.
  double confidence = 0.0;
  int leaf = 0;  ///< node index of the leaf reached
  std::vector<PathStep> path;
  /// Saabas-style attribution: for each input feature, the summed change
  /// in P(rmc | node) across the path edges that split on that feature.
  /// P(rmc | leaf) = P(rmc | root) + sum(attributions).
  std::vector<double> attributions;

  /// Stable signature of the path ("root" for a lone leaf, else e.g.
  /// "5R 6L": feature index + branch per hop) — explain reports aggregate
  /// decision-path frequency by this key.
  std::string path_signature() const;
};

/// Per-feature fixed-bucket histograms of the *normalized* training
/// distribution, embedded in the model artifact (format v3) so a serving
/// process can measure distribution drift without the training set.
/// Serving accumulates the same histograms over the rows it classifies and
/// compares with a PSI-style divergence — deterministic by construction
/// (integer counts, fixed iteration order).
struct DriftBaseline {
  static constexpr std::size_t kBuckets = 8;

  /// counts[feature][bucket]; values clamp to [0, 1] before bucketing, so
  /// out-of-training-range serving values pile into the edge buckets —
  /// exactly the drift signal.
  std::vector<std::vector<std::uint64_t>> counts;
  std::uint64_t total = 0;

  bool empty() const { return counts.empty() || total == 0; }

  static std::size_t bucket_of(double normalized_value);
  void resize(std::size_t num_features);
  void observe(const std::vector<double>& normalized_row);
  /// Elementwise sum — commutative, so parallel accumulators folded in a
  /// fixed order give the same histogram as serial observation.
  void merge(const DriftBaseline& other);

  /// PSI-style divergence of `serving` from this baseline, one score per
  /// feature.  Proportions are epsilon-floored so empty buckets stay
  /// finite; ~0 for in-distribution traffic, grows without bound as mass
  /// moves to buckets the training set never populated.
  std::vector<double> divergence(const DriftBaseline& serving) const;

  Json to_json() const;
  /// Parses an embedded baseline.  A structurally invalid baseline — or a
  /// fired "model.drift" corrupt-field fault (content-keyed by feature
  /// index) — yields an empty baseline: the model still loads, drift is
  /// just disabled, and the caller reports it unavailable.
  static DriftBaseline from_json(const Json& json, std::size_t num_features);
};

struct TreeParams {
  int max_depth = 8;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  double min_gini_gain = 1e-4;
};

class DecisionTree {
 public:
  struct Node {
    /// Split feature index; -1 for leaves.
    int feature = -1;
    /// Branch right when value > threshold, else left (Fig. 3 convention:
    /// "branching is to the right if the normalized value ... is above a
    /// threshold").
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    /// Leaf payload.
    Label label = Label::kGood;
    /// Training-set statistics for introspection.
    std::size_t count = 0;
    std::size_t rmc_count = 0;

    bool is_leaf() const { return feature < 0; }
  };

  /// Trains on already-normalized rows.
  static DecisionTree train(const Dataset& normalized, TreeParams params = {});

  Label predict(const std::vector<double>& normalized_row) const;

  /// predict() with the decision path, leaf-purity confidence, and
  /// per-feature attribution (see Explanation).  `num_features` sizes the
  /// attribution vector; pass the dataset arity.
  Explanation predict_explained(const std::vector<double>& normalized_row,
                                std::size_t num_features) const;

  const std::vector<Node>& nodes() const { return nodes_; }
  int depth() const;
  std::size_t leaf_count() const;
  /// Distinct features used by internal nodes, ascending.
  std::vector<int> used_features() const;
  /// (feature index, split-node count) per used feature, ascending by
  /// feature — `drbw train`'s tree-shape provenance.
  std::vector<std::pair<int, std::size_t>> split_counts() const;

  /// Fig. 3-style rendering: internal nodes labelled with features, leaves
  /// with classifications.
  std::string to_string(const std::vector<std::string>& feature_names) const;

  Json to_json() const;
  static DecisionTree from_json(const Json& json);

 private:
  int build(const Dataset& data, const std::vector<std::size_t>& indices,
            const TreeParams& params, int depth);
  int add_leaf(const Dataset& data, const std::vector<std::size_t>& indices);

  std::vector<Node> nodes_;
};

/// The deployable model: normalizer + tree + feature names.
class Classifier {
 public:
  Classifier() = default;
  Classifier(Normalizer normalizer, DecisionTree tree,
             std::vector<std::string> feature_names);

  /// Fits the normalizer on `data`, then trains the tree on the
  /// normalized rows.
  static Classifier train(const Dataset& data, TreeParams params = {});

  Label predict(const std::vector<double>& raw_row) const;

  /// Normalizes, then explains (see DecisionTree::predict_explained).
  /// Attribution indices match feature_names().
  Explanation predict_explained(const std::vector<double>& raw_row) const;

  const DecisionTree& tree() const { return tree_; }
  const Normalizer& normalizer() const { return normalizer_; }
  const std::vector<std::string>& feature_names() const { return feature_names_; }

  /// Training-distribution histograms for serving-time drift detection.
  /// Empty (has_drift_baseline() == false) for models saved before format
  /// v3 — callers must degrade to drift-disabled, never fail.
  const DriftBaseline& drift_baseline() const { return drift_baseline_; }
  bool has_drift_baseline() const { return !drift_baseline_.empty(); }
  /// Buckets a raw serving row the same way training rows were bucketed.
  void observe_drift(const std::vector<double>& raw_row,
                     DriftBaseline& serving) const;

  std::string describe() const;

  Json to_json() const;
  static Classifier from_json(const Json& json);

  /// Persists the model as a versioned, checksummed artifact through the
  /// atomic writer (threads the "model.write" fault site), so a crashed
  /// save never leaves a partial model at `path`.
  void save(const std::string& path) const;

  /// Loads a model artifact.  Errors are typed and name the path:
  /// missing file → kNotFound (with a "did you mean" sibling hint),
  /// unparseable JSON → kParse (line:column diagnostics), checksum damage
  /// → kCorruptArtifact (strict) or tolerated with stats->checksum_ok =
  /// false (lenient), newer format → kVersionSkew.  Legacy raw-JSON model
  /// files (no artifact header) are still accepted.
  static Classifier load(const std::string& path);
  static Classifier load(const std::string& path,
                         const util::LoadPolicy& policy,
                         util::LoadStats* stats = nullptr);

 private:
  Normalizer normalizer_;
  DecisionTree tree_;
  std::vector<std::string> feature_names_;
  DriftBaseline drift_baseline_;
};

}  // namespace drbw::ml
