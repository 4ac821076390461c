// Evaluation metrics: confusion matrices and stratified k-fold
// cross-validation (§V-D validates with stratified 10-fold CV; §VII-B
// reports correctness, false-positive and false-negative rates).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drbw/ml/decision_tree.hpp"

namespace drbw::ml {

/// Binary confusion matrix with the paper's rate definitions:
///   correctness = (TP + TN) / all
///   false positive rate = FP / (FP + TN)   (good mislabelled rmc)
///   false negative rate = FN / (FN + TP)   (rmc missed)
struct ConfusionMatrix {
  std::uint64_t true_rmc = 0;    // actual rmc, predicted rmc  (TP)
  std::uint64_t false_rmc = 0;   // actual good, predicted rmc (FP)
  std::uint64_t true_good = 0;   // actual good, predicted good (TN)
  std::uint64_t false_good = 0;  // actual rmc, predicted good (FN)

  void record(Label actual, Label predicted);
  void merge(const ConfusionMatrix& other);

  std::uint64_t total() const {
    return true_rmc + false_rmc + true_good + false_good;
  }
  double correctness() const;
  double false_positive_rate() const;
  double false_negative_rate() const;

  /// Renders the paper's Table III/VI layout.
  std::string to_string() const;
};

/// Applies a trained classifier to a (raw, unnormalized) dataset.
ConfusionMatrix evaluate(const Classifier& model, const Dataset& data);

struct CrossValidationResult {
  ConfusionMatrix confusion;  // pooled over all folds
  double accuracy = 0.0;
  int folds = 0;
};

/// One fold of a k-fold split: its held-out rows and the rows of every
/// other fold, in fold order.
struct FoldSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Stratified k-fold split: shuffles each class with `seed`, then deals the
/// rows round-robin into `folds` folds, so every fold keeps the class
/// proportions.  Shared by the tree and forest cross-validation.
std::vector<FoldSplit> stratified_folds(const Dataset& data, int folds,
                                        std::uint64_t seed);

/// Stratified k-fold CV: class proportions are preserved per fold; each
/// fold is held out once while a model (normalizer + tree) is trained on
/// the rest.  Deterministic for a fixed seed.
CrossValidationResult stratified_kfold(const Dataset& data, int folds,
                                       TreeParams params, std::uint64_t seed);

}  // namespace drbw::ml
