#include "drbw/ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "drbw/util/rng.hpp"
#include "drbw/util/task_pool.hpp"

namespace drbw::ml {

RandomForest RandomForest::train(const Dataset& data, ForestParams params) {
  DRBW_CHECK_MSG(data.size() > 0, "cannot train forest on empty dataset");
  DRBW_CHECK_MSG(params.num_trees >= 1, "forest needs at least one tree");

  RandomForest forest;
  forest.feature_names_ = data.feature_names();
  forest.normalizer_ = Normalizer::fit(data);

  Dataset normalized(data.feature_names());
  for (std::size_t i = 0; i < data.size(); ++i) {
    normalized.add(forest.normalizer_.apply(data.row(i)), data.label(i));
  }

  const std::size_t total_features = data.num_features();
  // Default subset size: sqrt(#features), but never below 2 — with one
  // feature per tree no tree can express an interaction.
  std::size_t per_tree =
      params.features_per_tree > 0
          ? static_cast<std::size_t>(params.features_per_tree)
          : static_cast<std::size_t>(
                std::max(2.0, std::sqrt(static_cast<double>(total_features))));
  per_tree = std::min(per_tree, total_features);

  // Each tree draws bootstrap rows and its feature subset from an RNG
  // stream forked off the forest seed by tree index — no shared stream, so
  // trees can be grown on any worker in any order and the forest comes out
  // identical for every `jobs` value.
  const Rng base(params.seed);
  forest.trees_.resize(static_cast<std::size_t>(params.num_trees));
  forest.feature_maps_.resize(static_cast<std::size_t>(params.num_trees));
  util::TaskPool pool(params.jobs);
  pool.parallel_for(static_cast<std::size_t>(params.num_trees), [&](std::size_t t) {
    Rng rng = base.fork(t);

    // Bootstrap rows.
    std::vector<std::size_t> rows(normalized.size());
    for (auto& r : rows) r = rng.bounded(normalized.size());

    // Random feature subset (without replacement).
    std::vector<std::size_t> all(total_features);
    std::iota(all.begin(), all.end(), 0);
    for (std::size_t i = all.size(); i > 1; --i) {
      std::swap(all[i - 1], all[rng.bounded(i)]);
    }
    std::vector<std::size_t> subset(all.begin(),
                                    all.begin() + static_cast<long>(per_tree));
    std::sort(subset.begin(), subset.end());

    Dataset sample;
    for (const std::size_t r : rows) {
      std::vector<double> projected;
      projected.reserve(subset.size());
      for (const std::size_t f : subset) projected.push_back(normalized.row(r)[f]);
      sample.add(std::move(projected), normalized.label(r));
    }
    // A bootstrap can come out single-class; such a tree is a valid
    // constant voter.
    forest.trees_[t] = DecisionTree::train(sample, params.tree);
    forest.feature_maps_[t] = std::move(subset);
  });
  return forest;
}

double RandomForest::vote_fraction(const std::vector<double>& raw_row) const {
  DRBW_CHECK_MSG(!trees_.empty(), "predict on untrained forest");
  const std::vector<double> normalized = normalizer_.apply(raw_row);
  int rmc_votes = 0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    std::vector<double> projected;
    projected.reserve(feature_maps_[t].size());
    for (const std::size_t f : feature_maps_[t]) projected.push_back(normalized[f]);
    rmc_votes += trees_[t].predict(projected) == Label::kRmc ? 1 : 0;
  }
  return static_cast<double>(rmc_votes) / static_cast<double>(trees_.size());
}

Label RandomForest::predict(const std::vector<double>& raw_row) const {
  return vote_fraction(raw_row) > 0.5 ? Label::kRmc : Label::kGood;
}

Explanation RandomForest::predict_explained(
    const std::vector<double>& raw_row) const {
  DRBW_CHECK_MSG(!trees_.empty(), "predict on untrained forest");
  const std::vector<double> normalized = normalizer_.apply(raw_row);
  Explanation out;
  out.leaf = -1;
  out.attributions.assign(feature_names_.size(), 0.0);
  int rmc_votes = 0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    std::vector<double> projected;
    projected.reserve(feature_maps_[t].size());
    for (const std::size_t f : feature_maps_[t]) projected.push_back(normalized[f]);
    const Explanation tree_exp =
        trees_[t].predict_explained(projected, feature_maps_[t].size());
    rmc_votes += tree_exp.label == Label::kRmc ? 1 : 0;
    // Map the tree's subspace attributions back to dataset columns.
    for (std::size_t c = 0; c < feature_maps_[t].size(); ++c) {
      out.attributions[feature_maps_[t][c]] += tree_exp.attributions[c];
    }
  }
  for (double& a : out.attributions) {
    a /= static_cast<double>(trees_.size());
  }
  const double vote =
      static_cast<double>(rmc_votes) / static_cast<double>(trees_.size());
  out.label = vote > 0.5 ? Label::kRmc : Label::kGood;
  out.confidence = out.label == Label::kRmc ? vote : 1.0 - vote;
  return out;
}

ConfusionMatrix evaluate_forest(const RandomForest& model, const Dataset& data) {
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < data.size(); ++i) {
    cm.record(data.label(i), model.predict(data.row(i)));
  }
  return cm;
}

CrossValidationResult stratified_kfold_forest(const Dataset& data, int folds,
                                              ForestParams params,
                                              std::uint64_t seed) {
  const std::vector<FoldSplit> splits = stratified_folds(data, folds, seed);

  // Folds train on disjoint seeds and merge order-independent counts, so
  // they parallelize cleanly; per-fold results land in their own slot and
  // merge in fold order to keep the result identical at any `jobs`.
  CrossValidationResult result;
  result.folds = folds;
  std::vector<ConfusionMatrix> fold_confusion(static_cast<std::size_t>(folds));
  util::TaskPool pool(params.jobs);
  pool.parallel_for(static_cast<std::size_t>(folds), [&](std::size_t f) {
    const Dataset train = data.subset(splits[f].train);
    if (train.count(Label::kGood) == 0 || train.count(Label::kRmc) == 0) return;
    ForestParams fold_params = params;
    fold_params.jobs = 1;  // parallelism lives at the fold level here
    fold_params.seed = params.seed + static_cast<std::uint64_t>(f) * 7919;
    const RandomForest model = RandomForest::train(train, fold_params);
    fold_confusion[f] = evaluate_forest(model, data.subset(splits[f].test));
  });
  for (const ConfusionMatrix& cm : fold_confusion) result.confusion.merge(cm);
  result.accuracy = result.confusion.correctness();
  return result;
}

}  // namespace drbw::ml
