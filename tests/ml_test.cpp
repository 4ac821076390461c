// Tests for the ML substrate: dataset/normalizer, CART training and
// prediction, model persistence, explanation/drift observability, confusion
// metrics, and stratified k-fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>

#include "drbw/fault/injector.hpp"
#include "drbw/ml/metrics.hpp"
#include "drbw/util/rng.hpp"

namespace drbw::ml {
namespace {

Dataset xor_free_dataset() {
  // Linearly separable on feature 0 with a little slack; feature 1 is noise.
  Dataset d({"signal", "noise"});
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    d.add({rng.uniform(0.0, 0.4), rng.uniform()}, Label::kGood);
    d.add({rng.uniform(0.6, 1.0), rng.uniform()}, Label::kRmc);
  }
  return d;
}

TEST(Dataset, AddAndQuery) {
  Dataset d({"a", "b"});
  d.add({1.0, 2.0}, Label::kGood, "run1");
  d.add({3.0, 4.0}, Label::kRmc);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.count(Label::kGood), 1u);
  EXPECT_EQ(d.count(Label::kRmc), 1u);
  EXPECT_EQ(d.tag(0), "run1");
  EXPECT_DOUBLE_EQ(d.row(1)[0], 3.0);
  EXPECT_THROW(d.add({1.0}, Label::kGood), Error);
}

TEST(Dataset, AnonymousColumnsInferArity) {
  Dataset d;
  d.add({1.0, 2.0, 3.0}, Label::kGood);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_EQ(d.feature_names()[2], "f2");
}

TEST(Dataset, SubsetPreservesRows) {
  Dataset d({"a"});
  d.add({1.0}, Label::kGood, "r0");
  d.add({2.0}, Label::kRmc, "r1");
  d.add({3.0}, Label::kGood, "r2");
  const Dataset s = d.subset({2, 0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.row(0)[0], 3.0);
  EXPECT_EQ(s.tag(1), "r0");
  EXPECT_THROW(d.subset({9}), Error);
}

TEST(Normalizer, MapsToUnitRange) {
  Dataset d({"a", "b"});
  d.add({0.0, 100.0}, Label::kGood);
  d.add({10.0, 300.0}, Label::kRmc);
  const Normalizer n = Normalizer::fit(d);
  const auto mid = n.apply({5.0, 200.0});
  EXPECT_DOUBLE_EQ(mid[0], 0.5);
  EXPECT_DOUBLE_EQ(mid[1], 0.5);
  // Out-of-range values extrapolate (unseen magnitudes look extreme).
  EXPECT_DOUBLE_EQ(n.apply({20.0, 100.0})[0], 2.0);
}

TEST(Normalizer, ConstantFeatureMapsToZero) {
  Dataset d({"c"});
  d.add({7.0}, Label::kGood);
  d.add({7.0}, Label::kRmc);
  const Normalizer n = Normalizer::fit(d);
  EXPECT_DOUBLE_EQ(n.apply({7.0})[0], 0.0);
  EXPECT_DOUBLE_EQ(n.apply({100.0})[0], 0.0);
}

TEST(Normalizer, JsonRoundTrip) {
  Dataset d({"a"});
  d.add({1.0}, Label::kGood);
  d.add({9.0}, Label::kRmc);
  const Normalizer n = Normalizer::fit(d);
  const Normalizer m = Normalizer::from_json(n.to_json());
  EXPECT_DOUBLE_EQ(m.apply({5.0})[0], n.apply({5.0})[0]);
}

TEST(DecisionTree, LearnsSeparableBoundary) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  EXPECT_EQ(model.predict({0.1, 0.9}), Label::kGood);
  EXPECT_EQ(model.predict({0.9, 0.1}), Label::kRmc);
  const ConfusionMatrix cm = evaluate(model, d);
  EXPECT_DOUBLE_EQ(cm.correctness(), 1.0);
  // Only the signal feature should be used.
  EXPECT_EQ(model.tree().used_features(), std::vector<int>{0});
}

TEST(DecisionTree, TwoFeatureInteraction) {
  // rmc iff f0 high AND f1 high: requires depth 2, like Fig. 3's two-feature
  // tree (remote count high AND remote latency high).
  Dataset d({"remote_count", "remote_lat"});
  for (double a : {0.1, 0.3, 0.7, 0.9}) {
    for (double b : {0.1, 0.3, 0.7, 0.9}) {
      for (int rep = 0; rep < 3; ++rep) {
        d.add({a + rep * 0.01, b + rep * 0.01},
              (a > 0.5 && b > 0.5) ? Label::kRmc : Label::kGood);
      }
    }
  }
  const Classifier model = Classifier::train(d);
  EXPECT_EQ(model.predict({0.8, 0.8}), Label::kRmc);
  EXPECT_EQ(model.predict({0.8, 0.2}), Label::kGood);
  EXPECT_EQ(model.predict({0.2, 0.8}), Label::kGood);
  EXPECT_EQ(evaluate(model, d).correctness(), 1.0);
  EXPECT_EQ(model.tree().used_features().size(), 2u);
}

TEST(DecisionTree, PureDatasetIsSingleLeaf) {
  Dataset d({"a"});
  for (int i = 0; i < 10; ++i) d.add({static_cast<double>(i)}, Label::kGood);
  const DecisionTree tree = DecisionTree::train(d);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_EQ(tree.depth(), 0);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.predict({5.0}), Label::kGood);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Dataset d = xor_free_dataset();
  TreeParams p;
  p.max_depth = 1;
  const DecisionTree tree = DecisionTree::train(d, p);
  EXPECT_LE(tree.depth(), 1);
}

TEST(DecisionTree, MinLeafPreventsSlivers) {
  Dataset d({"a"});
  // One outlier good point inside an rmc cluster.
  for (int i = 0; i < 20; ++i) d.add({1.0 + i * 0.001}, Label::kRmc);
  d.add({1.010}, Label::kGood);
  TreeParams p;
  p.min_samples_leaf = 5;
  const DecisionTree tree = DecisionTree::train(d, p);
  // Cannot isolate the single outlier with min leaf 5.
  EXPECT_EQ(tree.predict({1.0105}), Label::kRmc);
}

TEST(DecisionTree, PrintsFigureThreeStyle) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const std::string rendered = model.describe();
  EXPECT_NE(rendered.find("signal >"), std::string::npos);
  EXPECT_NE(rendered.find("[good]"), std::string::npos);
  EXPECT_NE(rendered.find("[rmc]"), std::string::npos);
  EXPECT_NE(rendered.find("yes ->"), std::string::npos);
}

TEST(DecisionTree, JsonRoundTripPreservesPredictions) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const Classifier loaded = Classifier::from_json(model.to_json());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> row{rng.uniform(), rng.uniform()};
    EXPECT_EQ(model.predict(row), loaded.predict(row));
  }
  EXPECT_EQ(loaded.feature_names(), model.feature_names());
}

TEST(DecisionTree, SaveLoadFile) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const std::string path = ::testing::TempDir() + "/drbw_model.json";
  model.save(path);
  const Classifier loaded = Classifier::load(path);
  EXPECT_EQ(loaded.predict({0.9, 0.5}), Label::kRmc);
  std::remove(path.c_str());
  EXPECT_THROW(Classifier::load("/nonexistent/model.json"), Error);
}

TEST(DecisionTree, EmptyAndInvalidInputs) {
  EXPECT_THROW(DecisionTree::train(Dataset{}), Error);
  Dataset d({"a"});
  d.add({1.0}, Label::kGood);
  TreeParams bad;
  bad.max_depth = 0;
  EXPECT_THROW(DecisionTree::train(d, bad), Error);
  DecisionTree untrained;
  EXPECT_THROW(untrained.predict({1.0}), Error);
}

TEST(Explanation, PathMatchesPredictionAndTree) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  const Explanation e = model.predict_explained({0.9, 0.1});
  EXPECT_EQ(e.label, Label::kRmc);
  EXPECT_EQ(e.label, model.predict({0.9, 0.1}));
  ASSERT_FALSE(e.path.empty());
  // Every hop consults the one signal feature of the separable dataset.
  for (const PathStep& step : e.path) EXPECT_EQ(step.feature, 0);
  EXPECT_TRUE(
      model.tree().nodes()[static_cast<std::size_t>(e.leaf)].is_leaf());
}

TEST(Explanation, ConfidenceIsLeafPurityInMajorityRange) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Explanation e =
        model.predict_explained({rng.uniform(), rng.uniform()});
    EXPECT_GE(e.confidence, 0.5);
    EXPECT_LE(e.confidence, 1.0);
  }
}

/// Checks the Saabas identity P(rmc | leaf) = P(rmc | root) +
/// sum(attributions) on every row; returns the distinct leaves reached.
std::set<int> expect_saabas_identity(
    const Classifier& model, const std::vector<std::vector<double>>& rows) {
  const auto& nodes = model.tree().nodes();
  const auto p_rmc = [&](int node) {
    const auto& n = nodes[static_cast<std::size_t>(node)];
    return static_cast<double>(n.rmc_count) / static_cast<double>(n.count);
  };
  const double p_root = p_rmc(0);
  std::set<int> leaves;
  for (const std::vector<double>& row : rows) {
    const Explanation e = model.predict_explained(row);
    EXPECT_EQ(e.attributions.size(), model.feature_names().size());
    const double sum = std::accumulate(e.attributions.begin(),
                                       e.attributions.end(), 0.0);
    EXPECT_NEAR(p_root + sum, p_rmc(e.leaf), 1e-12);
    leaves.insert(e.leaf);
  }
  return leaves;
}

TEST(Explanation, AttributionsSumToLeafMinusRootProbability) {
  const Classifier toy = Classifier::train(xor_free_dataset());
  std::vector<std::vector<double>> toy_rows;
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    toy_rows.push_back({rng.uniform(), rng.uniform()});
  }
  expect_saabas_identity(toy, toy_rows);

  // The committed 13-feature paper classifier, on a deterministic LCG walk
  // across each feature's training range.  Raw [0, 1) rows would miss the
  // leaf behind the feature-6 split (raw threshold ~670), so every row is
  // scaled by the model's own normalizer bounds.
  const Classifier paper = Classifier::load(
      std::string(DRBW_SOURCE_ROOT) + "/drbw_model.json");
  const Json bounds = paper.normalizer().to_json();
  const JsonArray& lo = bounds.at("lo").as_array();
  const JsonArray& hi = bounds.at("hi").as_array();
  std::vector<std::vector<double>> rows(256);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::vector<double>& row : rows) {
    for (std::size_t f = 0; f < lo.size(); ++f) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double u = static_cast<double>((state >> 16) % 10000) / 10000.0;
      row.push_back(lo[f].as_number() +
                    u * (hi[f].as_number() - lo[f].as_number()));
    }
  }
  EXPECT_EQ(expect_saabas_identity(paper, rows).size(),
            paper.tree().leaf_count());
}

TEST(Explanation, PathSignatureIsStable) {
  Dataset pure({"a"});
  for (int i = 0; i < 8; ++i) pure.add({1.0}, Label::kGood);
  const Classifier lone = Classifier::train(pure);
  EXPECT_EQ(lone.predict_explained({1.0}).path_signature(), "root");

  const Classifier model = Classifier::train(xor_free_dataset());
  const Explanation e = model.predict_explained({0.9, 0.1});
  // "<feature><L|R>" per hop, space-joined — the explain report's group key.
  std::string expect;
  for (const PathStep& step : e.path) {
    if (!expect.empty()) expect += ' ';
    expect += std::to_string(step.feature) + (step.went_right ? "R" : "L");
  }
  EXPECT_EQ(e.path_signature(), expect);
  EXPECT_EQ(e.path_signature(),
            model.predict_explained({0.9, 0.5}).path_signature());
}

TEST(DriftBaseline, TrainingEmbedsBaselineAndRoundTrips) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  ASSERT_TRUE(model.has_drift_baseline());
  EXPECT_EQ(model.drift_baseline().total, d.size());
  const Classifier loaded = Classifier::from_json(model.to_json());
  ASSERT_TRUE(loaded.has_drift_baseline());
  EXPECT_EQ(loaded.drift_baseline().counts, model.drift_baseline().counts);
  EXPECT_EQ(loaded.drift_baseline().total, model.drift_baseline().total);
}

TEST(DriftBaseline, DivergenceSeparatesInFromOutOfDistribution) {
  const Dataset d = xor_free_dataset();
  const Classifier model = Classifier::train(d);
  DriftBaseline in_dist, shifted;
  in_dist.resize(2);
  shifted.resize(2);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    // In-distribution: the same bimodal signal the training set carries.
    model.observe_drift({i % 2 == 0 ? rng.uniform(0.0, 0.4)
                                    : rng.uniform(0.6, 1.0),
                         rng.uniform()},
                        in_dist);
    // Shifted: all mass inside the training gap.
    model.observe_drift({rng.uniform(0.45, 0.55), rng.uniform()}, shifted);
  }
  const auto quiet = model.drift_baseline().divergence(in_dist);
  const auto loud = model.drift_baseline().divergence(shifted);
  ASSERT_EQ(quiet.size(), 2u);
  ASSERT_EQ(loud.size(), 2u);
  EXPECT_LT(quiet[0], 1.0);
  EXPECT_GT(loud[0], quiet[0] + 1.0);
  // The noise feature stays uniform in both streams.
  EXPECT_LT(loud[1], 1.0);
}

TEST(DriftBaseline, MergeIsCommutativeAndMatchesSerial) {
  Rng rng(23);
  DriftBaseline serial, a, b;
  serial.resize(1);
  a.resize(1);
  b.resize(1);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.uniform();
    serial.observe({v});
    (i % 2 == 0 ? a : b).observe({v});
  }
  DriftBaseline ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.counts, serial.counts);
  EXPECT_EQ(ba.counts, serial.counts);
  EXPECT_EQ(ab.total, serial.total);
}

TEST(DriftBaseline, EdgeBucketsAbsorbOutOfRangeValues) {
  EXPECT_EQ(DriftBaseline::bucket_of(-5.0), 0u);
  EXPECT_EQ(DriftBaseline::bucket_of(0.0), 0u);
  EXPECT_EQ(DriftBaseline::bucket_of(1.0), DriftBaseline::kBuckets - 1);
  EXPECT_EQ(DriftBaseline::bucket_of(42.0), DriftBaseline::kBuckets - 1);
}

TEST(DriftBaseline, InvalidEmbeddedBaselineDisablesDriftNotLoad) {
  const Classifier model = Classifier::train(xor_free_dataset());
  Json doc = model.to_json();
  // Structurally broken baseline: feature arity no longer matches.
  Json bad;
  bad.set("buckets", Json(DriftBaseline::kBuckets));
  bad.set("total", Json(static_cast<std::uint64_t>(7)));
  bad.set("counts", Json(JsonArray{}));
  doc.set("drift_baseline", std::move(bad));
  const Classifier loaded = Classifier::from_json(doc);
  EXPECT_FALSE(loaded.has_drift_baseline());
  EXPECT_EQ(loaded.predict({0.9, 0.1}), model.predict({0.9, 0.1}));
}

TEST(DriftBaseline, CorruptFieldFaultYieldsEmptyBaseline) {
  const Classifier model = Classifier::train(xor_free_dataset());
  const Json doc = model.to_json();
  fault::Injector::global().arm(
      fault::Plan::parse("seed=1,model.drift:corrupt:1"));
  const Classifier faulted = Classifier::from_json(doc);
  fault::Injector::global().disarm();
  // The fired model.drift fault disables drift; the model itself survives.
  EXPECT_FALSE(faulted.has_drift_baseline());
  EXPECT_EQ(faulted.predict({0.9, 0.1}), model.predict({0.9, 0.1}));
  EXPECT_TRUE(Classifier::from_json(doc).has_drift_baseline());
}

TEST(DriftBaseline, V2DocumentLoadsWithDriftUnavailable) {
  const Classifier model = Classifier::train(xor_free_dataset());
  Json doc = model.to_json();
  // A v2-era document simply lacks the key.
  JsonObject& fields = doc.as_object();
  fields.erase(std::remove_if(fields.begin(), fields.end(),
                              [](const auto& field) {
                                return field.first == "drift_baseline";
                              }),
               fields.end());
  const Classifier loaded = Classifier::from_json(doc);
  EXPECT_FALSE(loaded.has_drift_baseline());
  EXPECT_EQ(loaded.predict({0.2, 0.5}), Label::kGood);
}

TEST(ConfusionMatrix, RatesMatchPaperDefinitions) {
  // Table VI's numbers: TP=63, FN=0, FP=19, TN=430.
  ConfusionMatrix cm;
  cm.true_rmc = 63;
  cm.false_good = 0;
  cm.false_rmc = 19;
  cm.true_good = 430;
  EXPECT_NEAR(cm.correctness(), 0.963, 0.0005);
  EXPECT_NEAR(cm.false_positive_rate(), 0.042, 0.0005);
  EXPECT_DOUBLE_EQ(cm.false_negative_rate(), 0.0);
  EXPECT_EQ(cm.total(), 512u);
  const std::string s = cm.to_string();
  EXPECT_NE(s.find("430"), std::string::npos);
  EXPECT_NE(s.find("96.3%"), std::string::npos);
}

TEST(ConfusionMatrix, RecordAndMerge) {
  ConfusionMatrix a, b;
  a.record(Label::kRmc, Label::kRmc);
  a.record(Label::kGood, Label::kRmc);
  b.record(Label::kGood, Label::kGood);
  b.record(Label::kRmc, Label::kGood);
  a.merge(b);
  EXPECT_EQ(a.true_rmc, 1u);
  EXPECT_EQ(a.false_rmc, 1u);
  EXPECT_EQ(a.true_good, 1u);
  EXPECT_EQ(a.false_good, 1u);
  EXPECT_DOUBLE_EQ(a.correctness(), 0.5);
}

TEST(ConfusionMatrix, EmptyIsZeroSafe) {
  const ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.correctness(), 0.0);
  EXPECT_DOUBLE_EQ(cm.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(cm.false_negative_rate(), 0.0);
}

TEST(CrossValidation, HighAccuracyOnSeparableData) {
  const Dataset d = xor_free_dataset();
  const auto cv = stratified_kfold(d, 10, TreeParams{}, 42);
  EXPECT_EQ(cv.folds, 10);
  EXPECT_EQ(cv.confusion.total(), d.size());
  EXPECT_GT(cv.accuracy, 0.95);
}

TEST(CrossValidation, DeterministicForSeed) {
  const Dataset d = xor_free_dataset();
  const auto a = stratified_kfold(d, 5, TreeParams{}, 7);
  const auto b = stratified_kfold(d, 5, TreeParams{}, 7);
  EXPECT_EQ(a.confusion.true_rmc, b.confusion.true_rmc);
  EXPECT_EQ(a.confusion.false_rmc, b.confusion.false_rmc);
}

TEST(CrossValidation, ValidatesArguments) {
  Dataset d({"a"});
  d.add({1.0}, Label::kGood);
  EXPECT_THROW(stratified_kfold(d, 1, TreeParams{}, 0), Error);
  EXPECT_THROW(stratified_kfold(d, 5, TreeParams{}, 0), Error);
}

}  // namespace
}  // namespace drbw::ml
