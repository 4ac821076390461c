#include "drbw/ml/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "drbw/obs/trace.hpp"
#include "drbw/util/rng.hpp"
#include "drbw/util/strings.hpp"
#include "drbw/util/table.hpp"

namespace drbw::ml {

namespace {

obs::Counter& cv_folds_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "drbw_ml_cv_folds_total", "Cross-validation folds trained and scored");
  return counter;
}

}  // namespace

void ConfusionMatrix::record(Label actual, Label predicted) {
  if (actual == Label::kRmc) {
    predicted == Label::kRmc ? ++true_rmc : ++false_good;
  } else {
    predicted == Label::kRmc ? ++false_rmc : ++true_good;
  }
}

void ConfusionMatrix::merge(const ConfusionMatrix& other) {
  true_rmc += other.true_rmc;
  false_rmc += other.false_rmc;
  true_good += other.true_good;
  false_good += other.false_good;
}

double ConfusionMatrix::correctness() const {
  const std::uint64_t all = total();
  return all == 0 ? 0.0
                  : static_cast<double>(true_rmc + true_good) /
                        static_cast<double>(all);
}

double ConfusionMatrix::false_positive_rate() const {
  const std::uint64_t negatives = false_rmc + true_good;
  return negatives == 0
             ? 0.0
             : static_cast<double>(false_rmc) / static_cast<double>(negatives);
}

double ConfusionMatrix::false_negative_rate() const {
  const std::uint64_t positives = false_good + true_rmc;
  return positives == 0
             ? 0.0
             : static_cast<double>(false_good) / static_cast<double>(positives);
}

std::string ConfusionMatrix::to_string() const {
  TablePrinter t({{"", Align::kLeft},
                  {"predicted good", Align::kRight},
                  {"predicted rmc", Align::kRight}});
  t.add_row({"actual good", std::to_string(true_good), std::to_string(false_rmc)});
  t.add_row({"actual rmc", std::to_string(false_good), std::to_string(true_rmc)});
  std::ostringstream os;
  os << t.render();
  os << "correctness: " << format_percent(correctness())
     << "   false positive rate: " << format_percent(false_positive_rate())
     << "   false negative rate: " << format_percent(false_negative_rate())
     << '\n';
  return os.str();
}

ConfusionMatrix evaluate(const Classifier& model, const Dataset& data) {
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < data.size(); ++i) {
    cm.record(data.label(i), model.predict(data.row(i)));
  }
  return cm;
}

std::vector<FoldSplit> stratified_folds(const Dataset& data, int folds,
                                        std::uint64_t seed) {
  DRBW_CHECK_MSG(folds >= 2, "cross-validation needs at least 2 folds");
  std::vector<std::size_t> good_idx, rmc_idx;
  for (std::size_t i = 0; i < data.size(); ++i) {
    (data.label(i) == Label::kRmc ? rmc_idx : good_idx).push_back(i);
  }
  Rng rng(seed);
  auto shuffle = [&rng](std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.bounded(i)]);
    }
  };
  shuffle(good_idx);
  shuffle(rmc_idx);

  std::vector<std::vector<std::size_t>> fold_members(
      static_cast<std::size_t>(folds));
  std::size_t dealt = 0;
  for (const auto* cls : {&good_idx, &rmc_idx}) {
    for (const std::size_t i : *cls) {
      fold_members[dealt++ % static_cast<std::size_t>(folds)].push_back(i);
    }
  }
  std::vector<FoldSplit> splits(fold_members.size());
  for (std::size_t f = 0; f < splits.size(); ++f) {
    for (std::size_t g = 0; g < fold_members.size(); ++g) {
      std::vector<std::size_t>& into = g == f ? splits[f].test : splits[f].train;
      into.insert(into.end(), fold_members[g].begin(), fold_members[g].end());
    }
  }
  return splits;
}

CrossValidationResult stratified_kfold(const Dataset& data, int folds,
                                       TreeParams params, std::uint64_t seed) {
  DRBW_CHECK_MSG(data.size() >= static_cast<std::size_t>(folds),
                 "fewer rows than folds");
  const std::vector<FoldSplit> splits = stratified_folds(data, folds, seed);

  obs::Span span("cross_validate");
  span.arg("folds", static_cast<double>(folds));
  span.arg("rows", static_cast<double>(data.size()));
  CrossValidationResult result;
  result.folds = folds;
  for (const FoldSplit& split : splits) {
    const Dataset train = data.subset(split.train);
    const Dataset test = data.subset(split.test);
    if (train.count(Label::kGood) == 0 || train.count(Label::kRmc) == 0) {
      // Degenerate fold split; fold contributes raw majority predictions.
      continue;
    }
    const Classifier model = Classifier::train(train, params);
    result.confusion.merge(evaluate(model, test));
    cv_folds_counter().add(1);
  }
  result.accuracy = result.confusion.correctness();
  return result;
}

}  // namespace drbw::ml
