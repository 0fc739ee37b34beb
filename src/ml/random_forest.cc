#include "ml/random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>

#include "util/thread_pool.h"

namespace reds::ml {

std::string MetamodelSuffix(MetamodelKind kind) {
  switch (kind) {
    case MetamodelKind::kRandomForest:
      return "f";
    case MetamodelKind::kGbt:
      return "x";
    case MetamodelKind::kSvm:
      return "s";
  }
  return "?";
}

void RandomForest::Fit(const Dataset& d, uint64_t seed) {
  Fit(d, seed, nullptr, nullptr);
}

TreeConfig RandomForest::MakeTreeConfig(int num_cols) const {
  TreeConfig tree_config;
  tree_config.mtry = config_.mtry > 0
                         ? config_.mtry
                         : std::max(1, static_cast<int>(std::sqrt(
                                           static_cast<double>(num_cols))));
  tree_config.min_samples_leaf = config_.min_samples_leaf;
  tree_config.min_samples_split = std::max(2, 2 * config_.min_samples_leaf);
  tree_config.max_depth = config_.max_depth;
  tree_config.backend = config_.backend;
  tree_config.growth = config_.growth;
  tree_config.max_leaves = config_.max_leaves;
  return tree_config;
}

void RandomForest::Fit(const Dataset& d, uint64_t seed,
                       const ColumnIndex* index, const BinnedIndex* binned) {
  assert(d.num_rows() > 0);
  num_features_ = d.num_cols();
  const TreeConfig tree_config = MakeTreeConfig(d.num_cols());

  // One columnar index (and, for the histogram backend, one quantization)
  // serves every tree; each derives its bootstrap sample's views from the
  // shared structures instead of rebuilding them.
  std::shared_ptr<const ColumnIndex> owned;
  if (config_.backend != SplitBackend::kExact && index == nullptr) {
    owned = ColumnIndex::Build(d);
    index = owned.get();
  }
  std::shared_ptr<const BinnedIndex> owned_binned;
  if (config_.backend == SplitBackend::kHistogram && binned == nullptr) {
    owned_binned = BinnedIndex::Build(*index);
    binned = owned_binned.get();
  }
  if (config_.backend == SplitBackend::kExact) {
    index = nullptr;
    binned = nullptr;
  }

  const int bag_size = std::max(
      1, static_cast<int>(std::lround(config_.sample_fraction * d.num_rows())));

  std::vector<RegressionTree> trees(static_cast<size_t>(config_.num_trees));
  in_bag_counts_.assign(static_cast<size_t>(config_.num_trees),
                        std::vector<int>(static_cast<size_t>(d.num_rows()), 0));
  auto fit_tree = [&](int t) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(t)));
    std::vector<int> rows(static_cast<size_t>(bag_size));
    for (auto& r : rows) {
      r = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(d.num_rows())));
      in_bag_counts_[static_cast<size_t>(t)][static_cast<size_t>(r)]++;
    }
    // Grown in a thread-private tree, then moved into its slot: trees fit
    // concurrently would otherwise share cache lines of `trees`.
    RegressionTree tree;
    tree.Fit(d, rows, tree_config, &rng, index, binned);
    trees[static_cast<size_t>(t)] = std::move(tree);
  };
  // Trees are seeded independently and write only their own slots, so the
  // fit is identical however many cores take part.
  ParallelFor(0, config_.num_trees, fit_tree);
  Flatten(trees);
}

void RandomForest::Flatten(const std::vector<RegressionTree>& trees) {
  int nodes = 0;
  for (const RegressionTree& tree : trees) nodes += tree.num_nodes();
  forest_.Clear();
  forest_.Reserve(static_cast<int>(trees.size()), nodes);
  for (const RegressionTree& tree : trees) forest_.Append(tree.nodes());
}

void RandomForest::FitOnRows(const Dataset& d, const std::vector<int>& rows,
                             uint64_t seed, const ColumnIndex* index,
                             const BinnedIndex* binned) {
  const bool have_views =
      (config_.backend == SplitBackend::kPresorted && index != nullptr) ||
      (config_.backend == SplitBackend::kHistogram && index != nullptr &&
       binned != nullptr);
  if (!have_views) {
    Metamodel::FitOnRows(d, rows, seed, index, binned);
    return;
  }
  assert(!rows.empty());
  num_features_ = d.num_cols();
  const TreeConfig tree_config = MakeTreeConfig(d.num_cols());

  // Bootstrap draws index into `rows`, so each bag is a sample of the
  // subset; RegressionTree::Fit already handles arbitrary row lists with
  // duplicates against the shared full-data index (that is how ordinary
  // bootstrap fits work), so no fold dataset or index is materialized.
  // The draw sequence matches the materializing default's draws over the
  // renumbered subset position for position.
  const int n_fit = static_cast<int>(rows.size());
  const int bag_size = std::max(
      1, static_cast<int>(std::lround(config_.sample_fraction * n_fit)));

  std::vector<RegressionTree> trees(static_cast<size_t>(config_.num_trees));
  // Bag counts are recorded at full-data row ids so OobStateMatches pairs
  // the fitted model with `d`; out-of-fold rows read as never-in-bag.
  in_bag_counts_.assign(static_cast<size_t>(config_.num_trees),
                        std::vector<int>(static_cast<size_t>(d.num_rows()), 0));
  auto fit_tree = [&](int t) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(t)));
    std::vector<int> bag(static_cast<size_t>(bag_size));
    for (auto& r : bag) {
      r = rows[rng.UniformInt(static_cast<uint64_t>(n_fit))];
      in_bag_counts_[static_cast<size_t>(t)][static_cast<size_t>(r)]++;
    }
    // Grown in a thread-private tree, then moved into its slot: trees fit
    // concurrently would otherwise share cache lines of `trees`.
    RegressionTree tree;
    tree.Fit(d, bag, tree_config, &rng, index, binned);
    trees[static_cast<size_t>(t)] = std::move(tree);
  };
  ParallelFor(0, config_.num_trees, fit_tree);
  Flatten(trees);
}

bool RandomForest::OobStateMatches(const Dataset& d) const {
  return in_bag_counts_.size() == static_cast<size_t>(forest_.num_trees()) &&
         !in_bag_counts_.empty() &&
         in_bag_counts_.front().size() == static_cast<size_t>(d.num_rows());
}

std::vector<double> RandomForest::OobPredictions(const Dataset& d) const {
  assert(!forest_.empty());
  // Hard check (not just an assert): `d` must be the training dataset the
  // bag counts were recorded for. On mismatch -- wrong dataset, or a
  // cache-loaded model paired with other data -- fall back to full-forest
  // predictions instead of indexing past the count vectors.
  if (!OobStateMatches(d)) {
    std::vector<double> out(static_cast<size_t>(d.num_rows()));
    for (int i = 0; i < d.num_rows(); ++i) {
      out[static_cast<size_t>(i)] = PredictProb(d.row(i));
    }
    return out;
  }
  std::vector<double> sum(static_cast<size_t>(d.num_rows()), 0.0);
  std::vector<int> votes(static_cast<size_t>(d.num_rows()), 0);
  for (int t = 0; t < forest_.num_trees(); ++t) {
    const std::vector<int>& bag = in_bag_counts_[static_cast<size_t>(t)];
    for (int i = 0; i < d.num_rows(); ++i) {
      if (bag[static_cast<size_t>(i)] == 0) {
        forest_.AccumulateLeaves(t, t + 1, d.row(i), 1, 0,
                                 &sum[static_cast<size_t>(i)]);
        votes[static_cast<size_t>(i)]++;
      }
    }
  }
  std::vector<double> out(static_cast<size_t>(d.num_rows()));
  for (int i = 0; i < d.num_rows(); ++i) {
    out[static_cast<size_t>(i)] =
        votes[static_cast<size_t>(i)] > 0
            ? sum[static_cast<size_t>(i)] / votes[static_cast<size_t>(i)]
            : PredictProb(d.row(i));
  }
  return out;
}

double RandomForest::OobError(const Dataset& d) const {
  // OobPredictions degrades to full-forest (in-bag) predictions when the
  // bag counts don't match `d`; reporting those as an "OOB" error would be
  // an optimistically biased resubstitution estimate, so make the mismatch
  // visible instead of silently flattering the model.
  if (!OobStateMatches(d)) return std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> prob = OobPredictions(d);
  int wrong = 0;
  for (int i = 0; i < d.num_rows(); ++i) {
    wrong += (prob[static_cast<size_t>(i)] > 0.5) != (d.y(i) > 0.5) ? 1 : 0;
  }
  return static_cast<double>(wrong) / d.num_rows();
}

std::vector<double> RandomForest::PermutationImportance(const Dataset& d,
                                                        uint64_t seed) const {
  // Same hard check as OobPredictions: without matching bag counts there
  // is no out-of-bag signal to permute against, so report zero importance
  // instead of indexing past the count vectors.
  if (!OobStateMatches(d)) {
    return std::vector<double>(static_cast<size_t>(d.num_cols()), 0.0);
  }
  const double baseline = OobError(d);
  std::vector<double> importance(static_cast<size_t>(d.num_cols()), 0.0);
  Rng rng(DeriveSeed(seed, 0x19f0));
  std::vector<double> row(static_cast<size_t>(d.num_cols()));
  for (int j = 0; j < d.num_cols(); ++j) {
    // Shuffled copy of column j.
    std::vector<double> column(static_cast<size_t>(d.num_rows()));
    for (int i = 0; i < d.num_rows(); ++i) column[static_cast<size_t>(i)] = d.x(i, j);
    rng.Shuffle(&column);
    // OOB error with the permuted column.
    std::vector<double> sum(static_cast<size_t>(d.num_rows()), 0.0);
    std::vector<int> votes(static_cast<size_t>(d.num_rows()), 0);
    for (int t = 0; t < forest_.num_trees(); ++t) {
      const std::vector<int>& bag = in_bag_counts_[static_cast<size_t>(t)];
      for (int i = 0; i < d.num_rows(); ++i) {
        if (bag[static_cast<size_t>(i)] != 0) continue;
        for (int c = 0; c < d.num_cols(); ++c) row[static_cast<size_t>(c)] = d.x(i, c);
        row[static_cast<size_t>(j)] = column[static_cast<size_t>(i)];
        forest_.AccumulateLeaves(t, t + 1, row.data(), 1, 0,
                                 &sum[static_cast<size_t>(i)]);
        votes[static_cast<size_t>(i)]++;
      }
    }
    int wrong = 0, counted = 0;
    for (int i = 0; i < d.num_rows(); ++i) {
      if (votes[static_cast<size_t>(i)] == 0) continue;
      ++counted;
      const double p = sum[static_cast<size_t>(i)] / votes[static_cast<size_t>(i)];
      wrong += (p > 0.5) != (d.y(i) > 0.5) ? 1 : 0;
    }
    const double permuted_error =
        counted > 0 ? static_cast<double>(wrong) / counted : baseline;
    importance[static_cast<size_t>(j)] = permuted_error - baseline;
  }
  return importance;
}

void RandomForest::PredictBlock(la::ConstMatrixView x, double* out) const {
  assert(!forest_.empty() && x.cols() == num_features_);
  std::fill(out, out + x.rows(), 0.0);
  forest_.AccumulateLeaves(0, forest_.num_trees(), x.data(), x.rows(),
                           x.cols(), out);
  const double num_trees = static_cast<double>(forest_.num_trees());
  for (int r = 0; r < x.rows(); ++r) {
    out[r] = std::clamp(out[r] / num_trees, 0.0, 1.0);
  }
}

void RandomForest::SerializeTo(util::ByteWriter* out) const {
  out->I32(num_features_);
  out->U64(static_cast<uint64_t>(forest_.num_trees()));
  for (int t = 0; t < forest_.num_trees(); ++t) forest_.SerializeTree(t, out);
  out->U64(in_bag_counts_.size());
  for (const std::vector<int>& counts : in_bag_counts_) out->VecI32(counts);
}

Status RandomForest::DeserializeFrom(util::ByteReader* in) {
  num_features_ = in->I32();
  const uint64_t num_trees = in->U64();
  // Zero trees would make PredictProb average over nothing (NaN); every
  // fitted forest has at least one.
  if (!in->ok() || num_features_ <= 0 || num_trees == 0 ||
      num_trees > in->remaining() / 8) {
    return Status::InvalidArgument("corrupt forest: header");
  }
  forest_.Clear();
  for (uint64_t t = 0; t < num_trees; ++t) {
    const Status s = forest_.DeserializeTree(in, num_features_, "tree");
    if (!s.ok()) return s;
  }
  forest_.ShrinkToFit();
  const uint64_t num_bags = in->U64();
  if (!in->ok() || num_bags != num_trees) {
    return Status::InvalidArgument("corrupt forest: bag counts");
  }
  in_bag_counts_.assign(static_cast<size_t>(num_bags), {});
  for (std::vector<int>& counts : in_bag_counts_) {
    counts = in->VecI32();
    // Every fitted tree records one count per training row: uniform
    // lengths and non-negative entries, or the payload is hostile.
    if (counts.size() != in_bag_counts_.front().size()) {
      return Status::InvalidArgument("corrupt forest: bag count shape");
    }
    for (int c : counts) {
      if (c < 0) return Status::InvalidArgument("corrupt forest: bag count");
    }
  }
  if (!in->ok()) return Status::InvalidArgument("corrupt forest: truncated");
  return Status::OK();
}

}  // namespace reds::ml
