#include "ml/gbt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <queue>

#include "ml/order_partition.h"
#include "util/simd.h"

namespace reds::ml {

namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

// Newton gain of a candidate child: G^2 / (H + lambda).
double LeafScore(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

}  // namespace

// Per-round presorted state: for each of the round's candidate features, the
// in-bag rows ascending by that feature's value (derived from the shared
// ColumnIndex permutation, partitioned stably down the tree). `rows` mirrors
// the reference implementation's row array -- partitioned unstably with the
// same boolean sequence -- so node gradient sums accumulate in the exact
// same order and the fitted model is bit-identical to the reference.
struct GradientBoostedTrees::RoundContext {
  const ColumnIndex* index = nullptr;
  const std::vector<double>* grad = nullptr;
  const std::vector<double>* hess = nullptr;
  const std::vector<int>* features = nullptr;  // this round's candidates
  std::vector<std::vector<int>> order;         // per candidate: rows by value
  std::vector<int> rows;                       // reference-order row list
  std::vector<uint8_t> goes_left;              // by row id
  std::vector<int> scratch;
  double min_child_weight = 1.0;
  double lambda = 1.0;
  double gamma = 0.0;
  double eta = 0.3;
  int max_depth = 4;
  // Histogram backend only: codes are read from `binned` by row id, so no
  // per-round gathering or order derivation is needed at all.
  const BinnedIndex* binned = nullptr;
  int hist_stride = 0;         // bins reserved per candidate slot
  HistogramPool* hist_pool = nullptr;
  // Interleaved (grad, hess) pairs, packed once per round: the node
  // accumulations then touch one random cache line per row instead of two.
  const double* gh = nullptr;
  int max_leaves = 0;          // leaf-wise growth only; 0 = unlimited
};

int GradientBoostedTrees::BuildNode(const Dataset& d,
                                    const std::vector<double>& grad,
                                    const std::vector<double>& hess,
                                    std::vector<int>* rows, int begin, int end,
                                    int depth,
                                    const std::vector<int>& features,
                                    FlatTrees* tree) const {
  double g_sum = 0.0, h_sum = 0.0;
  for (int i = begin; i < end; ++i) {
    const int r = (*rows)[static_cast<size_t>(i)];
    g_sum += grad[static_cast<size_t>(r)];
    h_sum += hess[static_cast<size_t>(r)];
  }

  const int node_index =
      tree->AddNode(-config_.eta * g_sum / (h_sum + config_.lambda));

  if (depth >= config_.max_depth || end - begin < 2) return node_index;

  // Exact greedy split search over the candidate features.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 0.0;
  const double parent_score = LeafScore(g_sum, h_sum, config_.lambda);
  std::vector<std::pair<double, int>> order;  // (x value, row id)
  order.reserve(static_cast<size_t>(end - begin));
  for (int f : features) {
    order.clear();
    for (int i = begin; i < end; ++i) {
      const int r = (*rows)[static_cast<size_t>(i)];
      order.emplace_back(d.x(r, f), r);
    }
    std::sort(order.begin(), order.end());
    double gl = 0.0, hl = 0.0;
    for (size_t i = 0; i + 1 < order.size(); ++i) {
      gl += grad[static_cast<size_t>(order[i].second)];
      hl += hess[static_cast<size_t>(order[i].second)];
      if (order[i].first == order[i + 1].first) continue;
      const double gr = g_sum - gl;
      const double hr = h_sum - hl;
      if (hl < config_.min_child_weight || hr < config_.min_child_weight) {
        continue;
      }
      const double gain = 0.5 * (LeafScore(gl, hl, config_.lambda) +
                                 LeafScore(gr, hr, config_.lambda) -
                                 parent_score) -
                          config_.gamma;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (order[i].first + order[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return node_index;

  auto mid_it =
      std::partition(rows->begin() + begin, rows->begin() + end, [&](int r) {
        return d.x(r, best_feature) <= best_threshold;
      });
  const int mid = static_cast<int>(mid_it - rows->begin());
  if (mid == begin || mid == end) return node_index;  // degenerate (ties)

  const int left =
      BuildNode(d, grad, hess, rows, begin, mid, depth + 1, features, tree);
  const int right =
      BuildNode(d, grad, hess, rows, mid, end, depth + 1, features, tree);
  tree->SetSplit(node_index, best_feature, best_threshold, left, right);
  return node_index;
}

// Histogram split search: per-candidate gradient/hessian histograms over
// the shared BinnedIndex codes, parent-minus-sibling subtraction for the
// larger child, O(bins) candidate scans between consecutive non-empty bins.
// Node aggregates and the row partition run exactly like the presorted
// path, so leaf weights and tree shape differ from it only where the
// binning coarsens the candidate thresholds.
int GradientBoostedTrees::BuildNodeHistogram(RoundContext* ctx, int begin,
                                             int end, int depth,
                                             std::vector<HistBin> hist,
                                             FlatTrees* tree) const {
  const std::vector<double>& grad = *ctx->grad;
  const std::vector<double>& hess = *ctx->hess;
  double g_sum = 0.0, h_sum = 0.0;
  for (int i = begin; i < end; ++i) {
    const int r = ctx->rows[static_cast<size_t>(i)];
    g_sum += grad[static_cast<size_t>(r)];
    h_sum += hess[static_cast<size_t>(r)];
  }

  const int node_index =
      tree->AddNode(-ctx->eta * g_sum / (h_sum + ctx->lambda));

  if (depth >= ctx->max_depth || end - begin < 2) {
    if (!hist.empty()) ctx->hist_pool->Release(std::move(hist));
    return node_index;
  }

  const int n = end - begin;
  const double parent_score = LeafScore(g_sum, h_sum, ctx->lambda);
  const std::vector<int>& features = *ctx->features;
  const size_t stride = static_cast<size_t>(ctx->hist_stride);

  if (hist.empty()) {
    hist = ctx->hist_pool->Acquire();
    const int* ids = ctx->rows.data() + begin;
    for (size_t fi = 0; fi < features.size(); ++fi) {
      HistBin* slot = hist.data() + fi * stride;
      std::fill_n(slot, ctx->binned->num_bins(features[fi]), HistBin{});
      AccumulateHistogramPairs(ctx->binned->codes(features[fi]).data(), ids,
                               n, ctx->gh, slot);
    }
  }

  struct Candidate {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };
  auto search_feature = [&](size_t fi) {
    Candidate cand;
    const int f = features[fi];
    const HistBin* hb = hist.data() + fi * stride;
    const int num_bins = ctx->binned->num_bins(f);
    double gl = 0.0, hl = 0.0;
    int prev = -1;  // last non-empty bin folded into the left side
    for (int b = 0; b < num_bins; ++b) {
      if (hb[b].count == 0) continue;
      if (prev >= 0) {
        const double gr = g_sum - gl;
        const double hr = h_sum - hl;
        if (hl >= ctx->min_child_weight && hr >= ctx->min_child_weight) {
          const double gain = 0.5 * (LeafScore(gl, hl, ctx->lambda) +
                                     LeafScore(gr, hr, ctx->lambda) -
                                     parent_score) -
                              ctx->gamma;
          if (gain > cand.gain) {
            cand.gain = gain;
            cand.feature = f;
            cand.threshold = 0.5 * (ctx->binned->bin_last(f, prev) +
                                    ctx->binned->bin_first(f, b));
          }
        }
      }
      gl += hb[b].g;
      hl += hb[b].h;
      prev = b;
    }
    return cand;
  };

  const Candidate best = BestSplitOverFeatures<Candidate>(
      features.size(), search_feature);

  if (best.feature < 0) {
    ctx->hist_pool->Release(std::move(hist));
    return node_index;
  }

  // Partition by value against the recorded threshold (not by bin code), so
  // training membership always matches Predict's descent rule.
  const std::vector<double>& best_col = ctx->index->column(best.feature);
  int nl = 0;
  for (int i = begin; i < end; ++i) {
    const int r = ctx->rows[static_cast<size_t>(i)];
    const uint8_t left =
        best_col[static_cast<size_t>(r)] <= best.threshold ? 1 : 0;
    ctx->goes_left[static_cast<size_t>(r)] = left;
    nl += left;
  }
  const int mid = begin + nl;
  if (mid == begin || mid == end) {
    ctx->hist_pool->Release(std::move(hist));
    return node_index;  // degenerate (ties)
  }

  std::partition(ctx->rows.data() + begin, ctx->rows.data() + end,
                 [&](int r) {
                   return ctx->goes_left[static_cast<size_t>(r)] != 0;
                 });

  // Scan only the smaller child; the larger child's histogram is the
  // parent's minus the sibling's, reusing the parent's buffer. The round's
  // candidate features are fixed across the tree, so subtraction is always
  // valid (unlike CART under per-node mtry).
  const bool left_small = mid - begin <= end - mid;
  const int small_begin = left_small ? begin : mid;
  const int small_n = left_small ? mid - begin : end - mid;
  std::vector<HistBin> small = ctx->hist_pool->Acquire();
  const int* ids = ctx->rows.data() + small_begin;
  for (size_t fi = 0; fi < features.size(); ++fi) {
    HistBin* slot = small.data() + fi * stride;
    std::fill_n(slot, ctx->binned->num_bins(features[fi]), HistBin{});
    AccumulateHistogramPairs(ctx->binned->codes(features[fi]).data(), ids,
                             small_n, ctx->gh, slot);
  }
  for (size_t fi = 0; fi < features.size(); ++fi) {
    HistBin* parent = hist.data() + fi * stride;
    SubtractHistogram(parent, small.data() + fi * stride, parent,
                      ctx->binned->num_bins(features[fi]));
  }
  std::vector<HistBin> left_hist = left_small ? std::move(small)
                                              : std::move(hist);
  std::vector<HistBin> right_hist = left_small ? std::move(hist)
                                               : std::move(small);
  const int left =
      BuildNodeHistogram(ctx, begin, mid, depth + 1, std::move(left_hist), tree);
  const int right =
      BuildNodeHistogram(ctx, mid, end, depth + 1, std::move(right_hist), tree);
  tree->SetSplit(node_index, best.feature, best.threshold, left, right);
  return node_index;
}

// Best-first (leaf-wise) growth on the histogram backend: every open leaf
// carries its histogram and best candidate split, and a max-gain priority
// queue decides which leaf splits next, so a max_leaves cap spends the leaf
// budget where the gain is (LightGBM's growth order). Because a node's row
// segment depends only on its ancestors' partitions -- which precede it in
// *any* expansion order -- each expanded node sees bit-identical gradient
// sums, candidate scans, and partitions to the depth-wise recursion; with
// no cap and untied gains the fitted function is therefore identical, only
// the node-array order differs (children still always follow their parent,
// preserving the flat_trees strictly-forward invariant).
int GradientBoostedTrees::BuildLeafWise(RoundContext* ctx, int begin, int end,
                                        FlatTrees* tree) const {
  const std::vector<double>& grad = *ctx->grad;
  const std::vector<double>& hess = *ctx->hess;
  const std::vector<int>& features = *ctx->features;
  const size_t stride = static_cast<size_t>(ctx->hist_stride);

  struct Candidate {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };
  struct OpenLeaf {
    int node = -1;
    int begin = 0;
    int end = 0;
    int depth = 0;
    double g_sum = 0.0;
    double h_sum = 0.0;
    std::vector<HistBin> hist;
    Candidate best;
  };

  auto node_sums = [&](int b, int e, double* g_sum, double* h_sum) {
    double g = 0.0, h = 0.0;
    for (int i = b; i < e; ++i) {
      const int r = ctx->rows[static_cast<size_t>(i)];
      g += grad[static_cast<size_t>(r)];
      h += hess[static_cast<size_t>(r)];
    }
    *g_sum = g;
    *h_sum = h;
  };
  auto accumulate = [&](int b, int e) {
    std::vector<HistBin> hist = ctx->hist_pool->Acquire();
    const int* ids = ctx->rows.data() + b;
    for (size_t fi = 0; fi < features.size(); ++fi) {
      HistBin* slot = hist.data() + fi * stride;
      std::fill_n(slot, ctx->binned->num_bins(features[fi]), HistBin{});
      AccumulateHistogramPairs(ctx->binned->codes(features[fi]).data(), ids,
                               e - b, ctx->gh, slot);
    }
    return hist;
  };
  // Same candidate scan as BuildNodeHistogram's search_feature.
  auto search = [&](const OpenLeaf& leaf) {
    const double parent_score = LeafScore(leaf.g_sum, leaf.h_sum, ctx->lambda);
    auto search_feature = [&](size_t fi) {
      Candidate cand;
      const int f = features[fi];
      const HistBin* hb = leaf.hist.data() + fi * stride;
      const int num_bins = ctx->binned->num_bins(f);
      double gl = 0.0, hl = 0.0;
      int prev = -1;
      for (int b = 0; b < num_bins; ++b) {
        if (hb[b].count == 0) continue;
        if (prev >= 0) {
          const double gr = leaf.g_sum - gl;
          const double hr = leaf.h_sum - hl;
          if (hl >= ctx->min_child_weight && hr >= ctx->min_child_weight) {
            const double gain = 0.5 * (LeafScore(gl, hl, ctx->lambda) +
                                       LeafScore(gr, hr, ctx->lambda) -
                                       parent_score) -
                                ctx->gamma;
            if (gain > cand.gain) {
              cand.gain = gain;
              cand.feature = f;
              cand.threshold = 0.5 * (ctx->binned->bin_last(f, prev) +
                                      ctx->binned->bin_first(f, b));
            }
          }
        }
        gl += hb[b].g;
        hl += hb[b].h;
        prev = b;
      }
      return cand;
    };
    return BestSplitOverFeatures<Candidate>(features.size(), search_feature);
  };

  std::vector<OpenLeaf> open;
  // (gain, -slot): ties prefer the earliest-created slot, deterministically.
  std::priority_queue<std::pair<double, int>> queue;

  // Creates the node, and when it is splittable enqueues it as an open
  // leaf (building its histogram unless the parent handed one down).
  auto make_node = [&](int b, int e, int depth,
                       std::vector<HistBin> hist) -> int {
    double g_sum = 0.0, h_sum = 0.0;
    node_sums(b, e, &g_sum, &h_sum);
    const int node_index =
      tree->AddNode(-ctx->eta * g_sum / (h_sum + ctx->lambda));
    if (depth >= ctx->max_depth || e - b < 2) {
      if (!hist.empty()) ctx->hist_pool->Release(std::move(hist));
      return node_index;
    }
    OpenLeaf leaf;
    leaf.node = node_index;
    leaf.begin = b;
    leaf.end = e;
    leaf.depth = depth;
    leaf.g_sum = g_sum;
    leaf.h_sum = h_sum;
    leaf.hist = hist.empty() ? accumulate(b, e) : std::move(hist);
    leaf.best = search(leaf);
    if (leaf.best.feature < 0) {
      ctx->hist_pool->Release(std::move(leaf.hist));
      return node_index;
    }
    const int slot = static_cast<int>(open.size());
    open.push_back(std::move(leaf));
    queue.emplace(open[static_cast<size_t>(slot)].best.gain, -slot);
    return node_index;
  };

  make_node(begin, end, 0, {});
  int num_leaves = 1;
  while (!queue.empty() &&
         (ctx->max_leaves <= 0 || num_leaves < ctx->max_leaves)) {
    const int slot = -queue.top().second;
    queue.pop();
    OpenLeaf leaf = std::move(open[static_cast<size_t>(slot)]);

    // Partition by value against the recorded threshold, exactly like the
    // depth-wise expansion of this node.
    const std::vector<double>& best_col = ctx->index->column(leaf.best.feature);
    int nl = 0;
    for (int i = leaf.begin; i < leaf.end; ++i) {
      const int r = ctx->rows[static_cast<size_t>(i)];
      const uint8_t left =
          best_col[static_cast<size_t>(r)] <= leaf.best.threshold ? 1 : 0;
      ctx->goes_left[static_cast<size_t>(r)] = left;
      nl += left;
    }
    const int mid = leaf.begin + nl;
    if (mid == leaf.begin || mid == leaf.end) {
      ctx->hist_pool->Release(std::move(leaf.hist));
      continue;  // degenerate (ties): the node stays a leaf
    }
    std::partition(ctx->rows.data() + leaf.begin, ctx->rows.data() + leaf.end,
                   [&](int r) {
                     return ctx->goes_left[static_cast<size_t>(r)] != 0;
                   });

    // Scan the smaller child; the larger child inherits parent - sibling in
    // the parent's buffer.
    const bool left_small = mid - leaf.begin <= leaf.end - mid;
    const int small_begin = left_small ? leaf.begin : mid;
    const int small_end = left_small ? mid : leaf.end;
    std::vector<HistBin> small = accumulate(small_begin, small_end);
    for (size_t fi = 0; fi < features.size(); ++fi) {
      HistBin* parent = leaf.hist.data() + fi * stride;
      SubtractHistogram(parent, small.data() + fi * stride, parent,
                        ctx->binned->num_bins(features[fi]));
    }
    std::vector<HistBin> left_hist =
        left_small ? std::move(small) : std::move(leaf.hist);
    std::vector<HistBin> right_hist =
        left_small ? std::move(leaf.hist) : std::move(small);

    const int left_node =
        make_node(leaf.begin, mid, leaf.depth + 1, std::move(left_hist));
    const int right_node =
        make_node(mid, leaf.end, leaf.depth + 1, std::move(right_hist));
    tree->SetSplit(leaf.node, leaf.best.feature, leaf.best.threshold,
                   left_node, right_node);
    ++num_leaves;
  }
  // Leaves still queued when the cap fires keep their histograms; drain
  // them back to the pool.
  while (!queue.empty()) {
    const int slot = -queue.top().second;
    queue.pop();
    if (!open[static_cast<size_t>(slot)].hist.empty()) {
      ctx->hist_pool->Release(std::move(open[static_cast<size_t>(slot)].hist));
    }
  }
  return 0;
}

int GradientBoostedTrees::BuildNodeSorted(RoundContext* ctx, int begin,
                                          int end, int depth,
                                          FlatTrees* tree) const {
  const std::vector<double>& grad = *ctx->grad;
  const std::vector<double>& hess = *ctx->hess;
  double g_sum = 0.0, h_sum = 0.0;
  for (int i = begin; i < end; ++i) {
    const int r = ctx->rows[static_cast<size_t>(i)];
    g_sum += grad[static_cast<size_t>(r)];
    h_sum += hess[static_cast<size_t>(r)];
  }

  const int node_index =
      tree->AddNode(-ctx->eta * g_sum / (h_sum + ctx->lambda));

  if (depth >= ctx->max_depth || end - begin < 2) return node_index;

  const double parent_score = LeafScore(g_sum, h_sum, ctx->lambda);
  const std::vector<int>& features = *ctx->features;

  struct Candidate {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };
  // Walks one candidate feature's value-ordered rows; same accumulation
  // order and gain math as the reference's sorted (value, row) pairs.
  auto search_feature = [&](size_t fi) {
    Candidate cand;
    const int f = features[fi];
    const std::vector<int>& ord = ctx->order[fi];
    const std::vector<double>& col = ctx->index->column(f);
    double gl = 0.0, hl = 0.0;
    for (int i = begin; i + 1 < end; ++i) {
      const int r = ord[static_cast<size_t>(i)];
      gl += grad[static_cast<size_t>(r)];
      hl += hess[static_cast<size_t>(r)];
      const int next = ord[static_cast<size_t>(i + 1)];
      if (col[static_cast<size_t>(r)] == col[static_cast<size_t>(next)]) {
        continue;
      }
      const double gr = g_sum - gl;
      const double hr = h_sum - hl;
      if (hl < ctx->min_child_weight || hr < ctx->min_child_weight) continue;
      const double gain = 0.5 * (LeafScore(gl, hl, ctx->lambda) +
                                 LeafScore(gr, hr, ctx->lambda) -
                                 parent_score) -
                          ctx->gamma;
      if (gain > cand.gain) {
        cand.gain = gain;
        cand.feature = f;
        cand.threshold = 0.5 * (col[static_cast<size_t>(r)] +
                                col[static_cast<size_t>(next)]);
      }
    }
    return cand;
  };

  const Candidate best = BestSplitOverFeatures<Candidate>(
      features.size(), search_feature);

  if (best.feature < 0) return node_index;

  const std::vector<double>& best_col = ctx->index->column(best.feature);
  int nl = 0;
  for (int i = begin; i < end; ++i) {
    const int r = ctx->rows[static_cast<size_t>(i)];
    const uint8_t left =
        best_col[static_cast<size_t>(r)] <= best.threshold ? 1 : 0;
    ctx->goes_left[static_cast<size_t>(r)] = left;
    nl += left;
  }
  const int mid = begin + nl;
  if (mid == begin || mid == end) return node_index;  // degenerate (ties)

  // rows partitions unstably with the reference's boolean sequence; the
  // per-feature orders partition stably to stay value-sorted.
  std::partition(ctx->rows.data() + begin, ctx->rows.data() + end,
                 [&](int r) {
                   return ctx->goes_left[static_cast<size_t>(r)] != 0;
                 });
  StablePartitionOrders(&ctx->order, begin, end, ctx->goes_left,
                        &ctx->scratch);

  const int left = BuildNodeSorted(ctx, begin, mid, depth + 1, tree);
  const int right = BuildNodeSorted(ctx, mid, end, depth + 1, tree);
  tree->SetSplit(node_index, best.feature, best.threshold, left, right);
  return node_index;
}

void GradientBoostedTrees::Fit(const Dataset& d, uint64_t seed) {
  FitImpl(d, nullptr, seed, nullptr, nullptr);
}

void GradientBoostedTrees::Fit(const Dataset& d, uint64_t seed,
                               const ColumnIndex* index,
                               const BinnedIndex* binned) {
  FitImpl(d, nullptr, seed, index, binned);
}

void GradientBoostedTrees::FitOnRows(const Dataset& d,
                                     const std::vector<int>& rows,
                                     uint64_t seed, const ColumnIndex* index,
                                     const BinnedIndex* binned) {
  // The view fit reads values/orders/codes through the full-data indexes;
  // without the backend's index there is nothing to view through, so fall
  // back to the materializing default.
  const bool have_views =
      (config_.backend == SplitBackend::kPresorted && index != nullptr) ||
      (config_.backend == SplitBackend::kHistogram && index != nullptr &&
       binned != nullptr);
  if (!have_views) {
    Metamodel::FitOnRows(d, rows, seed, index, binned);
    return;
  }
  FitImpl(d, &rows, seed, index, binned);
}

// The one fit body. With `fit_rows` the model trains on that row subset
// through the shared full-data indexes: per-position state (margin) lives
// at subset positions, per-row state (grad/hess/goes_left) stays indexed by
// full row id, and sorted orders come from filtering the full permutations
// by bag membership. Since fit_rows ascends by row id, subset positions are
// an order-preserving renumbering and every draw/accumulation matches the
// materialized subset fit bit for bit (see FitOnRows in the header).
void GradientBoostedTrees::FitImpl(const Dataset& d,
                                   const std::vector<int>* fit_rows,
                                   uint64_t seed, const ColumnIndex* index,
                                   const BinnedIndex* binned) {
  assert(d.num_rows() > 0);
  num_features_ = d.num_cols();
  const int n = d.num_rows();
  const int n_fit =
      fit_rows != nullptr ? static_cast<int>(fit_rows->size()) : n;
  assert(n_fit > 0);
  auto fit_row = [&](int i) {
    return fit_rows != nullptr ? (*fit_rows)[static_cast<size_t>(i)] : i;
  };
  base_margin_ = std::log(config_.base_score / (1.0 - config_.base_score));
  std::vector<double> margin(static_cast<size_t>(n_fit), base_margin_);
  std::vector<double> grad(static_cast<size_t>(n));
  std::vector<double> hess(static_cast<size_t>(n));
  trees_.Clear();

  // Both indexed backends need the column-major values (split search or
  // partition); the histogram backend additionally needs the quantization.
  std::shared_ptr<const ColumnIndex> owned;
  if (config_.backend != SplitBackend::kExact && index == nullptr) {
    owned = ColumnIndex::Build(d);
    index = owned.get();
  }
  assert(index == nullptr || (index->num_rows() == d.num_rows() &&
                              index->num_cols() == d.num_cols()));
  std::shared_ptr<const BinnedIndex> owned_binned;
  if (config_.backend == SplitBackend::kHistogram && binned == nullptr) {
    owned_binned = BinnedIndex::Build(*index);
    binned = owned_binned.get();
  }
  assert(config_.backend != SplitBackend::kHistogram ||
         (binned->num_rows() == d.num_rows() &&
          binned->num_cols() == d.num_cols()));
  std::unique_ptr<HistogramPool> hist_pool;
  if (config_.backend == SplitBackend::kHistogram) {
    hist_pool = std::make_unique<HistogramPool>(
        static_cast<size_t>(d.num_cols()) *
        static_cast<size_t>(binned->max_bins()));
  }
  std::vector<uint8_t> in_bag;  // reused per round
  util::PackedDoubleBuffer gh_pairs;  // reused per round (histogram backend)

  Rng rng(DeriveSeed(seed, 0x67627400ULL));
  for (int round = 0; round < config_.num_rounds; ++round) {
    for (int i = 0; i < n_fit; ++i) {
      const int r = fit_row(i);
      const double p = Sigmoid(margin[static_cast<size_t>(i)]);
      grad[static_cast<size_t>(r)] = p - d.y(r);
      hess[static_cast<size_t>(r)] = std::max(p * (1.0 - p), 1e-16);
    }
    if (config_.backend == SplitBackend::kHistogram) {
      // One O(n) sequential pack, amortized over every node x feature
      // accumulation of the round. (Subset fits pack the zero-initialized
      // out-of-subset slots too; those pairs are never gathered.)
      PackGradientPairs(grad.data(), hess.data(), n, &gh_pairs);
    }

    // Row subsample for this round.
    std::vector<int> rows;
    rows.reserve(static_cast<size_t>(n_fit));
    for (int i = 0; i < n_fit; ++i) {
      if (config_.subsample >= 1.0 || rng.Bernoulli(config_.subsample)) {
        rows.push_back(fit_row(i));
      }
    }
    if (rows.empty()) {
      rows.push_back(fit_row(static_cast<int>(rng.UniformInt(n_fit))));
    }

    // Feature subsample for this round.
    std::vector<int> features;
    if (config_.colsample < 1.0) {
      const int k = std::max(
          1, static_cast<int>(std::lround(config_.colsample * d.num_cols())));
      features = rng.SampleWithoutReplacement(d.num_cols(), k);
    } else {
      features.resize(static_cast<size_t>(d.num_cols()));
      std::iota(features.begin(), features.end(), 0);
    }

    FlatTrees* tree = &trees_;
    tree->BeginTree();
    if (config_.backend == SplitBackend::kExact) {
      BuildNode(d, grad, hess, &rows, 0, static_cast<int>(rows.size()), 0,
                features, tree);
    } else {
      RoundContext ctx;
      ctx.index = index;
      ctx.grad = &grad;
      ctx.hess = &hess;
      ctx.features = &features;
      ctx.min_child_weight = config_.min_child_weight;
      ctx.lambda = config_.lambda;
      ctx.gamma = config_.gamma;
      ctx.eta = config_.eta;
      ctx.max_depth = config_.max_depth;
      const int in_round = static_cast<int>(rows.size());
      if (config_.backend == SplitBackend::kHistogram) {
        // Codes are read straight from the shared BinnedIndex by row id:
        // no per-round gather, no order derivation, no in-bag filtering.
        ctx.binned = binned;
        ctx.hist_stride = binned->max_bins();
        ctx.hist_pool = hist_pool.get();
        ctx.gh = gh_pairs.data();
        ctx.max_leaves = config_.max_leaves;
        ctx.rows = std::move(rows);
        ctx.goes_left.resize(static_cast<size_t>(n));
        if (config_.growth == GrowthPolicy::kLeafWise) {
          BuildLeafWise(&ctx, 0, in_round, tree);
        } else {
          BuildNodeHistogram(&ctx, 0, in_round, 0, {}, tree);
        }
      } else {
        ctx.order.resize(features.size());
        if (fit_rows == nullptr && in_round == n) {
          for (size_t fi = 0; fi < features.size(); ++fi) {
            ctx.order[fi] = index->sorted_rows(features[fi]);
          }
        } else {
          in_bag.assign(static_cast<size_t>(n), 0);
          for (int r : rows) in_bag[static_cast<size_t>(r)] = 1;
          for (size_t fi = 0; fi < features.size(); ++fi) {
            std::vector<int>& ord = ctx.order[fi];
            ord.reserve(static_cast<size_t>(in_round));
            for (int r : index->sorted_rows(features[fi])) {
              if (in_bag[static_cast<size_t>(r)]) ord.push_back(r);
            }
          }
        }
        ctx.rows = std::move(rows);
        ctx.goes_left.resize(static_cast<size_t>(n));
        ctx.scratch.resize(static_cast<size_t>(in_round));
        BuildNodeSorted(&ctx, 0, in_round, 0, tree);
      }
    }
    tree->FinishTree();
    const int t = tree->num_trees() - 1;
    for (int i = 0; i < n_fit; ++i) {
      tree->AccumulateLeaves(t, t + 1, d.row(fit_row(i)), 1, 0,
                             &margin[static_cast<size_t>(i)]);
    }
  }
  trees_.ShrinkToFit();
}

double GradientBoostedTrees::PredictMargin(const double* x) const {
  double m = base_margin_;
  trees_.AccumulateLeaves(0, trees_.num_trees(), x, 1, 0, &m);
  return m;
}

void GradientBoostedTrees::PredictBlock(la::ConstMatrixView x,
                                        double* out) const {
  PredictBlock(x, trees_.num_trees(), out);
}

void GradientBoostedTrees::PredictBlock(la::ConstMatrixView x, int num_trees,
                                        double* out) const {
  assert(x.cols() == num_features_);
  assert(num_trees >= 0 && num_trees <= trees_.num_trees());
  std::fill(out, out + x.rows(), base_margin_);
  trees_.AccumulateLeaves(0, num_trees, x.data(), x.rows(), x.cols(), out);
  for (int r = 0; r < x.rows(); ++r) out[r] = Sigmoid(out[r]);
}

void GradientBoostedTrees::SerializeTo(util::ByteWriter* out) const {
  out->I32(num_features_);
  out->F64(base_margin_);
  out->U64(static_cast<uint64_t>(trees_.num_trees()));
  for (int t = 0; t < trees_.num_trees(); ++t) trees_.SerializeTree(t, out);
}

Status GradientBoostedTrees::DeserializeFrom(util::ByteReader* in) {
  num_features_ = in->I32();
  base_margin_ = in->F64();
  const uint64_t num_trees = in->U64();
  if (!in->ok() || num_features_ <= 0 || num_trees > in->remaining() / 8) {
    return Status::InvalidArgument("corrupt GBT: header");
  }
  trees_.Clear();
  for (uint64_t t = 0; t < num_trees; ++t) {
    const Status s = trees_.DeserializeTree(in, num_features_, "GBT");
    if (!s.ok()) return s;
  }
  trees_.ShrinkToFit();
  if (!in->ok()) return Status::InvalidArgument("corrupt GBT: truncated");
  return Status::OK();
}

}  // namespace reds::ml
