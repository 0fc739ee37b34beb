#include "ml/flat_trees.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace reds::ml {

namespace {

// Rows advanced together through one tree: their node indexes stay in
// registers/L1 next to the tree, and a tile of model inputs (128 rows x M
// doubles) stays cache-resident while every tree sweeps it.
constexpr int kTileRows = 128;

}  // namespace

void FlatTrees::BeginTree() { root_.push_back(num_nodes()); }

int FlatTrees::AddNode(double leaf) {
  assert(!root_.empty());
  const int index = num_nodes();
  feature_.push_back(-1);
  threshold_.push_back(0.0);
  left_.push_back(index);
  right_.push_back(index);
  leaf_.push_back(leaf);
  return index - root_.back();
}

void FlatTrees::SetSplit(int node, int feature, double threshold, int left,
                         int right) {
  assert(!root_.empty() && feature >= 0);
  const int root = root_.back();
  const size_t k = static_cast<size_t>(root + node);
  feature_[k] = feature;
  threshold_[k] = threshold;
  left_[k] = root + left;
  right_[k] = root + right;
}

void FlatTrees::FinishTree() {
  assert(depth_.size() + 1 == root_.size());
  const int root = root_.back();
  // Children always follow their parent, so one forward pass settles every
  // node's depth (max over parents, in case a loaded tree shares nodes).
  std::vector<int> node_depth(static_cast<size_t>(num_nodes() - root), 0);
  int deepest = 0;
  for (int k = root; k < num_nodes(); ++k) {
    if (feature_[static_cast<size_t>(k)] < 0) continue;
    const int child_depth = node_depth[static_cast<size_t>(k - root)] + 1;
    for (const int child : {left_[static_cast<size_t>(k)],
                            right_[static_cast<size_t>(k)]}) {
      int& d = node_depth[static_cast<size_t>(child - root)];
      d = std::max(d, child_depth);
      deepest = std::max(deepest, d);
    }
  }
  depth_.push_back(deepest);
}

void FlatTrees::Append(const FlatTrees& other) {
  assert(other.depth_.size() == other.root_.size());
  const int offset = num_nodes();
  feature_.insert(feature_.end(), other.feature_.begin(), other.feature_.end());
  threshold_.insert(threshold_.end(), other.threshold_.begin(),
                    other.threshold_.end());
  leaf_.insert(leaf_.end(), other.leaf_.begin(), other.leaf_.end());
  for (const int k : other.left_) left_.push_back(k + offset);
  for (const int k : other.right_) right_.push_back(k + offset);
  for (const int k : other.root_) root_.push_back(k + offset);
  depth_.insert(depth_.end(), other.depth_.begin(), other.depth_.end());
}

void FlatTrees::Reserve(int trees, int nodes) {
  const size_t n = static_cast<size_t>(nodes);
  feature_.reserve(n);
  threshold_.reserve(n);
  left_.reserve(n);
  right_.reserve(n);
  leaf_.reserve(n);
  root_.reserve(static_cast<size_t>(trees));
  depth_.reserve(static_cast<size_t>(trees));
}

void FlatTrees::ShrinkToFit() {
  feature_.shrink_to_fit();
  threshold_.shrink_to_fit();
  left_.shrink_to_fit();
  right_.shrink_to_fit();
  leaf_.shrink_to_fit();
  root_.shrink_to_fit();
  depth_.shrink_to_fit();
}

void FlatTrees::Clear() { *this = FlatTrees(); }

int FlatTrees::TreeEnd(int t) const {
  return t + 1 < num_trees() ? root_[static_cast<size_t>(t) + 1]
                             : num_nodes();
}

int FlatTrees::num_leaves(int t) const {
  int count = 0;
  for (int k = root_[static_cast<size_t>(t)]; k < TreeEnd(t); ++k) {
    count += feature_[static_cast<size_t>(k)] < 0 ? 1 : 0;
  }
  return count;
}

void FlatTrees::AccumulateLeaves(int tree_begin, int tree_end,
                                 const double* x, int rows, int stride,
                                 double* out) const {
  assert(tree_begin >= 0 && tree_begin <= tree_end &&
         tree_end <= num_trees() && depth_.size() == root_.size());
  const int* feature = feature_.data();
  const double* threshold = threshold_.data();
  const int* left = left_.data();
  const int* right = right_.data();
  int node[kTileRows];
  for (int r0 = 0; r0 < rows; r0 += kTileRows) {
    const int n = std::min(kTileRows, rows - r0);
    const double* tile = x + static_cast<size_t>(r0) * stride;
    for (int t = tree_begin; t < tree_end; ++t) {
      std::fill(node, node + n, root_[static_cast<size_t>(t)]);
      for (int level = depth_[static_cast<size_t>(t)]; level > 0; --level) {
        for (int r = 0; r < n; ++r) {
          const int k = node[r];
          // Leaves (negative feature) read column 0 and stay put: both
          // their children are themselves. The child is picked with a mask,
          // not a conditional, so the compiler keeps the sweep branch-free.
          const int f = std::max(feature[k], 0);
          const bool go_left =
              tile[static_cast<size_t>(r) * stride + f] <= threshold[k];
          const int right_mask = static_cast<int>(go_left) - 1;  // 0 or ~0
          node[r] = left[k] ^ ((left[k] ^ right[k]) & right_mask);
        }
      }
      for (int r = 0; r < n; ++r) {
        out[r0 + r] += leaf_[static_cast<size_t>(node[r])];
      }
    }
  }
}

void FlatTrees::SerializeTree(int t, util::ByteWriter* out) const {
  const int root = root_[static_cast<size_t>(t)];
  const int end = TreeEnd(t);
  out->U64(static_cast<uint64_t>(end - root));
  for (int k = root; k < end; ++k) {
    const size_t i = static_cast<size_t>(k);
    const bool leaf = feature_[i] < 0;
    out->I32(feature_[i]);
    out->F64(threshold_[i]);
    out->I32(leaf ? -1 : left_[i] - root);
    out->I32(leaf ? -1 : right_[i] - root);
    out->F64(leaf_[i]);
  }
}

Status FlatTrees::DeserializeTree(util::ByteReader* in, int num_features,
                                  const char* what) {
  const auto corrupt = [what](const char* detail) {
    return Status::InvalidArgument(std::string("corrupt ") + what + ": " +
                                   detail);
  };
  const uint64_t count = in->U64();
  // A node costs 28 bytes on the wire (i32 + f64 + i32 + i32 + f64); an
  // impossible count means a corrupted length, not a huge allocation. A
  // zero count is equally hostile: every fitted tree has at least its
  // root, and the kernel unconditionally starts at it.
  if (!in->ok() || count == 0 || count > in->remaining() / 28) {
    return corrupt("node count");
  }
  const int n = static_cast<int>(count);
  const size_t before = feature_.size();
  const auto rollback = [&] {
    feature_.resize(before);
    threshold_.resize(before);
    left_.resize(before);
    right_.resize(before);
    leaf_.resize(before);
    root_.pop_back();
  };
  BeginTree();
  const int root = root_.back();
  for (int i = 0; i < n; ++i) {
    feature_.push_back(in->I32());
    threshold_.push_back(in->F64());
    left_.push_back(in->I32());
    right_.push_back(in->I32());
    leaf_.push_back(in->F64());
  }
  if (!in->ok()) {
    rollback();
    return corrupt("truncated");
  }
  for (int i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(root + i);
    if (feature_[k] < 0) {
      left_[k] = right_[k] = root + i;  // leaf: the kernel's fixed point
      continue;
    }
    if (feature_[k] >= num_features) {
      rollback();
      return corrupt("feature index");
    }
    if (left_[k] <= i || left_[k] >= n || right_[k] <= i || right_[k] >= n) {
      rollback();
      return corrupt("child index");
    }
    left_[k] += root;
    right_[k] += root;
  }
  FinishTree();
  return Status::OK();
}

}  // namespace reds::ml
