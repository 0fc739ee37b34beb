// Flat structure-of-arrays storage for regression trees, and the one
// inference kernel every tree model runs. A single RegressionTree, a random
// forest and a boosted ensemble all keep their nodes here: per node a split
// feature, a threshold, two child indexes and one leaf payload double (the
// CART leaf mean resp. the GBT leaf weight), with the trees laid end to end.
//
// Inference is block-at-a-time and level-synchronous: for a tile of rows,
// each tree advances every row one level per sweep, for exactly the tree's
// depth; leaves point at themselves, so rows that reach a leaf early stay
// put. The sweeps carry no data-dependent branch and the rows of a sweep are
// independent, which keeps one tree in L1 and the pipeline full instead of
// stalling on one row's pointer chase (the block-traversal idea of
// QuickScorer, Lucchese et al., SIGIR 2015). Each row's leaf values are
// added to its output in tree order, the same additions a per-row walk
// makes, so results are bit-identical to it for any block size.
//
// The wire layout (28 bytes per node, tree-local child indexes, -1 children
// on leaves) and its hostile-payload validation live here too: split
// features in [0, num_features) and strictly-forward children (every fit
// path appends children after their parent), which makes the kernel
// provably terminating and in bounds even on checksum-valid forged files.
#ifndef REDS_ML_FLAT_TREES_H_
#define REDS_ML_FLAT_TREES_H_

#include <vector>

#include "util/serialize.h"
#include "util/status.h"

namespace reds::ml {

class FlatTrees {
 public:
  // --- Construction: one tree at a time, appended after the existing ones.
  // Node indexes passed to and returned by AddNode/SetSplit are local to
  // the open tree (its root is node 0).

  /// Opens a new, empty tree.
  void BeginTree();
  /// Appends a leaf carrying `leaf` to the open tree; returns its index.
  int AddNode(double leaf);
  /// Turns node `node` of the open tree into a split: rows with
  /// x[feature] <= threshold continue at `left`, all others at `right`.
  /// The node keeps its leaf payload, which is still serialized with it.
  void SetSplit(int node, int feature, double threshold, int left, int right);
  /// Closes the open tree (records the depth the kernel sweeps).
  void FinishTree();
  /// Appends every tree of `other`.
  void Append(const FlatTrees& other);
  /// Sizes the storage for `trees` trees of `nodes` nodes in total, so a
  /// sequence of Appends allocates once.
  void Reserve(int trees, int nodes);
  /// Drops the growth slack of a finished ensemble (models stay resident
  /// in caches for many requests).
  void ShrinkToFit();
  void Clear();

  int num_trees() const { return static_cast<int>(root_.size()); }
  int num_nodes() const { return static_cast<int>(feature_.size()); }
  bool empty() const { return root_.empty(); }
  /// Leaves and depth (edges on the longest root-to-leaf path) of tree t.
  int num_leaves(int t) const;
  int depth(int t) const { return depth_[static_cast<size_t>(t)]; }

  /// For every row r of the row-major block `x` (`rows` rows, `stride`
  /// doubles apart) and every tree t in [tree_begin, tree_end), in tree
  /// order: out[r] += leaf value of the leaf t routes row r to.
  void AccumulateLeaves(int tree_begin, int tree_end, const double* x,
                        int rows, int stride, double* out) const;

  /// Appends tree t in the stable little-endian cache layout.
  void SerializeTree(int t, util::ByteWriter* out) const;
  /// Reads one tree written by SerializeTree and appends it, validating
  /// node count, feature range and child order; `what` names the model in
  /// error messages.
  Status DeserializeTree(util::ByteReader* in, int num_features,
                         const char* what);

 private:
  int TreeEnd(int t) const;

  std::vector<int> feature_;       // split feature; negative on leaves
  std::vector<double> threshold_;  // go left iff x[feature] <= threshold
  std::vector<int> left_;          // absolute node index; a leaf points
  std::vector<int> right_;         // at itself on both sides
  std::vector<double> leaf_;       // leaf payload (kept on split nodes too)
  std::vector<int> root_;          // [tree] first node
  std::vector<int> depth_;         // [tree] longest root-to-leaf path
};

}  // namespace reds::ml

#endif  // REDS_ML_FLAT_TREES_H_
