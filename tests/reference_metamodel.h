// Test-only per-row inference oracle for the metamodels. It re-reads a
// model's ml::SerializeMetamodel bytes -- the stable wire form, independent
// of the in-memory layout -- and evaluates it the textbook way, one row at
// a time: walk every tree from its root and add the leaves in tree order;
// sum the RBF-SVM kernel terms in support-vector order. The library's block
// kernels must reproduce it bit for bit.
#ifndef REDS_TESTS_REFERENCE_METAMODEL_H_
#define REDS_TESTS_REFERENCE_METAMODEL_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ml/model.h"
#include "util/serialize.h"

namespace reds::reference {

struct OracleNode {
  int feature;
  double threshold;
  int left;
  int right;
  double leaf;
};

inline std::vector<OracleNode> ReadOracleTree(util::ByteReader* in) {
  std::vector<OracleNode> nodes(static_cast<size_t>(in->U64()));
  for (OracleNode& nd : nodes) {
    nd.feature = in->I32();
    nd.threshold = in->F64();
    nd.left = in->I32();
    nd.right = in->I32();
    nd.leaf = in->F64();
  }
  return nodes;
}

inline double WalkOracleTree(const std::vector<OracleNode>& nodes,
                             const double* x) {
  size_t k = 0;
  while (nodes[k].feature >= 0) {
    k = static_cast<size_t>(x[nodes[k].feature] <= nodes[k].threshold
                                ? nodes[k].left
                                : nodes[k].right);
  }
  return nodes[k].leaf;
}

class MetamodelOracle {
 public:
  MetamodelOracle(ml::MetamodelKind kind, const std::string& bytes)
      : kind_(kind) {
    util::ByteReader in(bytes);
    const bool tag_ok = in.U8() == static_cast<uint8_t>(kind);
    num_features_ = in.I32();
    if (kind == ml::MetamodelKind::kSvm) {
      gamma_ = in.F64();
      bias_ = in.F64();
      support_.resize(static_cast<size_t>(in.U64()));
      for (std::vector<double>& sv : support_) sv = in.VecF64();
      coef_ = in.VecF64();
    } else {
      if (kind == ml::MetamodelKind::kGbt) base_ = in.F64();
      trees_.resize(static_cast<size_t>(in.U64()));
      for (std::vector<OracleNode>& tree : trees_) tree = ReadOracleTree(&in);
    }
    ok_ = tag_ok && in.ok();
  }

  double Predict(const double* x) const {
    switch (kind_) {
      case ml::MetamodelKind::kRandomForest: {
        double sum = 0.0;
        for (const auto& tree : trees_) sum += WalkOracleTree(tree, x);
        return std::clamp(sum / static_cast<double>(trees_.size()), 0.0, 1.0);
      }
      case ml::MetamodelKind::kGbt: {
        double margin = base_;
        for (const auto& tree : trees_) margin += WalkOracleTree(tree, x);
        return 1.0 / (1.0 + std::exp(-margin));
      }
      case ml::MetamodelKind::kSvm: {
        double decision = bias_;
        for (size_t i = 0; i < support_.size(); ++i) {
          double dist = 0.0;
          for (int j = 0; j < num_features_; ++j) {
            const double diff = support_[i][static_cast<size_t>(j)] - x[j];
            dist += diff * diff;
          }
          decision += coef_[i] * std::exp(-gamma_ * dist);
        }
        return 1.0 / (1.0 + std::exp(-3.0 * decision));
      }
    }
    return 0.0;
  }

  /// False when the bytes did not parse.
  bool ok() const { return ok_; }

  /// Every split (feature, threshold) of the tree models.
  std::vector<std::pair<int, double>> Splits() const {
    std::vector<std::pair<int, double>> out;
    for (const auto& tree : trees_) {
      for (const OracleNode& nd : tree) {
        if (nd.feature >= 0) out.emplace_back(nd.feature, nd.threshold);
      }
    }
    return out;
  }

 private:
  ml::MetamodelKind kind_;
  bool ok_ = false;
  int num_features_ = 0;
  double base_ = 0.0;
  std::vector<std::vector<OracleNode>> trees_;
  double gamma_ = 0.0;
  double bias_ = 0.0;
  std::vector<std::vector<double>> support_;
  std::vector<double> coef_;
};

}  // namespace reds::reference

#endif  // REDS_TESTS_REFERENCE_METAMODEL_H_
