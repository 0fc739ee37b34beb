#include "shard/coordinator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "core/prim_loop.h"
#include "ml/histogram.h"
#include "ml/flat_trees.h"
#include "shard/wire.h"

namespace reds::shard {

ShardCoordinator::ShardCoordinator(std::vector<int> worker_fds,
                                   StreamedBuildOptions options)
    : fds_(std::move(worker_fds)), options_(options) {
  assert(!fds_.empty());
}

Status ShardCoordinator::Broadcast(uint8_t type, const std::string& payload) {
  for (int fd : fds_) {
    Status s = WriteFrame(fd, static_cast<MsgType>(type), payload);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardCoordinator::Gather(uint8_t type,
                                std::vector<std::string>* payloads) {
  payloads->clear();
  payloads->reserve(fds_.size());
  for (int fd : fds_) {
    Result<Frame> frame = ExpectFrame(fd, static_cast<MsgType>(type));
    if (!frame.ok()) return frame.status();
    payloads->push_back(std::move(frame->payload));
  }
  return Status::OK();
}

Status ShardCoordinator::BuildGlobalBins() {
  const int cap = options_.max_bins;

  // Round 1: every worker sketches its shard; summaries fold in
  // worker-index order (deterministic even when a column overflowed into
  // its GK sketch, whose merge is order-dependent).
  util::ByteWriter req;
  req.I32(options_.block_rows);
  req.I32(cap);
  req.F64(options_.sketch_eps);
  Status s = Broadcast(static_cast<uint8_t>(MsgType::kSketchRequest),
                       req.data());
  if (!s.ok()) return s;
  std::vector<std::string> replies;
  s = Gather(static_cast<uint8_t>(MsgType::kSketchReply), &replies);
  if (!s.ok()) return s;

  int64_t n64 = 0;
  int m = -1;
  std::vector<ColumnSketch> acc;
  for (size_t w = 0; w < replies.size(); ++w) {
    util::ByteReader in(replies[w]);
    const int64_t n_w = static_cast<int64_t>(in.U64());
    const int m_w = in.I32();
    if (!in.ok() || n_w < 0 || m_w <= 0 || (m >= 0 && m_w != m)) {
      return Status::InvalidArgument(
          "shard coordinator: inconsistent sketch reply");
    }
    if (m < 0) {
      m = m_w;
      acc.assign(static_cast<size_t>(m), ColumnSketch(options_.sketch_eps));
    }
    n64 += n_w;
    for (int j = 0; j < m; ++j) {
      Result<ColumnSketch> cs = ColumnSketch::DeserializeFrom(&in);
      if (!cs.ok()) return cs.status();
      acc[static_cast<size_t>(j)].MergeFrom(*cs, cap);
    }
  }
  if (n64 == 0) return Status::InvalidArgument("sharded stream is empty");
  if (n64 > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("sharded stream exceeds 2^31 rows");
  }
  const int n = static_cast<int>(n64);

  // Global bin upper bounds via the exact BuildStreamed derivation.
  bool any_sketch = false;
  for (const ColumnSketch& cs : acc) any_sketch = any_sketch || cs.overflow;
  std::vector<std::vector<double>> upper =
      StreamedBinUpperBounds(&acc, n, cap);

  // Round 2: broadcast the bounds; every worker codes its rows against
  // them and ships its per-raw-bin coding stats; stats are additive.
  util::ByteWriter bins_msg;
  bins_msg.I32(m);
  for (int j = 0; j < m; ++j) bins_msg.VecF64(upper[static_cast<size_t>(j)]);
  s = Broadcast(static_cast<uint8_t>(MsgType::kBins), bins_msg.data());
  if (!s.ok()) return s;
  s = Gather(static_cast<uint8_t>(MsgType::kCodingReply), &replies);
  if (!s.ok()) return s;

  std::vector<BinCodingStats> stats(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    stats[static_cast<size_t>(j)].Reset(upper[static_cast<size_t>(j)].size());
  }
  for (size_t w = 0; w < replies.size(); ++w) {
    util::ByteReader in(replies[w]);
    const int64_t n_w = static_cast<int64_t>(in.U64());
    (void)n_w;
    for (int j = 0; j < m; ++j) {
      BinCodingStats part;
      part.count = in.VecI32();
      part.vmin = in.VecF64();
      part.vmax = in.VecF64();
      if (!in.ok() ||
          part.count.size() != upper[static_cast<size_t>(j)].size()) {
        return Status::InvalidArgument(
            "shard coordinator: bad coding stats reply");
      }
      stats[static_cast<size_t>(j)].MergeFrom(part);
    }
  }

  // Assemble the final layout from the fleet-summed stats -- the same
  // AssembleColumnBins call BuildStreamed makes per column, on identical
  // inputs, so the global layout equals the single-process one.
  bins_.num_rows = n;
  bins_.num_cols = m;
  bins_.kind = any_sketch ? BinnedIndex::BuildKind::kSketch
                          : BinnedIndex::BuildKind::kExactPack;
  bins_.num_bins.assign(static_cast<size_t>(m), 0);
  bins_.bin_first.assign(static_cast<size_t>(m), {});
  bins_.bin_last.assign(static_cast<size_t>(m), {});
  util::ByteWriter layout_msg;
  for (int j = 0; j < m; ++j) {
    ColumnBinLayout layout =
        AssembleColumnBins(stats[static_cast<size_t>(j)], n);
    layout_msg.I32(layout.live);
    layout_msg.VecU8(layout.remap);
    bins_.num_bins[static_cast<size_t>(j)] = layout.live;
    bins_.bin_first[static_cast<size_t>(j)] = std::move(layout.first);
    bins_.bin_last[static_cast<size_t>(j)] = std::move(layout.last);
  }
  s = Broadcast(static_cast<uint8_t>(MsgType::kLayout), layout_msg.data());
  if (!s.ok()) return s;
  return Gather(static_cast<uint8_t>(MsgType::kLayoutAck), &replies);
}

Status ShardCoordinator::RefreshAggregates(
    const std::vector<std::string>& payloads) {
  const int m = bins_.num_cols;
  box_n_ = 0;
  bin_count_.assign(static_cast<size_t>(m), {});
  bin_pos_.assign(static_cast<size_t>(m), {});
  for (int j = 0; j < m; ++j) {
    bin_count_[static_cast<size_t>(j)].assign(
        static_cast<size_t>(bins_.num_bins[static_cast<size_t>(j)]), 0);
    bin_pos_[static_cast<size_t>(j)].assign(
        static_cast<size_t>(bins_.num_bins[static_cast<size_t>(j)]), 0.0);
  }
  for (const std::string& payload : payloads) {
    util::ByteReader in(payload);
    box_n_ += static_cast<int64_t>(in.U64());
    for (int j = 0; j < m; ++j) {
      const std::vector<int> count = in.VecI32();
      const std::vector<double> pos = in.VecF64();
      if (!in.ok() ||
          count.size() != bin_count_[static_cast<size_t>(j)].size()) {
        return Status::InvalidArgument(
            "shard coordinator: bad aggregate reply");
      }
      for (size_t b = 0; b < count.size(); ++b) {
        bin_count_[static_cast<size_t>(j)][b] += count[b];
        bin_pos_[static_cast<size_t>(j)][b] += pos[b];
      }
    }
  }
  return Status::OK();
}

// The fleet peel state RunPeelingPhase drives. MakeCandidate is
// CodePeelState's integral-label candidate logic (MakeBinCut, from
// core/prim_loop.h), evaluated on the globally-summed aggregates (the
// candidate is a pure function of them, so no communication happens until
// a peel is applied). Apply is one broadcast + gather round: workers
// remove the peeled rows from their partition and reply with full updated
// local aggregates, which re-sum exactly (integer counts; {0,1} label
// masses).
struct FleetPeelState {
  ShardCoordinator* coord;
  Status error = Status::OK();

  int n() const { return static_cast<int>(coord->box_n_); }

  Peel MakeCandidate(int dim, bool low_side, double alpha,
                     const BoxStats& in_stats) const {
    Peel peel;
    const int n_box = n();
    const int k =
        std::max(1, static_cast<int>(std::floor(alpha * n_box)));
    if (k >= n_box) return peel;

    const GlobalBins& bins = coord->bins_;
    const size_t d = static_cast<size_t>(dim);
    const std::vector<int>& counts = coord->bin_count_[d];
    const BinCut cut = MakeBinCut(
        {counts.data(), coord->bin_pos_[d].data(), 0,
         static_cast<int>(counts.size()) - 1},
        n_box, k, low_side);
    if (cut.bin < 0) return peel;  // dimension is constant in box
    if (cut.removed >= n_box) return peel;

    const size_t b = static_cast<size_t>(cut.bin);
    peel.dim = dim;
    peel.low_side = low_side;
    peel.bound = low_side ? bins.bin_first[d][b] : bins.bin_last[d][b];
    peel.bin = cut.bin;
    peel.removed_n = cut.removed;
    peel.removed_pos = cut.removed_mass;
    peel.precision_after = (in_stats.n_pos - peel.removed_pos) /
                           (in_stats.n - peel.removed_n);
    return peel;
  }

  void Apply(const Peel& peel, BoxStats* stats) {
    util::ByteWriter msg;
    msg.I32(peel.dim);
    msg.U8(peel.low_side ? 1 : 0);
    msg.I32(peel.bin);
    Status s = coord->Broadcast(static_cast<uint8_t>(MsgType::kPeel),
                                msg.data());
    std::vector<std::string> replies;
    if (s.ok()) {
      s = coord->Gather(static_cast<uint8_t>(MsgType::kPeelReply), &replies);
    }
    if (s.ok()) s = coord->RefreshAggregates(replies);
    if (!s.ok()) {
      // Transport failure mid-peel: zero the state so the loop's next
      // candidate pass finds nothing and exits; RunPrim reports `error`.
      error = s;
      coord->box_n_ = 0;
      return;
    }
    stats->n -= peel.removed_n;
    stats->n_pos -= peel.removed_pos;
    if (coord->box_n_ != static_cast<int64_t>(stats->n)) {
      // A worker's reply disagrees with the peel it was sent: stop the
      // same way, rather than keep peeling on aggregates that no longer
      // add up.
      error = Status::RuntimeError(
          "shard coordinator: fleet aggregates hold " +
          std::to_string(coord->box_n_) + " in-box rows after a peel, the "
          "peel accounting " + std::to_string(static_cast<int64_t>(stats->n)));
      coord->box_n_ = 0;
    }
  }
};

Result<PrimResult> ShardCoordinator::RunPrim(const PrimConfig& config) {
  if (bins_.num_rows == 0) {
    return Status::FailedPrecondition(
        "ShardCoordinator::RunPrim before BuildGlobalBins");
  }
  Status s = Broadcast(static_cast<uint8_t>(MsgType::kPeelInit), "");
  if (!s.ok()) return s;
  std::vector<std::string> replies;
  s = Gather(static_cast<uint8_t>(MsgType::kPeelInitReply), &replies);
  if (!s.ok()) return s;

  // Workers prepend an integral-labels flag to the init aggregates; the
  // distributed candidate math is exact only for {0,1} labels.
  std::vector<std::string> aggregates;
  aggregates.reserve(replies.size());
  for (const std::string& reply : replies) {
    if (reply.empty()) {
      return Status::InvalidArgument("shard coordinator: empty peel init");
    }
    if (reply[0] == 0) {
      return Status::InvalidArgument(
          "sharded PRIM requires integral {0,1} labels");
    }
    aggregates.push_back(reply.substr(1));
  }
  s = RefreshAggregates(aggregates);
  if (!s.ok()) return s;
  if (box_n_ != bins_.num_rows) {
    return Status::InvalidArgument(
        "shard coordinator: init aggregates disagree with the row count");
  }

  double total_pos = 0.0;
  for (double p : bin_pos_[0]) total_pos += p;

  FleetPeelState state{this};
  PrimResult result =
      RunPeelingPhase(bins_.num_cols, static_cast<double>(bins_.num_rows),
                      total_pos, /*val=*/nullptr, config, &state);
  if (!state.error.ok()) return state.error;
  return result;
}

Result<ml::RegressionTree> ShardCoordinator::FitTree(
    const ml::TreeConfig& config) {
  if (bins_.num_rows == 0) {
    return Status::FailedPrecondition(
        "ShardCoordinator::FitTree before BuildGlobalBins");
  }
  if (config.backend != ml::SplitBackend::kHistogram) {
    return Status::InvalidArgument(
        "distributed tree fit supports the histogram backend only");
  }
  if (config.mtry > 0 && config.mtry < bins_.num_cols) {
    return Status::InvalidArgument(
        "distributed tree fit does not support mtry");
  }
  if (config.growth != ml::GrowthPolicy::kDepthWise) {
    return Status::InvalidArgument(
        "distributed tree fit grows depth-wise only");
  }

  Status s = Broadcast(static_cast<uint8_t>(MsgType::kTreeStart), "");
  if (!s.ok()) return s;
  std::vector<std::string> replies;
  s = Gather(static_cast<uint8_t>(MsgType::kTreeStartReply), &replies);
  if (!s.ok()) return s;
  Moments root;
  for (const std::string& reply : replies) {
    util::ByteReader in(reply);
    root.sum += in.F64();
    root.sum_sq += in.F64();
    root.count += static_cast<int64_t>(in.U64());
    if (!in.ok()) {
      return Status::InvalidArgument("shard coordinator: bad tree start");
    }
  }
  if (root.count != bins_.num_rows) {
    return Status::InvalidArgument(
        "shard coordinator: tree root count mismatch");
  }

  const int m = bins_.num_cols;
  // Built through the same flat-node API RegressionTree grows with, then
  // shipped through its wire layout so the result passes the same
  // validation as any loaded tree.
  ml::FlatTrees nodes;
  nodes.BeginTree();
  int next_seg = 1;
  std::vector<std::vector<ml::HistBin>> merged(static_cast<size_t>(m));
  std::vector<ml::HistBin> scratch;

  // The exact BuildHistogram recursion, with worker rounds in place of row
  // scans: node created before its children (same indices), stop rules on
  // fleet-exact moments, the shared split scan on fleet-merged histograms,
  // children left-then-right.
  std::function<Result<int>(int, const Moments&, int)> fit_node =
      [&](int seg, const Moments& mom, int depth) -> Result<int> {
    const int n = static_cast<int>(mom.count);
    const int node_index = nodes.AddNode(mom.sum / n);

    const bool depth_ok = config.max_depth < 0 || depth < config.max_depth;
    const double sse = mom.sum_sq - mom.sum * mom.sum / n;
    if (!depth_ok || n < config.min_samples_split || sse <= config.min_gain) {
      return node_index;
    }

    util::ByteWriter req;
    req.I32(seg);
    Status hs = Broadcast(static_cast<uint8_t>(MsgType::kTreeHist),
                          req.data());
    if (!hs.ok()) return hs;
    std::vector<std::string> hist_replies;
    hs = Gather(static_cast<uint8_t>(MsgType::kTreeHistReply), &hist_replies);
    if (!hs.ok()) return hs;
    for (int f = 0; f < m; ++f) {
      merged[static_cast<size_t>(f)].assign(
          static_cast<size_t>(bins_.num_bins[static_cast<size_t>(f)]),
          ml::HistBin{});
    }
    for (const std::string& reply : hist_replies) {
      util::ByteReader in(reply);
      for (int f = 0; f < m; ++f) {
        const int live = bins_.num_bins[static_cast<size_t>(f)];
        scratch.assign(static_cast<size_t>(live), ml::HistBin{});
        if (!ml::DeserializeHistogram(&in, scratch.data(), live)) {
          return Status::InvalidArgument(
              "shard coordinator: bad tree histogram reply");
        }
        ml::MergeHistogram(merged[static_cast<size_t>(f)].data(),
                           scratch.data(), live);
      }
    }

    // Serial feature order with a strict `gain >` -- exactly
    // BestSplitOverFeatures' merge discipline over the full feature set.
    ml::HistogramSplit best;
    best.gain = 0.0;
    for (int f = 0; f < m; ++f) {
      const ml::HistogramSplit cand = ml::ScanHistogramSplits(
          merged[static_cast<size_t>(f)].data(),
          bins_.num_bins[static_cast<size_t>(f)], f, mom.sum, n,
          config.min_samples_leaf, 0.0,
          [&](int b) {
            return bins_.bin_first[static_cast<size_t>(f)]
                                  [static_cast<size_t>(b)];
          },
          [&](int b) {
            return bins_.bin_last[static_cast<size_t>(f)]
                                 [static_cast<size_t>(b)];
          });
      if (cand.feature >= 0 && cand.gain > best.gain) best = cand;
    }
    if (best.feature < 0 || best.gain <= config.min_gain) return node_index;
    if (best.left_count == 0 || best.left_count == n) return node_index;

    const int left_seg = next_seg++;
    const int right_seg = next_seg++;
    util::ByteWriter split;
    split.I32(seg);
    split.I32(left_seg);
    split.I32(right_seg);
    split.I32(best.feature);
    split.I32(best.boundary_bin);
    hs = Broadcast(static_cast<uint8_t>(MsgType::kTreeSplit), split.data());
    if (!hs.ok()) return hs;
    std::vector<std::string> split_replies;
    hs = Gather(static_cast<uint8_t>(MsgType::kTreeSplitReply),
                &split_replies);
    if (!hs.ok()) return hs;
    Moments left_mom, right_mom;
    for (const std::string& reply : split_replies) {
      util::ByteReader in(reply);
      left_mom.sum += in.F64();
      left_mom.sum_sq += in.F64();
      left_mom.count += static_cast<int64_t>(in.U64());
      right_mom.sum += in.F64();
      right_mom.sum_sq += in.F64();
      right_mom.count += static_cast<int64_t>(in.U64());
      if (!in.ok()) {
        return Status::InvalidArgument(
            "shard coordinator: bad tree split reply");
      }
    }
    if (left_mom.count + right_mom.count != n ||
        left_mom.count != best.left_count) {
      return Status::InvalidArgument(
          "shard coordinator: tree split counts drifted (non-exact-pack "
          "bins?)");
    }

    Result<int> left = fit_node(left_seg, left_mom, depth + 1);
    if (!left.ok()) return left;
    Result<int> right = fit_node(right_seg, right_mom, depth + 1);
    if (!right.ok()) return right;
    nodes.SetSplit(node_index, best.feature, best.threshold, *left, *right);
    return node_index;
  };

  Result<int> fit = fit_node(0, root, 0);
  Status finish = Broadcast(static_cast<uint8_t>(MsgType::kTreeFinish), "");
  if (!fit.ok()) return fit.status();
  if (!finish.ok()) return finish;

  nodes.FinishTree();
  util::ByteWriter wire;
  nodes.SerializeTree(0, &wire);
  util::ByteReader reader(wire.data());
  ml::RegressionTree tree;
  Status parse = tree.DeserializeFrom(&reader, m);
  if (!parse.ok()) return parse;
  return tree;
}

Result<std::unique_ptr<ml::Metamodel>> ShardCoordinator::TuneAndFitSharded(
    ml::MetamodelKind kind, const Dataset& d, uint64_t seed,
    const ml::TuningConfig& config) {
  const int grid = ml::TuningGridSize(kind, d.num_cols(), config);
  if (grid <= 0) return Status::InvalidArgument("empty tuning grid");
  const int W = num_workers();

  // D is small (the paper's N ~ 1e3 design sample): ship it whole so each
  // worker evaluates its cells with full-data CV, exactly as TuneAndFit
  // would inline.
  std::vector<double> x;
  std::vector<double> y;
  x.reserve(static_cast<size_t>(d.num_rows()) * d.num_cols());
  y.reserve(static_cast<size_t>(d.num_rows()));
  for (int r = 0; r < d.num_rows(); ++r) {
    const double* row = d.row(r);
    x.insert(x.end(), row, row + d.num_cols());
    y.push_back(d.y(r));
  }

  for (int w = 0; w < W; ++w) {
    std::vector<int> cells;
    for (int g = w; g < grid; g += W) cells.push_back(g);
    util::ByteWriter msg;
    msg.U8(static_cast<uint8_t>(kind));
    msg.U64(seed);
    msg.U8(static_cast<uint8_t>(config.budget));
    msg.I32(config.folds);
    msg.U8(static_cast<uint8_t>(config.backend));
    msg.U8(static_cast<uint8_t>(config.growth));
    msg.I32(config.max_leaves);
    msg.I32(d.num_cols());
    msg.VecF64(x);
    msg.VecF64(y);
    msg.VecI32(cells);
    Status s = WriteFrame(fds_[static_cast<size_t>(w)], MsgType::kTuneCells,
                          msg.data());
    if (!s.ok()) return s;
  }

  std::vector<double> losses(static_cast<size_t>(grid),
                             std::numeric_limits<double>::infinity());
  for (int w = 0; w < W; ++w) {
    Result<Frame> frame =
        ExpectFrame(fds_[static_cast<size_t>(w)], MsgType::kTuneReply);
    if (!frame.ok()) return frame.status();
    util::ByteReader in(frame->payload);
    const uint64_t count = in.U64();
    for (uint64_t i = 0; i < count && in.ok(); ++i) {
      const int cell = in.I32();
      const double loss = in.F64();
      if (cell < 0 || cell >= grid) {
        return Status::InvalidArgument("shard coordinator: bad tune cell");
      }
      losses[static_cast<size_t>(cell)] = loss;
    }
    if (!in.ok()) {
      return Status::InvalidArgument("shard coordinator: bad tune reply");
    }
  }

  // First-wins argmin in cell order == TuneAndFit's `loss < best_loss` over
  // the same grid enumeration.
  double best_loss = std::numeric_limits<double>::infinity();
  int best = 0;
  for (int g = 0; g < grid; ++g) {
    if (losses[static_cast<size_t>(g)] < best_loss) {
      best_loss = losses[static_cast<size_t>(g)];
      best = g;
    }
  }
  return ml::TuningCellFit(kind, best, d, seed, config);
}

Status ShardCoordinator::CollectMetrics(obs::MetricsRegistry* registry) {
  Status s = Broadcast(static_cast<uint8_t>(MsgType::kMetricsRequest), "");
  if (!s.ok()) return s;
  std::vector<std::string> replies;
  s = Gather(static_cast<uint8_t>(MsgType::kMetricsReply), &replies);
  if (!s.ok()) return s;
  for (const std::string& reply : replies) {
    util::ByteReader in(reply);
    obs::RegistrySnapshot snapshot;
    if (!obs::RegistrySnapshot::DeserializeFrom(&in, &snapshot)) {
      return Status::InvalidArgument(
          "shard coordinator: bad metrics snapshot");
    }
    registry->MergeSnapshot(snapshot);
  }
  registry->gauge("shard.coordinator.workers")->Set(num_workers());
  registry->counter("shard.coordinator.metric_folds")
      ->Add(static_cast<uint64_t>(replies.size()));
  return Status::OK();
}

Status ShardCoordinator::Shutdown() {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  return Broadcast(static_cast<uint8_t>(MsgType::kShutdown), "");
}

}  // namespace reds::shard
