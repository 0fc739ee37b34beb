// Sharded discovery: wire framing, the deterministic shard source, and the
// coordinator/worker fleet's bit-identity contract against the
// single-process streamed kernels -- global bins, PRIM box sequences, the
// distributed histogram tree fit, sharded CV tuning, and fleet metrics
// folding. Workers run as in-process threads over socketpairs (the engine
// transport); the multi-process UNIX-socket path is exercised by the CI
// smoke on examples/shard_worker.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/binned_index.h"
#include "core/dataset_source.h"
#include "core/prim.h"
#include "ml/cart.h"
#include "ml/serialize.h"
#include "ml/tuning.h"
#include "obs/metrics.h"
#include "shard/coordinator.h"
#include "shard/source_spec.h"
#include "shard/wire.h"
#include "shard/worker.h"
#include "util/rng.h"

namespace reds::shard {
namespace {

SourceSpec TestSpec() {
  SourceSpec spec;
  spec.kind = SourceSpec::Kind::kSynthetic;
  spec.block_rows = 512;
  spec.rows = 20000;
  spec.dims = 3;
  spec.distinct = 16;  // well under the bin cap: exact-pack regime
  spec.seed = 11;
  return spec;
}

// Forwards frames from `from` to `to` until a read or write fails or a
// kShutdown has passed. With `stale_peel`, every kPeelReply is replaced by
// the aggregates of the last kPeelInitReply: the worker behind it claims
// that no row ever left its box, whatever the peels removed.
void Pump(int from, int to, bool stale_peel) {
  std::string init_aggregates;
  for (;;) {
    Result<Frame> frame = ReadFrame(from);
    if (!frame.ok()) return;
    if (frame->type == MsgType::kPeelInitReply) {
      init_aggregates = frame->payload.substr(1);  // drop the labels flag
    } else if (stale_peel && frame->type == MsgType::kPeelReply) {
      frame->payload = init_aggregates;
    }
    if (!WriteFrame(to, frame->type, frame->payload).ok()) return;
    if (frame->type == MsgType::kShutdown) return;
  }
}

// An in-process worker fleet over socketpairs: one thread per worker, each
// serving its stride of the synthetic stream. The coordinator side runs in
// the test body against coordinator_fds(). With `stale_first_worker`,
// worker 0 talks through a pair of Pump threads that turn its peel replies
// stale.
class Fleet {
 public:
  Fleet(const SourceSpec& spec, int workers, bool stale_first_worker = false)
      : statuses_(workers) {
    for (int w = 0; w < workers; ++w) {
      int sv[2];
      EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      coordinator_fds_.push_back(sv[0]);
      worker_fds_.push_back(sv[1]);
    }
    for (int w = 0; w < workers; ++w) {
      int serve_fd = worker_fds_[static_cast<size_t>(w)];
      if (w == 0 && stale_first_worker) {
        int proxy[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, proxy), 0);
        proxy_fds_ = {proxy[0], proxy[1]};
        threads_.emplace_back(Pump, serve_fd, proxy[0], false);
        threads_.emplace_back(Pump, proxy[0], serve_fd, true);
        serve_fd = proxy[1];
      }
      threads_.emplace_back([this, spec, workers, w, serve_fd] {
        SyntheticBlockSource source(spec, workers, w);
        statuses_[static_cast<size_t>(w)] = RunShardWorker(serve_fd, &source);
        // Ends the reply pump, if any, once the worker is gone.
        ::shutdown(serve_fd, SHUT_RDWR);
      });
    }
  }

  ~Fleet() {
    for (std::thread& t : threads_) t.join();
    for (int fd : coordinator_fds_) ::close(fd);
    for (int fd : worker_fds_) ::close(fd);
    for (int fd : proxy_fds_) ::close(fd);
    for (const Status& s : statuses_) EXPECT_TRUE(s.ok()) << s.ToString();
  }

  const std::vector<int>& coordinator_fds() const { return coordinator_fds_; }

 private:
  std::vector<int> coordinator_fds_;
  std::vector<int> worker_fds_;
  std::vector<int> proxy_fds_;
  std::vector<std::thread> threads_;
  std::vector<Status> statuses_;
};

StreamedBuildOptions BuildOptions(const SourceSpec& spec) {
  StreamedBuildOptions options;
  options.block_rows = spec.block_rows;
  return options;
}

// The single-process reference: BuildStreamed over the whole stream.
StreamedDataset SingleProcessBuild(const SourceSpec& spec) {
  SyntheticBlockSource source(spec, 1, 0);
  Result<StreamedDataset> data =
      BinnedIndex::BuildStreamed(&source, BuildOptions(spec));
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return *std::move(data);
}

TEST(ShardWireTest, FrameRoundTrip) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string payload = "hello shard";
  ASSERT_TRUE(WriteFrame(sv[0], MsgType::kBins, payload).ok());
  Result<Frame> frame = ReadFrame(sv[1]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, MsgType::kBins);
  EXPECT_EQ(frame->payload, payload);

  // Empty payloads round-trip too.
  ASSERT_TRUE(WriteFrame(sv[1], MsgType::kLayoutAck, std::string()).ok());
  frame = ExpectFrame(sv[0], MsgType::kLayoutAck);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->payload.empty());

  // Type mismatch is an IoError, not a crash.
  ASSERT_TRUE(WriteFrame(sv[0], MsgType::kPeel, "x").ok());
  EXPECT_FALSE(ExpectFrame(sv[1], MsgType::kShutdown).ok());

  // A declared length above the cap is refused before any allocation.
  ASSERT_TRUE(WriteFrame(sv[0], MsgType::kPeel, "abc").ok());
  EXPECT_FALSE(ReadFrame(sv[1], /*max_payload=*/2).ok());

  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ShardWireTest, EofIsIoError) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[0]);
  EXPECT_FALSE(ReadFrame(sv[1]).ok());
  ::close(sv[1]);
}

TEST(ShardSourceTest, SpecSerializationRoundTrips) {
  SourceSpec spec = TestSpec();
  spec.path = "ignored-for-synthetic";
  util::ByteWriter out;
  spec.SerializeTo(&out);
  util::ByteReader in(out.data());
  Result<SourceSpec> parsed = SourceSpec::DeserializeFrom(&in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, spec.kind);
  EXPECT_EQ(parsed->block_rows, spec.block_rows);
  EXPECT_EQ(parsed->rows, spec.rows);
  EXPECT_EQ(parsed->dims, spec.dims);
  EXPECT_EQ(parsed->distinct, spec.distinct);
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->path, spec.path);

  // Invalid geometry is rejected on parse.
  SourceSpec bad = TestSpec();
  bad.distinct = 1;
  util::ByteWriter bad_out;
  bad.SerializeTo(&bad_out);
  util::ByteReader bad_in(bad_out.data());
  EXPECT_FALSE(SourceSpec::DeserializeFrom(&bad_in).ok());
}

TEST(ShardSourceTest, ShardUnionReassemblesSingleStream) {
  const SourceSpec spec = TestSpec();
  const int workers = 3;

  // Pull every shard's blocks; shard w owns global blocks w, w+W, ...
  const int64_t num_blocks =
      (spec.rows + spec.block_rows - 1) / spec.block_rows;
  std::vector<std::vector<double>> block_x(static_cast<size_t>(num_blocks));
  std::vector<std::vector<double>> block_y(static_cast<size_t>(num_blocks));
  int64_t union_rows = 0;
  for (int w = 0; w < workers; ++w) {
    SyntheticBlockSource source(spec, workers, w);
    int64_t b = w;
    for (;;) {
      Result<RowBlock> block = source.NextBlock(spec.block_rows);
      ASSERT_TRUE(block.ok());
      if (block->empty()) break;
      ASSERT_LT(b, num_blocks);
      const int rows = block->num_rows();
      union_rows += rows;
      block_x[static_cast<size_t>(b)].assign(
          block->x.data(), block->x.data() + rows * spec.dims);
      block_y[static_cast<size_t>(b)].assign(block->y, block->y + rows);
      b += workers;
    }
  }
  EXPECT_EQ(union_rows, spec.rows);

  // Reassembled in block order, the union is byte-for-byte the 1-shard
  // stream.
  SyntheticBlockSource single(spec, 1, 0);
  for (int64_t b = 0; b < num_blocks; ++b) {
    Result<RowBlock> block = single.NextBlock(spec.block_rows);
    ASSERT_TRUE(block.ok());
    ASSERT_FALSE(block->empty());
    const int rows = block->num_rows();
    ASSERT_EQ(block_x[static_cast<size_t>(b)].size(),
              static_cast<size_t>(rows * spec.dims));
    for (int i = 0; i < rows * spec.dims; ++i) {
      ASSERT_EQ(block->x.data()[i], block_x[static_cast<size_t>(b)][i]);
    }
    for (int r = 0; r < rows; ++r) {
      ASSERT_EQ(block->y[r], block_y[static_cast<size_t>(b)][r]);
    }
  }
}

TEST(ShardSourceTest, WrongBlockSizeIsRejected) {
  const SourceSpec spec = TestSpec();
  SyntheticBlockSource source(spec, 1, 0);
  EXPECT_FALSE(source.NextBlock(spec.block_rows + 1).ok());
}

// Satellite: global bins are identical whatever the partition -- any
// worker count derives the same bins as the single-process build, because
// exact (value, count) summary merges are sorted multiset unions.
TEST(ShardFleetTest, GlobalBinsMatchSingleProcessForAnyWorkerCount) {
  const SourceSpec spec = TestSpec();
  const StreamedDataset reference = SingleProcessBuild(spec);
  ASSERT_EQ(reference.index->kind(), BinnedIndex::BuildKind::kExactPack);

  for (int workers : {1, 2, 3}) {
    Fleet fleet(spec, workers);
    ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
    ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
    const GlobalBins& bins = coordinator.bins();
    EXPECT_EQ(bins.num_rows, reference.index->num_rows());
    EXPECT_EQ(bins.num_cols, reference.index->num_cols());
    EXPECT_EQ(bins.kind, reference.index->kind());
    for (int j = 0; j < bins.num_cols; ++j) {
      ASSERT_EQ(bins.num_bins[static_cast<size_t>(j)],
                reference.index->num_bins(j))
          << "col " << j << " workers " << workers;
      for (int b = 0; b < bins.num_bins[static_cast<size_t>(j)]; ++b) {
        EXPECT_EQ(bins.bin_first[static_cast<size_t>(j)][static_cast<size_t>(b)],
                  reference.index->bin_first(j, b));
        EXPECT_EQ(bins.bin_last[static_cast<size_t>(j)][static_cast<size_t>(b)],
                  reference.index->bin_last(j, b));
      }
    }
    EXPECT_TRUE(coordinator.Shutdown().ok());
  }
}

// A 1-worker fleet folds its blocks' summaries exactly as BuildStreamed
// does, so even in the sketch regime (256 grid values over a 64-bin cap)
// its global bins equal the single-process build's.
TEST(ShardFleetTest, OneWorkerSketchRegimeMatchesSingleProcess) {
  SourceSpec spec = TestSpec();
  spec.distinct = 256;
  StreamedBuildOptions options = BuildOptions(spec);
  options.max_bins = 64;
  SyntheticBlockSource source(spec, 1, 0);
  Result<StreamedDataset> reference =
      BinnedIndex::BuildStreamed(&source, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->index->kind(), BinnedIndex::BuildKind::kSketch);

  Fleet fleet(spec, 1);
  ShardCoordinator coordinator(fleet.coordinator_fds(), options);
  ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
  const GlobalBins& bins = coordinator.bins();
  EXPECT_EQ(bins.kind, reference->index->kind());
  ASSERT_EQ(bins.num_cols, reference->index->num_cols());
  for (int j = 0; j < bins.num_cols; ++j) {
    ASSERT_EQ(bins.num_bins[static_cast<size_t>(j)],
              reference->index->num_bins(j));
    for (int b = 0; b < bins.num_bins[static_cast<size_t>(j)]; ++b) {
      EXPECT_EQ(bins.bin_first[static_cast<size_t>(j)][static_cast<size_t>(b)],
                reference->index->bin_first(j, b));
      EXPECT_EQ(bins.bin_last[static_cast<size_t>(j)][static_cast<size_t>(b)],
                reference->index->bin_last(j, b));
    }
  }
  EXPECT_TRUE(coordinator.Shutdown().ok());
}

// Satellite: the coordinator folds worker sketch summaries in worker-index
// order, but in the exact regime the fold is order-invariant -- any
// arrival order yields the same global bin bounds.
TEST(ShardFleetTest, ExactSummaryFoldIsOrderInvariant) {
  const int cap = 64;
  const double eps = 1.0 / 2048.0;
  Rng rng(99);
  std::vector<ColumnSketch> parts;
  for (int p = 0; p < 4; ++p) {
    ColumnSketch cs(eps);
    for (int i = 0; i < 500; ++i) {
      cs.AddValue(static_cast<double>(rng.UniformInt(40)) / 39.0, cap);
    }
    ASSERT_FALSE(cs.overflow);
    parts.push_back(std::move(cs));
  }
  const int n = 4 * 500;
  const std::vector<std::vector<size_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  std::vector<std::vector<double>> bounds;
  for (const std::vector<size_t>& order : orders) {
    ColumnSketch acc(eps);
    for (size_t p : order) acc.MergeFrom(parts[p], cap);
    bounds.push_back(StreamedBinUpperBounds(&acc, n, cap));
  }
  EXPECT_EQ(bounds[0], bounds[1]);
  EXPECT_EQ(bounds[0], bounds[2]);
}

TEST(ShardFleetTest, ColumnSketchSerializationRoundTrips) {
  const double eps = 1.0 / 2048.0;
  ColumnSketch cs(eps);
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    cs.AddValue(rng.Uniform(), 32);  // far more distinct values than cap
  }
  ASSERT_TRUE(cs.overflow);
  util::ByteWriter out;
  cs.SerializeTo(&out);
  util::ByteReader in(out.data());
  Result<ColumnSketch> parsed = ColumnSketch::DeserializeFrom(&in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->count, cs.count);
  EXPECT_EQ(parsed->overflow, cs.overflow);
  // Identical summaries quantize identically.
  ColumnSketch a = cs;
  ColumnSketch b = *parsed;
  EXPECT_EQ(StreamedBinUpperBounds(&a, 3000, 32),
            StreamedBinUpperBounds(&b, 3000, 32));
}

TEST(ShardFleetTest, PrimBitIdenticalToSingleProcess) {
  const SourceSpec spec = TestSpec();
  const StreamedDataset reference = SingleProcessBuild(spec);
  PrimConfig config;
  config.alpha = 0.05;
  config.min_points = 20;
  const PrimResult expected =
      RunPrimStreamed(*reference.index, reference.y, config);

  for (int workers : {1, 2, 3}) {
    Fleet fleet(spec, workers);
    ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
    ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
    Result<PrimResult> got = coordinator.RunPrim(config);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    ASSERT_EQ(got->boxes.size(), expected.boxes.size())
        << "workers " << workers;
    for (size_t i = 0; i < expected.boxes.size(); ++i) {
      for (int j = 0; j < spec.dims; ++j) {
        EXPECT_EQ(got->boxes[i].lo(j), expected.boxes[i].lo(j));
        EXPECT_EQ(got->boxes[i].hi(j), expected.boxes[i].hi(j));
      }
    }
    ASSERT_EQ(got->train_curve.size(), expected.train_curve.size());
    for (size_t i = 0; i < expected.train_curve.size(); ++i) {
      EXPECT_EQ(got->train_curve[i].recall, expected.train_curve[i].recall);
      EXPECT_EQ(got->train_curve[i].precision,
                expected.train_curve[i].precision);
      EXPECT_EQ(got->val_curve[i].recall, expected.val_curve[i].recall);
      EXPECT_EQ(got->val_curve[i].precision, expected.val_curve[i].precision);
    }
    EXPECT_EQ(got->best_val_index, expected.best_val_index);
    EXPECT_TRUE(coordinator.Shutdown().ok());
  }
}

TEST(ShardFleetTest, StalePeelReplyFailsInsteadOfLooping) {
  // Worker 0 answers every peel with its initial aggregates, so the fleet's
  // in-box count stops matching the peel accounting after the first peel.
  // RunPrim must report that as an error, promptly.
  const SourceSpec spec = TestSpec();
  Fleet fleet(spec, 2, /*stale_first_worker=*/true);
  ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
  ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
  const auto start = std::chrono::steady_clock::now();
  Result<PrimResult> got = coordinator.RunPrim(PrimConfig());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(coordinator.Shutdown().ok());
}

TEST(ShardFleetTest, DistributedTreeFitIsByteIdentical) {
  const SourceSpec spec = TestSpec();
  const StreamedDataset reference = SingleProcessBuild(spec);

  // Materialize the stream for the serial fit.
  SyntheticBlockSource source(spec, 1, 0);
  Result<Dataset> d = ReadAll(&source, spec.block_rows);
  ASSERT_TRUE(d.ok());

  ml::TreeConfig config;
  config.backend = ml::SplitBackend::kHistogram;
  config.max_depth = 6;
  config.min_samples_leaf = 5;

  ml::RegressionTree serial;
  Rng rng(1);
  serial.Fit(*d, config, &rng, nullptr, reference.index.get());
  util::ByteWriter serial_bytes;
  serial.SerializeTo(&serial_bytes);

  Fleet fleet(spec, 2);
  ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
  ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
  Result<ml::RegressionTree> fleet_tree = coordinator.FitTree(config);
  ASSERT_TRUE(fleet_tree.ok()) << fleet_tree.status().ToString();
  util::ByteWriter fleet_bytes;
  fleet_tree->SerializeTo(&fleet_bytes);
  EXPECT_EQ(fleet_bytes.data(), serial_bytes.data());

  // Unsupported configurations are refused, not silently approximated.
  ml::TreeConfig mtry_config = config;
  mtry_config.mtry = 1;
  EXPECT_FALSE(coordinator.FitTree(mtry_config).ok());
  ml::TreeConfig leaf_config = config;
  leaf_config.growth = ml::GrowthPolicy::kLeafWise;
  leaf_config.max_leaves = 8;
  EXPECT_FALSE(coordinator.FitTree(leaf_config).ok());
  EXPECT_TRUE(coordinator.Shutdown().ok());
}

TEST(ShardFleetTest, ShardedTuningPicksTuneAndFitsModel) {
  // Small design sample, GBT family (deterministic fits).
  SourceSpec spec = TestSpec();
  spec.rows = 600;
  SyntheticBlockSource source(spec, 1, 0);
  Result<Dataset> d = ReadAll(&source, spec.block_rows);
  ASSERT_TRUE(d.ok());

  ml::TuningConfig config;
  config.budget = ml::TuningBudget::kQuick;
  config.folds = 3;
  const uint64_t seed = 77;
  std::unique_ptr<ml::Metamodel> expected =
      ml::TuneAndFit(ml::MetamodelKind::kGbt, *d, seed, config);
  util::ByteWriter expected_bytes;
  ml::SerializeMetamodel(*expected, ml::MetamodelKind::kGbt, &expected_bytes);

  Fleet fleet(spec, 2);
  ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
  Result<std::unique_ptr<ml::Metamodel>> got = coordinator.TuneAndFitSharded(
      ml::MetamodelKind::kGbt, *d, seed, config);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  util::ByteWriter got_bytes;
  ml::SerializeMetamodel(**got, ml::MetamodelKind::kGbt, &got_bytes);
  EXPECT_EQ(got_bytes.data(), expected_bytes.data());
  EXPECT_TRUE(coordinator.Shutdown().ok());
}

TEST(ShardFleetTest, FleetMetricsFoldIntoOneRegistry) {
  const SourceSpec spec = TestSpec();
  const int workers = 3;
  Fleet fleet(spec, workers);
  ShardCoordinator coordinator(fleet.coordinator_fds(), BuildOptions(spec));
  ASSERT_TRUE(coordinator.BuildGlobalBins().ok());
  PrimConfig config;
  Result<PrimResult> r = coordinator.RunPrim(config);
  ASSERT_TRUE(r.ok());

  obs::MetricsRegistry registry;
  ASSERT_TRUE(coordinator.CollectMetrics(&registry).ok());
  // Counters fold exactly: every row and block of the stream is counted
  // once, across all workers.
  EXPECT_EQ(registry.counter("shard.worker.rows")->Value(),
            static_cast<uint64_t>(spec.rows));
  const uint64_t blocks =
      static_cast<uint64_t>((spec.rows + spec.block_rows - 1) /
                            spec.block_rows);
  EXPECT_EQ(registry.counter("shard.worker.blocks")->Value(), blocks);
  // One peel per applied box transition, counted on every worker.
  EXPECT_EQ(registry.counter("shard.worker.peels")->Value(),
            static_cast<uint64_t>(workers) * (r->boxes.size() - 1));
  EXPECT_EQ(registry.gauge("shard.coordinator.workers")->Value(), workers);
  EXPECT_TRUE(coordinator.Shutdown().ok());
}

}  // namespace
}  // namespace reds::shard
