// Tests for the multi-graph sharding layer: GraphPartitioner edge cases and
// tiling properties, ShardedSession fp32 bit-identity against the unsharded
// path for K in {1, 2, 4, 7} on RMAT and dataset-style graphs, the joined
// async future, per-shard PlanCache fingerprints, sharded GNN training
// parity, and concurrent sharded multiplies (TSan fodder).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/plan_cache.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "shard/partitioner.h"
#include "shard/sharded_session.h"
#include "sparse/generate.h"
#include "sparse/reference.h"
#include "util/random.h"

namespace hcspmm {
namespace {

CsrMatrix TestMatrix(uint64_t seed, int32_t rows = 200, double density = 0.05) {
  Pcg32 rng(seed);
  return GenerateUniformSparse(rows, rows, density, &rng);
}

Graph TestGraph(int n = 240, uint64_t seed = 11) {
  Pcg32 rng(seed);
  Graph g = MoleculeUnion(n, n * 4, 20, 12, &rng);
  g.num_classes = 4;
  for (int32_t v = 0; v < g.num_vertices; ++v) g.labels[v] = (v / 20) % 4;
  AttachSyntheticFeatures(&g, &rng);
  return g;
}

SessionOptions Fp32Options() { return SessionOptions().set_dtype(DataType::kFp32); }

ShardingOptions Shards(int k, bool align = true) {
  ShardingOptions opts;
  opts.num_shards = k;
  opts.align_to_windows = align;
  return opts;
}

// Every partition must tile [0, rows) exactly, in order, with per-range nnz
// matching the materialized shard and the total.
void CheckTiles(const CsrMatrix& m, const GraphPartition& part) {
  ASSERT_EQ(part.ranges.size(), part.shards.size());
  ASSERT_GE(part.NumShards(), 1);
  int32_t expected_begin = 0;
  int64_t nnz_total = 0;
  for (int i = 0; i < part.NumShards(); ++i) {
    const ShardRange& range = part.ranges[i];
    EXPECT_EQ(range.row_begin, expected_begin);
    EXPECT_LE(range.row_end, m.rows());
    expected_begin = range.row_end;
    nnz_total += range.nnz;
    EXPECT_EQ(part.shards[i].rows(), range.NumRows());
    EXPECT_EQ(part.shards[i].cols(), m.cols());
    EXPECT_EQ(part.shards[i].nnz(), range.nnz);
    EXPECT_TRUE(part.shards[i].Validate());
    // Shard rows are verbatim slices of the original rows.
    for (int32_t r = 0; r < range.NumRows(); ++r) {
      const int32_t orig = range.row_begin + r;
      ASSERT_EQ(part.shards[i].RowNnz(r), m.RowNnz(orig));
      for (int64_t e = 0; e < m.RowNnz(orig); ++e) {
        EXPECT_EQ(part.shards[i].col_ind()[part.shards[i].RowBegin(r) + e],
                  m.col_ind()[m.RowBegin(orig) + e]);
        EXPECT_EQ(part.shards[i].val()[part.shards[i].RowBegin(r) + e],
                  m.val()[m.RowBegin(orig) + e]);
      }
    }
  }
  EXPECT_EQ(expected_begin, m.rows());
  EXPECT_EQ(nnz_total, m.nnz());
}

// ---------------------------------------------------------------------------
// GraphPartitioner

TEST(PartitionerTest, PropertyTilesRowsForManyShapesAndCounts) {
  const std::vector<uint64_t> seeds = {3, 17, 99};
  for (uint64_t seed : seeds) {
    for (int32_t rows : {1, 15, 16, 33, 200}) {
      const CsrMatrix m = TestMatrix(seed, rows, 0.08);
      for (int k : {1, 2, 3, 4, 7, 16, 64}) {
        for (bool align : {false, true}) {
          SCOPED_TRACE("rows=" + std::to_string(rows) + " k=" + std::to_string(k) +
                       " align=" + std::to_string(align));
          CheckTiles(m, PartitionCsr(m, Shards(k, align)));
        }
      }
    }
  }
}

TEST(PartitionerTest, BalancesNnzAcrossShards) {
  const CsrMatrix m = TestMatrix(5, 640, 0.05);
  const GraphPartition part = PartitionCsr(m, Shards(4, /*align=*/false));
  ASSERT_EQ(part.NumShards(), 4);
  const int64_t ideal = m.nnz() / 4;
  for (const ShardRange& range : part.ranges) {
    // Greedy quantile splitting lands within one max-row of the ideal; the
    // uniform test matrix keeps rows small, so a loose 2x envelope holds.
    EXPECT_GT(range.nnz, 0);
    EXPECT_LT(range.nnz, 2 * ideal);
  }
}

TEST(PartitionerTest, KGreaterThanRowsClampsToOneRowPerShard) {
  const CsrMatrix m = TestMatrix(9, /*rows=*/5, 0.5);
  const GraphPartition part = PartitionCsr(m, Shards(9, /*align=*/false));
  EXPECT_EQ(part.NumShards(), 5);
  for (int i = 0; i < part.NumShards(); ++i) {
    EXPECT_EQ(part.ranges[i].NumRows(), 1);
  }
  CheckTiles(m, part);
  // Window-aligned, the same request degrades to a single 5-row unit.
  EXPECT_EQ(PartitionCsr(m, Shards(9, /*align=*/true)).NumShards(), 1);
}

TEST(PartitionerTest, NonPositiveShardCountMeansOne) {
  const CsrMatrix m = TestMatrix(2);
  EXPECT_EQ(PartitionCsr(m, Shards(0)).NumShards(), 1);
  EXPECT_EQ(PartitionCsr(m, Shards(-3)).NumShards(), 1);
}

TEST(PartitionerTest, EmptyRowsAndEmptyMatrix) {
  // All-empty rows: nnz balancing degenerates to row balancing.
  CsrMatrix empty_rows(48, 48, std::vector<int64_t>(49, 0), {}, {});
  const GraphPartition part = PartitionCsr(empty_rows, Shards(3, /*align=*/false));
  EXPECT_EQ(part.NumShards(), 3);
  CheckTiles(empty_rows, part);
  for (const ShardRange& range : part.ranges) EXPECT_EQ(range.nnz, 0);

  // 0-row matrix: one empty shard, no crash.
  CsrMatrix empty(0, 7, {0}, {}, {});
  const GraphPartition none = PartitionCsr(empty, Shards(4));
  EXPECT_EQ(none.NumShards(), 1);
  EXPECT_EQ(none.ranges[0].NumRows(), 0);
  EXPECT_EQ(none.shards[0].nnz(), 0);
}

TEST(PartitionerTest, SingleGiantRowStaysInOneShard) {
  // Row 7 holds ~all the nnz; the greedy split must keep boundaries strictly
  // increasing instead of emptying its neighbors.
  const int32_t rows = 64;
  std::vector<int64_t> row_ptr(rows + 1, 0);
  std::vector<int32_t> cols;
  std::vector<float> vals;
  for (int32_t c = 0; c < rows; ++c) {
    cols.push_back(c);
    vals.push_back(1.0f + c);
  }
  for (int32_t r = 0; r < rows; ++r) row_ptr[r + 1] = row_ptr[r] + (r == 7 ? rows : 0);
  const CsrMatrix m(rows, rows, std::move(row_ptr), std::move(cols), std::move(vals));
  for (int k : {2, 4, 7}) {
    const GraphPartition part = PartitionCsr(m, Shards(k, /*align=*/false));
    EXPECT_EQ(part.NumShards(), k);
    CheckTiles(m, part);
    int owners = 0;
    for (const ShardRange& range : part.ranges) {
      if (range.row_begin <= 7 && 7 < range.row_end) ++owners;
    }
    EXPECT_EQ(owners, 1);
  }
}

TEST(PartitionerTest, K1ShardSharesTheUnshardedPlanFingerprint) {
  const CsrMatrix m = TestMatrix(21);
  const GraphPartition part = PartitionCsr(m, Shards(1));
  ASSERT_EQ(part.NumShards(), 1);
  // Content-identical => same fingerprint => the K=1 shard reuses the plan
  // any unsharded session cached for the original matrix (and vice versa).
  EXPECT_EQ(FingerprintCsr(part.shards[0]), FingerprintCsr(m));
  EXPECT_TRUE(MakePlanCacheKey(part.shards[0], Rtx3090(), DataType::kFp32) ==
              MakePlanCacheKey(m, Rtx3090(), DataType::kFp32));
}

TEST(PartitionerTest, WindowAlignedBoundariesFallOnWindowMultiples) {
  const CsrMatrix m = TestMatrix(33, 333, 0.04);
  const GraphPartition part = PartitionCsr(m, Shards(5, /*align=*/true));
  CheckTiles(m, part);
  for (int i = 0; i + 1 < part.NumShards(); ++i) {
    EXPECT_EQ(part.ranges[i].row_end % 16, 0);
  }
}

// ---------------------------------------------------------------------------
// ShardedSession

TEST(ShardedSessionTest, BitIdenticalToUnshardedForEveryK) {
  Pcg32 rng(7);
  Graph rmat = RMat(/*scale_log2=*/11, /*num_edges=*/12000, /*feature_dim=*/8, &rng);
  Graph mol = TestGraph();
  for (const Graph* g : {&rmat, &mol}) {
    const CsrMatrix abar = GcnNormalized(g->adjacency);
    auto unsharded = Runtime::Default()->OpenSession(&abar, Fp32Options());
    DenseMatrix x = GenerateDense(abar.cols(), 24, &rng);
    DenseMatrix z_ref;
    ASSERT_TRUE(unsharded->Multiply(x, &z_ref, nullptr).ok());
    // Sanity: the engine agrees with the O(n^2) reference.
    EXPECT_EQ(z_ref.MaxAbsDifference(ReferenceSpmm(abar, x)), 0.0);

    for (int k : {1, 2, 4, 7}) {
      for (bool align : {false, true}) {
        SCOPED_TRACE(g->name + " K=" + std::to_string(k) +
                     " align=" + std::to_string(align));
        auto sharded = ShardedSession::Open(Runtime::Default(), abar, Fp32Options(),
                                            Shards(k, align));
        ASSERT_TRUE(sharded->WaitReady().ok());
        DenseMatrix z;
        ASSERT_TRUE(sharded->Multiply(x, &z, nullptr).ok());
        ASSERT_EQ(z.rows(), z_ref.rows());
        EXPECT_EQ(z.MaxAbsDifference(z_ref), 0.0);
      }
    }
  }
}

TEST(ShardedSessionTest, AsyncJoinedFutureMatchesSyncAndAccumulatesProfiles) {
  const CsrMatrix m = TestMatrix(31, 300, 0.05);
  auto sharded = ShardedSession::Open(Runtime::Default(), m, Fp32Options(), Shards(4));
  Pcg32 rng(5);
  DenseMatrix x = GenerateDense(m.cols(), 16, &rng);

  KernelProfile sync_prof;
  DenseMatrix z_sync;
  ASSERT_TRUE(sharded->Multiply(x, &z_sync, &sync_prof).ok());

  KernelProfile async_prof;
  Future<DenseMatrix> fut = sharded->MultiplyAsync(x, &async_prof, /*stream=*/1);
  ASSERT_TRUE(fut.status().ok());
  EXPECT_EQ(fut.Get().MaxAbsDifference(z_sync), 0.0);
  // Profiles fold in shard order on both paths, so the metered cost is
  // bit-identical, not merely close.
  EXPECT_EQ(async_prof.time_ns, sync_prof.time_ns);

  // FIFO per stream: two async multiplies on one stream both resolve.
  Future<DenseMatrix> f1 = sharded->MultiplyAsync(x, nullptr, 0);
  Future<DenseMatrix> f2 = sharded->MultiplyAsync(x, nullptr, 0);
  EXPECT_EQ(f1.Get().MaxAbsDifference(z_sync), 0.0);
  EXPECT_EQ(f2.Get().MaxAbsDifference(z_sync), 0.0);
}

TEST(ShardedSessionTest, MultiplyBatchMatchesPerItemMultiplies) {
  const CsrMatrix m = TestMatrix(12, 160, 0.06);
  auto sharded = ShardedSession::Open(Runtime::Default(), m, Fp32Options(), Shards(3));
  Pcg32 rng(77);
  std::vector<DenseMatrix> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(GenerateDense(m.cols(), 8, &rng));
  KernelProfile batch_prof;
  Future<std::vector<DenseMatrix>> batch =
      sharded->MultiplyBatchAsync(inputs, &batch_prof);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const std::vector<DenseMatrix>& zs = batch.Get();
  ASSERT_EQ(zs.size(), inputs.size());
  KernelProfile item_prof;
  for (size_t i = 0; i < inputs.size(); ++i) {
    DenseMatrix z;
    ASSERT_TRUE(sharded->Multiply(inputs[i], &z, &item_prof).ok());
    EXPECT_EQ(zs[i].MaxAbsDifference(z), 0.0);
  }
  // Profiles fold in batch order, so the metered cost matches item by item.
  EXPECT_EQ(batch_prof.time_ns, item_prof.time_ns);
  // Empty batch is an OK no-op.
  Future<std::vector<DenseMatrix>> empty = sharded->MultiplyBatchAsync({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.Get().empty());
}

TEST(ShardedSessionTest, UnknownKernelSurfacesThroughEveryPath) {
  const CsrMatrix m = TestMatrix(2, 64, 0.1);
  auto sharded = ShardedSession::Open(
      Runtime::Default(), m, SessionOptions().set_kernel("no-such-kernel"), Shards(3));
  EXPECT_EQ(sharded->WaitReady().code(), StatusCode::kInvalidArgument);
  DenseMatrix x(m.cols(), 4, 1.0f), z;
  EXPECT_FALSE(sharded->Multiply(x, &z, nullptr).ok());
  Future<DenseMatrix> fut = sharded->MultiplyAsync(x);
  EXPECT_EQ(fut.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedSessionTest, EachShardGetsItsOwnPlanCacheEntry) {
  Runtime runtime;  // isolated cache
  const CsrMatrix m = TestMatrix(41, 320, 0.05);
  auto first = ShardedSession::Open(&runtime, m, Fp32Options(), Shards(4));
  ASSERT_TRUE(first->WaitReady().ok());
  ASSERT_EQ(first->num_shards(), 4);
  const PlanCacheStats cold = runtime.plan_cache_stats();
  EXPECT_EQ(cold.insertions, 4);  // one plan per shard
  EXPECT_GT(first->PreprocessNs(), 0.0);

  // Same partition again: every shard hits its fingerprint, nothing rebuilds.
  auto second = ShardedSession::Open(&runtime, m, Fp32Options(), Shards(4));
  ASSERT_TRUE(second->WaitReady().ok());
  for (int i = 0; i < second->num_shards(); ++i) {
    EXPECT_TRUE(second->plan_from_cache(i));
  }
  EXPECT_EQ(second->PreprocessNs(), 0.0);
  EXPECT_EQ(runtime.plan_cache_stats().hits, cold.hits + 4);

  // A different K re-partitions: new shard contents, new fingerprints.
  auto other = ShardedSession::Open(&runtime, m, Fp32Options(), Shards(2));
  ASSERT_TRUE(other->WaitReady().ok());
  EXPECT_EQ(runtime.plan_cache_stats().insertions, 6);
}

TEST(ShardedSessionTest, SourceMatrixMayDieAfterOpen) {
  auto m = std::make_unique<CsrMatrix>(TestMatrix(51, 256, 0.05));
  Pcg32 rng(3);
  DenseMatrix x = GenerateDense(m->cols(), 8, &rng);
  DenseMatrix z_ref = ReferenceSpmm(*m, x);
  auto sharded = ShardedSession::Open(Runtime::Default(), *m, Fp32Options(), Shards(3));
  m.reset();  // shards are owned copies; the source is not needed anymore
  DenseMatrix z;
  ASSERT_TRUE(sharded->Multiply(x, &z, nullptr).ok());
  EXPECT_EQ(z.MaxAbsDifference(z_ref), 0.0);
}

TEST(ShardedSessionTest, DroppingTheHandleWithWorkInFlightIsSafe) {
  // The shard CSRs live in the ShardedSession, so pending plan builds and
  // async multiplies must pin it: dropping the caller's handle immediately
  // after Open — or between submit and Get — must not free the operands
  // under the pool's feet (ASan/TSan guard this test).
  const CsrMatrix m = TestMatrix(81, 280, 0.05);
  Pcg32 rng(9);
  const DenseMatrix x = GenerateDense(m.cols(), 8, &rng);
  const DenseMatrix z_ref = ReferenceSpmm(m, x);

  // K = 1 runs the same fan-out as K > 1; both must pin the shards.
  for (int k : {1, 3}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    // Drop right after Open, before init ever resolves.
    ShardedSession::Open(Runtime::Default(), m, Fp32Options(), Shards(k));

    auto sharded = ShardedSession::Open(Runtime::Default(), m, Fp32Options(), Shards(k));
    Future<DenseMatrix> fut = sharded->MultiplyAsync(x);
    sharded.reset();  // the in-flight multiply keeps the shards alive
    ASSERT_TRUE(fut.status().ok());
    EXPECT_EQ(fut.Get().MaxAbsDifference(z_ref), 0.0);
  }
}

TEST(ShardedSessionTest, ConcurrentMultipliesFromManyThreadsAgree) {
  const CsrMatrix m = TestMatrix(61, 400, 0.04);
  auto sharded = ShardedSession::Open(Runtime::Default(), m, Fp32Options(), Shards(4));
  Pcg32 rng(13);
  const DenseMatrix x = GenerateDense(m.cols(), 12, &rng);
  DenseMatrix z_ref;
  ASSERT_TRUE(sharded->Multiply(x, &z_ref, nullptr).ok());

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        if (t % 2 == 0) {
          DenseMatrix z;
          if (!sharded->Multiply(x, &z, nullptr).ok() ||
              z.MaxAbsDifference(z_ref) != 0.0) {
            mismatches.fetch_add(1);
          }
        } else {
          Future<DenseMatrix> fut = sharded->MultiplyAsync(x, nullptr, /*stream=*/i % 2);
          if (!fut.status().ok() || fut.Get().MaxAbsDifference(z_ref) != 0.0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Backend + GNN wiring

TEST(ShardedEngineTest, EngineShardParameterIsBitIdentical) {
  const CsrMatrix m = TestMatrix(71, 300, 0.05);
  std::shared_ptr<SpmmBackend> plain = Runtime::Default()->OpenSession(&m, Fp32Options());
  ASSERT_TRUE(plain->WaitReady().ok());

  auto sharded = ShardedSession::Open(Runtime::Default(), m, Fp32Options(), Shards(4));
  ASSERT_TRUE(sharded->WaitReady().ok());
  EXPECT_EQ(sharded->num_shards(), 4);
  EXPECT_NE(sharded->shard_session(0)->plan(), nullptr);

  Pcg32 rng(1);
  DenseMatrix x = GenerateDense(m.cols(), 16, &rng);
  DenseMatrix z_plain, z_sharded;
  ASSERT_TRUE(plain->Multiply(x, &z_plain, nullptr).ok());
  ASSERT_TRUE(sharded->Multiply(x, &z_sharded, nullptr).ok());
  EXPECT_EQ(z_sharded.MaxAbsDifference(z_plain), 0.0);
  EXPECT_GT(sharded->AuxMemoryBytes(), 0);

  auto bogus = ShardedSession::Open(Runtime::Default(), m,
                                    Fp32Options().set_kernel("nope"), Shards(3));
  EXPECT_EQ(bogus->WaitReady().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedGnnTest, TrainingIsIdenticalForEveryShardCount) {
  const Graph g = TestGraph();
  GnnConfig config;
  config.hidden_dim = 8;
  config.num_layers = 2;
  for (GnnModelKind kind : {GnnModelKind::kGcn, GnnModelKind::kGin}) {
    const TrainStats base = TrainGnn(g, kind, "hcspmm", config, Rtx3090(),
                                     /*epochs=*/3, DataType::kFp32);
    for (int k : {2, 7}) {
      GnnConfig sharded_config = config;
      sharded_config.num_shards = k;
      const TrainStats sharded = TrainGnn(g, kind, "hcspmm", sharded_config, Rtx3090(),
                                          /*epochs=*/3, DataType::kFp32);
      ASSERT_EQ(sharded.epochs.size(), base.epochs.size());
      for (size_t e = 0; e < base.epochs.size(); ++e) {
        // fp32 numerics are bit-identical for every K. Simulated times are
        // NOT compared: sharding is modeled as K kernel launches, each with
        // its own SM-scheduler makespan and launch overhead.
        EXPECT_EQ(sharded.epochs[e].loss, base.epochs[e].loss);
        EXPECT_EQ(sharded.epochs[e].accuracy, base.epochs[e].accuracy);
        EXPECT_GT(sharded.epochs[e].forward.agg_ns, 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace hcspmm
