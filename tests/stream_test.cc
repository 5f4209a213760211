// Tests for dynamic graph updates (src/stream/ + the streaming surfaces of
// Session / ShardedSession / SessionPool / Server): DeltaBatch validation
// and hashing, ApplyDeltasToCsr merge semantics, FoldFingerprint ordering,
// PatchPlan structural equality with a cold Preprocess, PackedCsr::PatchRows
// byte-identity with a full re-encode, Session::ApplyDeltas bit-identity
// against cold rebuilds across SIMD levels / thread counts / packed
// indices, the version-pinning race (an in-flight multiply finishes on the
// snapshot it was submitted against), a randomized 500-delta soak with
// periodic from-scratch comparison, sharded delta routing + rebalancing,
// and the serving layer's streaming admission / unregister refusals.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/core_selector.h"
#include "core/preprocess.h"
#include "exec/plan_cache.h"
#include "runtime/runtime.h"
#include "serve/server.h"
#include "serve/session_pool.h"
#include "shard/sharded_session.h"
#include "sparse/generate.h"
#include "sparse/packed_csr.h"
#include "sparse/reference.h"
#include "stream/delta.h"
#include "stream/plan_patch.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace hcspmm {
namespace {

CsrMatrix StreamMatrix(uint64_t seed, int32_t rows = 160, double density = 0.05) {
  Pcg32 rng(seed);
  return GenerateUniformSparse(rows, rows, density, &rng);
}

SessionOptions Fp32(int threads = 1) {
  return SessionOptions().set_dtype(DataType::kFp32).set_num_threads(threads);
}

bool BitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

using EdgeMap = std::map<std::pair<int32_t, int32_t>, float>;

EdgeMap ToEdgeMap(const CsrMatrix& m) {
  EdgeMap map;
  for (int32_t r = 0; r < m.rows(); ++r) {
    for (int64_t e = m.RowBegin(r); e < m.RowBegin(r) + m.RowNnz(r); ++e) {
      map[{r, m.col_ind()[e]}] = m.val()[e];
    }
  }
  return map;
}

// Independent reconstruction path: the soak compares the streamed session
// against a CSR built from this map, never against ApplyDeltasToCsr output.
CsrMatrix FromEdgeMap(const EdgeMap& map, int32_t rows, int32_t cols) {
  std::vector<int64_t> row_ptr(rows + 1, 0);
  std::vector<int32_t> col_ind;
  std::vector<float> val;
  for (const auto& [key, v] : map) row_ptr[key.first + 1]++;
  for (int32_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];
  for (const auto& [key, v] : map) {  // std::map iterates (row, col)-sorted
    col_ind.push_back(key.second);
    val.push_back(v);
  }
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_ind),
                   std::move(val));
}

void ApplyToMap(EdgeMap* map, const DeltaBatch& batch) {
  for (const EdgeDelta& e : batch.upserts()) (*map)[{e.row, e.col}] = e.val;
  for (const EdgeDelta& e : batch.deletes()) map->erase({e.row, e.col});
}

// Random batch against the current edge map: mixed inserts/updates plus
// deletes of edges that exist right now, all keys distinct.
DeltaBatch RandomBatch(const EdgeMap& current, int32_t rows, int32_t cols,
                       int size, Pcg32* rng) {
  std::map<std::pair<int32_t, int32_t>, int> used;
  std::vector<EdgeDelta> upserts;
  std::vector<EdgeDelta> deletes;
  while (static_cast<int>(upserts.size() + deletes.size()) < size) {
    const bool want_delete =
        !current.empty() &&
        (upserts.size() + deletes.size()) % 4 == 0;
    if (want_delete) {
      auto it = current.begin();
      std::advance(it, rng->NextBounded(static_cast<uint32_t>(current.size())));
      if (!used.emplace(it->first, 1).second) continue;
      deletes.push_back({it->first.first, it->first.second, 0.0f});
    } else {
      const int32_t r = static_cast<int32_t>(rng->NextBounded(rows));
      const int32_t c = static_cast<int32_t>(rng->NextBounded(cols));
      if (!used.emplace(std::make_pair(r, c), 1).second) continue;
      upserts.push_back({r, c, rng->NextDouble(0.25, 1.25) > 0.75 ? 0.5f
                         : static_cast<float>(rng->NextDouble(0.1, 2.0))});
    }
  }
  auto batch = DeltaBatch::Make(std::move(upserts), std::move(deletes));
  EXPECT_TRUE(batch.ok()) << batch.status().message();
  return std::move(batch.ValueOrDie());
}

// ---------------------------------------------------------------------------
// DeltaBatch

TEST(DeltaBatchTest, MakeSortsAndRejectsConflicts) {
  // Unsorted caller order is fine; Make canonicalizes.
  auto ok = DeltaBatch::Make({{5, 3, 1.0f}, {1, 9, 2.0f}, {1, 2, 3.0f}},
                             {{4, 4, 0.0f}});
  ASSERT_TRUE(ok.ok());
  const DeltaBatch& b = ok.ValueOrDie();
  ASSERT_EQ(b.upserts().size(), 3u);
  EXPECT_EQ(b.upserts()[0].row, 1);
  EXPECT_EQ(b.upserts()[0].col, 2);
  EXPECT_EQ(b.upserts()[2].row, 5);
  EXPECT_EQ(b.size(), 4);
  EXPECT_FALSE(b.empty());

  // Duplicate key within a list.
  EXPECT_FALSE(DeltaBatch::Make({{1, 2, 1.0f}, {1, 2, 2.0f}}, {}).ok());
  EXPECT_FALSE(DeltaBatch::Make({}, {{3, 3, 0.0f}, {3, 3, 0.0f}}).ok());
  // The same key upserted and deleted is ambiguous.
  EXPECT_FALSE(DeltaBatch::Make({{1, 2, 1.0f}}, {{1, 2, 0.0f}}).ok());
}

TEST(DeltaBatchTest, HashIsCanonicalAndPayloadSensitive) {
  auto a = DeltaBatch::Make({{5, 3, 1.0f}, {1, 9, 2.0f}}, {{4, 4, 0.0f}});
  auto b = DeltaBatch::Make({{1, 9, 2.0f}, {5, 3, 1.0f}}, {{4, 4, 0.0f}});
  ASSERT_TRUE(a.ok() && b.ok());
  // Same logical batch, different caller order => same hash.
  EXPECT_EQ(a.ValueOrDie().Hash(), b.ValueOrDie().Hash());

  // Changing a value, a key, or moving a key between lists changes the hash.
  auto value_changed = DeltaBatch::Make({{5, 3, 1.5f}, {1, 9, 2.0f}}, {{4, 4, 0.0f}});
  auto key_changed = DeltaBatch::Make({{5, 4, 1.0f}, {1, 9, 2.0f}}, {{4, 4, 0.0f}});
  auto list_changed = DeltaBatch::Make({{5, 3, 1.0f}, {1, 9, 2.0f}, {4, 4, 0.0f}}, {});
  EXPECT_NE(a.ValueOrDie().Hash(), value_changed.ValueOrDie().Hash());
  EXPECT_NE(a.ValueOrDie().Hash(), key_changed.ValueOrDie().Hash());
  EXPECT_NE(a.ValueOrDie().Hash(), list_changed.ValueOrDie().Hash());
}

TEST(DeltaBatchTest, BoundsDirtyRowsAndSlice) {
  auto batch = DeltaBatch::Make({{5, 3, 1.0f}, {1, 9, 2.0f}, {5, 7, 1.0f}},
                                {{8, 0, 0.0f}})
                   .ValueOrDie();
  EXPECT_TRUE(batch.CheckBounds(10, 10).ok());
  EXPECT_FALSE(batch.CheckBounds(10, 9).ok());  // col 9 out of range
  EXPECT_FALSE(batch.CheckBounds(8, 10).ok());  // row 8 out of range

  EXPECT_EQ(batch.DirtyRows(), (std::vector<int32_t>{1, 5, 8}));

  // Slice filters and rebases rows; columns stay in the full space.
  const DeltaBatch mid = batch.Slice(4, 8);
  ASSERT_EQ(mid.upserts().size(), 2u);
  EXPECT_EQ(mid.upserts()[0].row, 1);  // was row 5
  EXPECT_EQ(mid.upserts()[0].col, 3);
  EXPECT_TRUE(mid.deletes().empty());
  const DeltaBatch tail = batch.Slice(8, 10);
  EXPECT_TRUE(tail.upserts().empty());
  ASSERT_EQ(tail.deletes().size(), 1u);
  EXPECT_EQ(tail.deletes()[0].row, 0);  // was row 8
}

// ---------------------------------------------------------------------------
// ApplyDeltasToCsr + FoldFingerprint

TEST(ApplyDeltasTest, InsertUpdateDeleteAgainstEdgeMap) {
  const CsrMatrix base = StreamMatrix(3);
  EdgeMap map = ToEdgeMap(base);
  Pcg32 rng(17);
  const DeltaBatch batch = RandomBatch(map, base.rows(), base.cols(), 40, &rng);

  DeltaApplyStats stats;
  auto patched = ApplyDeltasToCsr(base, batch, &stats);
  ASSERT_TRUE(patched.ok()) << patched.status().message();
  ApplyToMap(&map, batch);
  const CsrMatrix expect = FromEdgeMap(map, base.rows(), base.cols());

  const CsrMatrix& got = patched.ValueOrDie();
  ASSERT_EQ(got.nnz(), expect.nnz());
  EXPECT_EQ(got.row_ptr(), expect.row_ptr());
  EXPECT_EQ(got.col_ind(), expect.col_ind());
  EXPECT_EQ(got.val(), expect.val());
  EXPECT_TRUE(got.Validate());

  EXPECT_EQ(stats.deleted, static_cast<int64_t>(batch.deletes().size()));
  EXPECT_EQ(stats.inserted + stats.updated,
            static_cast<int64_t>(batch.upserts().size()));
  EXPECT_EQ(got.nnz(), base.nnz() + stats.inserted - stats.deleted);
}

TEST(ApplyDeltasTest, DeletingAbsentEdgeFails) {
  const CsrMatrix base = StreamMatrix(5);
  // Find a hole: (0, c) not present in row 0.
  EdgeMap map = ToEdgeMap(base);
  int32_t hole = -1;
  for (int32_t c = 0; c < base.cols(); ++c) {
    if (map.find({0, c}) == map.end()) {
      hole = c;
      break;
    }
  }
  ASSERT_GE(hole, 0);
  const DeltaBatch batch =
      DeltaBatch::Make({}, {{0, hole, 0.0f}}).ValueOrDie();
  EXPECT_EQ(ApplyDeltasToCsr(base, batch).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ApplyDeltasTest, FoldFingerprintIsOrderSensitiveAndNonTrivial) {
  const uint64_t fp = 0x1234567890abcdefULL;
  const uint64_t h1 = 11, h2 = 22;
  EXPECT_NE(FoldFingerprint(fp, h1), fp);
  EXPECT_NE(FoldFingerprint(fp, h1), h1);
  // Batches do not commute, so neither does the fold.
  EXPECT_NE(FoldFingerprint(FoldFingerprint(fp, h1), h2),
            FoldFingerprint(FoldFingerprint(fp, h2), h1));
  // Distinct bases stay distinct under the same batch.
  EXPECT_NE(FoldFingerprint(fp, h1), FoldFingerprint(fp + 1, h1));
}

// ---------------------------------------------------------------------------
// PatchPlan + PackedCsr::PatchRows

TEST(PlanPatchTest, PatchedPlanStructurallyEqualsColdPlan) {
  for (const bool packed : {false, true}) {
    SCOPED_TRACE(packed ? "packed" : "plain");
    const CsrMatrix base = StreamMatrix(7, 200, 0.06);
    EdgeMap map = ToEdgeMap(base);
    Pcg32 rng(29);
    const DeltaBatch batch = RandomBatch(map, base.rows(), base.cols(), 30, &rng);

    const DeviceSpec dev = Rtx3090();
    const SelectorModel selector = DefaultSelectorModelFor(dev.name);
    auto base_plan = Preprocess(base, dev, selector, kRowWindowHeight, packed);
    ASSERT_TRUE(base_plan.ok());
    auto patched_csr = ApplyDeltasToCsr(base, batch);
    ASSERT_TRUE(patched_csr.ok());
    const CsrMatrix& patched = patched_csr.ValueOrDie();

    auto patch =
        PatchPlan(base_plan.ValueOrDie(), patched, batch.DirtyRows(), dev, selector);
    ASSERT_TRUE(patch.ok()) << patch.status().message();
    auto cold = Preprocess(patched, dev, selector, kRowWindowHeight, packed);
    ASSERT_TRUE(cold.ok());

    const HybridPlan& p = patch.ValueOrDie().plan;
    const HybridPlan& c = cold.ValueOrDie();
    ASSERT_EQ(p.windows.windows.size(), c.windows.windows.size());
    for (size_t w = 0; w < c.windows.windows.size(); ++w) {
      SCOPED_TRACE("window " + std::to_string(w));
      const RowWindow& pw = p.windows.windows[w];
      const RowWindow& cw = c.windows.windows[w];
      EXPECT_EQ(pw.first_row, cw.first_row);
      EXPECT_EQ(pw.num_rows, cw.num_rows);
      EXPECT_EQ(pw.nnz, cw.nnz);
      EXPECT_EQ(pw.max_row_nnz, cw.max_row_nnz);
      EXPECT_EQ(pw.unique_cols, cw.unique_cols);
      EXPECT_EQ(pw.col_span, cw.col_span);
      EXPECT_EQ(pw.matrix_cols, cw.matrix_cols);
    }
    EXPECT_EQ(p.assignment, c.assignment);
    EXPECT_EQ(p.windows_cuda, c.windows_cuda);
    EXPECT_EQ(p.windows_tensor, c.windows_tensor);

    // Only dirty windows were rebuilt (the point of incremental maintenance).
    EXPECT_GT(patch.ValueOrDie().dirty_windows, 0);
    EXPECT_LT(patch.ValueOrDie().dirty_windows, patch.ValueOrDie().total_windows);

    if (packed) {
      ASSERT_NE(p.packed, nullptr);
      ASSERT_NE(c.packed, nullptr);
      EXPECT_TRUE(patch.ValueOrDie().repacked);
      EXPECT_EQ(p.packed->stream(), c.packed->stream());
      EXPECT_EQ(p.packed->pack_ptr(), c.packed->pack_ptr());
    } else {
      EXPECT_EQ(p.packed, nullptr);
      EXPECT_FALSE(patch.ValueOrDie().repacked);
    }
  }
}

TEST(PlanPatchTest, PackedPatchRowsByteIdenticalToFullEncode) {
  const CsrMatrix base = StreamMatrix(9, 120, 0.08);
  EdgeMap map = ToEdgeMap(base);
  Pcg32 rng(31);
  const DeltaBatch batch = RandomBatch(map, base.rows(), base.cols(), 25, &rng);
  auto patched_csr = ApplyDeltasToCsr(base, batch);
  ASSERT_TRUE(patched_csr.ok());
  const CsrMatrix& patched = patched_csr.ValueOrDie();

  auto base_packed = PackedCsr::Encode(base);
  ASSERT_TRUE(base_packed.ok());
  auto spliced =
      PackedCsr::PatchRows(base_packed.ValueOrDie(), patched, batch.DirtyRows());
  ASSERT_TRUE(spliced.ok()) << spliced.status().message();
  auto full = PackedCsr::Encode(patched);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(spliced.ValueOrDie().stream(), full.ValueOrDie().stream());
  EXPECT_EQ(spliced.ValueOrDie().pack_ptr(), full.ValueOrDie().pack_ptr());
}

// ---------------------------------------------------------------------------
// Session::ApplyDeltas

TEST(SessionStreamTest, BitIdenticalToColdRebuildAcrossSimdThreadsPacked) {
  const CsrMatrix base = StreamMatrix(13, 240, 0.05);
  Pcg32 x_rng(1);
  const DenseMatrix x = GenerateDense(base.cols(), 12, &x_rng);

  for (const bool packed : {false, true}) {
    for (const int threads : {1, 4}) {
      for (const SimdLevel level : {SimdLevel::kScalar, ActiveSimdLevel()}) {
        SCOPED_TRACE(std::string(packed ? "packed" : "plain") + " threads=" +
                     std::to_string(threads) + " simd=" + SimdLevelName(level));
        const SimdLevel prev = SetActiveSimdLevel(level);
        const SessionOptions options =
            SessionOptions(Fp32(threads)).set_compress_indices(packed);
        CsrMatrix abar = base;
        auto session = Runtime::Default()->OpenSession(&abar, options);
        ASSERT_TRUE(session->WaitReady().ok());

        EdgeMap map = ToEdgeMap(base);
        Pcg32 rng(41);
        uint64_t expect_fp = session->content_fingerprint();
        for (int b = 0; b < 3; ++b) {
          const DeltaBatch batch =
              RandomBatch(map, base.rows(), base.cols(), 30, &rng);
          DeltaApplyStats stats;
          ASSERT_TRUE(session->ApplyDeltas(batch, &stats).ok());
          ApplyToMap(&map, batch);
          expect_fp = FoldFingerprint(expect_fp, batch.Hash());
          EXPECT_EQ(stats.version, static_cast<uint64_t>(b + 1));
          EXPECT_GT(stats.dirty_windows, 0);
          EXPECT_LE(stats.dirty_windows, stats.total_windows);
          EXPECT_EQ(stats.repacked, packed);
        }
        EXPECT_EQ(session->version(), 3u);
        EXPECT_EQ(session->content_fingerprint(), expect_fp);

        const CsrMatrix rebuilt = FromEdgeMap(map, base.rows(), base.cols());
        auto cold = Runtime::Default()->OpenSession(&rebuilt, options);
        ASSERT_TRUE(cold->WaitReady().ok());
        DenseMatrix z_streamed, z_cold;
        ASSERT_TRUE(session->Multiply(x, &z_streamed, nullptr).ok());
        ASSERT_TRUE(cold->Multiply(x, &z_cold, nullptr).ok());
        EXPECT_TRUE(BitIdentical(z_streamed, z_cold));
        EXPECT_EQ(z_streamed.MaxAbsDifference(ReferenceSpmm(rebuilt, x)), 0.0);
        SetActiveSimdLevel(prev);
      }
    }
  }
}

TEST(SessionStreamTest, PatchedPlanJoinsThePlanCacheUnderFoldedFingerprint) {
  Runtime runtime;  // isolated cache
  const CsrMatrix base = StreamMatrix(15);
  auto session = runtime.OpenSession(&base, Fp32());
  ASSERT_TRUE(session->WaitReady().ok());
  const int64_t cold_insertions = runtime.plan_cache_stats().insertions;

  EdgeMap map = ToEdgeMap(base);
  Pcg32 rng(43);
  const DeltaBatch batch = RandomBatch(map, base.rows(), base.cols(), 20, &rng);
  ASSERT_TRUE(session->ApplyDeltas(batch).ok());
  // The patched plan was inserted under the folded fingerprint; the old
  // plan's entry is untouched, so both snapshots stay cached.
  EXPECT_EQ(runtime.plan_cache_stats().insertions, cold_insertions + 1);

  // A second session on the same base hits version 0's entry even though
  // the first session has moved on.
  auto again = runtime.OpenSession(&base, Fp32());
  ASSERT_TRUE(again->WaitReady().ok());
  EXPECT_TRUE(again->plan_from_cache());
}

TEST(SessionStreamTest, ErrorsLeaveTheSessionUntouched) {
  const CsrMatrix base = StreamMatrix(19);
  auto session = Runtime::Default()->OpenSession(&base, Fp32());
  ASSERT_TRUE(session->WaitReady().ok());
  Pcg32 x_rng(2);
  const DenseMatrix x = GenerateDense(base.cols(), 8, &x_rng);
  DenseMatrix z_before;
  ASSERT_TRUE(session->Multiply(x, &z_before, nullptr).ok());
  const uint64_t fp_before = session->content_fingerprint();

  // Deleting an absent edge fails...
  EdgeMap map = ToEdgeMap(base);
  int32_t hole = -1;
  for (int32_t c = 0; c < base.cols(); ++c) {
    if (map.find({0, c}) == map.end()) {
      hole = c;
      break;
    }
  }
  ASSERT_GE(hole, 0);
  const DeltaBatch absent = DeltaBatch::Make({}, {{0, hole, 0.0f}}).ValueOrDie();
  EXPECT_FALSE(session->ApplyDeltas(absent).ok());
  // ...as does an out-of-bounds batch...
  const DeltaBatch oob =
      DeltaBatch::Make({{base.rows(), 0, 1.0f}}, {}).ValueOrDie();
  EXPECT_FALSE(session->ApplyDeltas(oob).ok());
  // ...and nothing was published either time.
  EXPECT_EQ(session->version(), 0u);
  EXPECT_EQ(session->content_fingerprint(), fp_before);
  DenseMatrix z_after;
  ASSERT_TRUE(session->Multiply(x, &z_after, nullptr).ok());
  EXPECT_TRUE(BitIdentical(z_before, z_after));

  // Non-hcspmm kernels have no incremental plan to patch.
  auto baseline = Runtime::Default()->OpenSession(
      &base, SessionOptions(Fp32()).set_kernel("tcgnn"));
  ASSERT_TRUE(baseline->WaitReady().ok());
  const DeltaBatch ins = DeltaBatch::Make({{0, 0, 1.0f}}, {}).ValueOrDie();
  EXPECT_FALSE(baseline->ApplyDeltas(ins).ok());
}

TEST(SessionStreamTest, InFlightMultiplyFinishesOnItsSubmissionSnapshot) {
  // The version-pinning race: a multiply queued (but not yet running) on
  // version N must produce version N's result even though ApplyDeltas
  // publishes N+1 before the task runs; a multiply submitted after the
  // publish must see N+1. TSan runs this repeatedly in CI.
  const CsrMatrix base = StreamMatrix(23, 240, 0.05);
  Pcg32 x_rng(3);
  const DenseMatrix x = GenerateDense(base.cols(), 10, &x_rng);

  CsrMatrix abar = base;
  auto session = Runtime::Default()->OpenSession(&abar, Fp32());
  ASSERT_TRUE(session->WaitReady().ok());
  DenseMatrix z_v0;
  ASSERT_TRUE(session->Multiply(x, &z_v0, nullptr).ok());

  EdgeMap map = ToEdgeMap(base);
  Pcg32 rng(47);
  const DeltaBatch batch = RandomBatch(map, base.rows(), base.cols(), 30, &rng);
  ApplyToMap(&map, batch);
  const CsrMatrix rebuilt = FromEdgeMap(map, base.rows(), base.cols());
  DenseMatrix z_v1;
  {
    auto cold = Runtime::Default()->OpenSession(&rebuilt, Fp32());
    ASSERT_TRUE(cold->Multiply(x, &z_v1, nullptr).ok());
  }
  ASSERT_FALSE(BitIdentical(z_v0, z_v1));  // the batch must change the result

  // Plug stream 0 so the next submission stays queued while deltas land.
  std::atomic<bool> release{false};
  Future<bool> gate = session->SubmitAsync(
      [&release]() -> Status {
        while (!release.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        return Status::OK();
      },
      /*stream=*/0);
  Future<DenseMatrix> pinned_v0 = session->MultiplyAsync(x, nullptr, /*stream=*/0);

  ASSERT_TRUE(session->ApplyDeltas(batch).ok());  // publishes version 1
  Future<DenseMatrix> sees_v1 = session->MultiplyAsync(x, nullptr, /*stream=*/1);

  release.store(true, std::memory_order_release);
  ASSERT_TRUE(gate.status().ok());
  ASSERT_TRUE(pinned_v0.status().ok());
  ASSERT_TRUE(sees_v1.status().ok());
  EXPECT_TRUE(BitIdentical(pinned_v0.Get(), z_v0));
  EXPECT_TRUE(BitIdentical(sees_v1.Get(), z_v1));

  // Explicitly pinned snapshots survive later deltas too.
  auto v1_snapshot = session->CurrentVersion();
  const DeltaBatch more = RandomBatch(map, base.rows(), base.cols(), 20, &rng);
  ASSERT_TRUE(session->ApplyDeltas(more).ok());
  DenseMatrix z_pinned;
  ASSERT_TRUE(session->MultiplyOn(*v1_snapshot, x, &z_pinned, nullptr).ok());
  EXPECT_TRUE(BitIdentical(z_pinned, z_v1));
}

TEST(SessionStreamTest, RandomizedSoakMatchesFromScratchRebuilds) {
  // 500 deltas in 20 batches with a fixed printed seed; every 5 batches the
  // streamed session is compared bitwise against a cold session on a CSR
  // reconstructed from an independently maintained edge map.
  constexpr uint64_t kSoakSeed = 20260808;
  constexpr int kBatches = 20;
  constexpr int kDeltasPerBatch = 25;
  constexpr int kCheckEvery = 5;
  SCOPED_TRACE("soak seed=" + std::to_string(kSoakSeed));

  const CsrMatrix base = StreamMatrix(kSoakSeed, 320, 0.04);
  Pcg32 x_rng(4);
  const DenseMatrix x = GenerateDense(base.cols(), 16, &x_rng);
  const SessionOptions options =
      SessionOptions(Fp32(2)).set_compress_indices(true);
  CsrMatrix abar = base;
  auto session = Runtime::Default()->OpenSession(&abar, options);
  ASSERT_TRUE(session->WaitReady().ok());

  EdgeMap map = ToEdgeMap(base);
  Pcg32 rng(kSoakSeed);
  for (int b = 1; b <= kBatches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const DeltaBatch batch =
        RandomBatch(map, base.rows(), base.cols(), kDeltasPerBatch, &rng);
    ASSERT_TRUE(session->ApplyDeltas(batch).ok());
    ApplyToMap(&map, batch);
    if (b % kCheckEvery != 0) continue;
    const CsrMatrix rebuilt = FromEdgeMap(map, base.rows(), base.cols());
    auto cold = Runtime::Default()->OpenSession(&rebuilt, options);
    DenseMatrix z_streamed, z_cold, z_scalar;
    ASSERT_TRUE(session->Multiply(x, &z_streamed, nullptr).ok());
    ASSERT_TRUE(cold->Multiply(x, &z_cold, nullptr).ok());
    EXPECT_TRUE(BitIdentical(z_streamed, z_cold));
    const SimdLevel prev = SetActiveSimdLevel(SimdLevel::kScalar);
    ASSERT_TRUE(session->Multiply(x, &z_scalar, nullptr).ok());
    SetActiveSimdLevel(prev);
    EXPECT_TRUE(BitIdentical(z_streamed, z_scalar));
  }
  EXPECT_EQ(session->version(), static_cast<uint64_t>(kBatches));
}

// ---------------------------------------------------------------------------
// ShardedSession::ApplyDeltas

TEST(ShardedStreamTest, BitIdenticalToUnshardedColdRebuildForEveryK) {
  const CsrMatrix base = StreamMatrix(29, 320, 0.05);
  Pcg32 x_rng(5);
  const DenseMatrix x = GenerateDense(base.cols(), 12, &x_rng);

  for (const int k : {1, 2, 4, 7}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ShardingOptions sharding;
    sharding.num_shards = k;
    auto sharded =
        ShardedSession::Open(Runtime::Default(), base, Fp32(), sharding);
    ASSERT_TRUE(sharded->WaitReady().ok());
    EXPECT_EQ(sharded->generation(), 0u);

    EdgeMap map = ToEdgeMap(base);
    Pcg32 rng(53 + static_cast<uint64_t>(k));
    for (int b = 0; b < 3; ++b) {
      const DeltaBatch batch =
          RandomBatch(map, base.rows(), base.cols(), 40, &rng);
      DeltaApplyStats stats;
      ASSERT_TRUE(sharded->ApplyDeltas(batch, &stats).ok());
      ApplyToMap(&map, batch);
      EXPECT_EQ(stats.version, static_cast<uint64_t>(b + 1));
    }
    EXPECT_EQ(sharded->generation(), 3u);

    const CsrMatrix rebuilt = FromEdgeMap(map, base.rows(), base.cols());
    auto cold = Runtime::Default()->OpenSession(&rebuilt, Fp32());
    DenseMatrix z_sharded, z_cold;
    ASSERT_TRUE(sharded->Multiply(x, &z_sharded, nullptr).ok());
    ASSERT_TRUE(cold->Multiply(x, &z_cold, nullptr).ok());
    EXPECT_TRUE(BitIdentical(z_sharded, z_cold));

    // Async fan-outs pin one cross-shard state.
    Future<DenseMatrix> fut = sharded->MultiplyAsync(x);
    ASSERT_TRUE(fut.status().ok());
    EXPECT_TRUE(BitIdentical(fut.Get(), z_cold));
  }
}

TEST(ShardedStreamTest, SkewedChurnTriggersRepartitioning) {
  const CsrMatrix base = StreamMatrix(31, 320, 0.05);
  Pcg32 x_rng(6);
  const DenseMatrix x = GenerateDense(base.cols(), 8, &x_rng);

  ShardingOptions tight;
  tight.num_shards = 4;
  tight.rebalance_threshold = 1.05;  // repartition on mild imbalance
  auto sharded = ShardedSession::Open(Runtime::Default(), base, Fp32(), tight);
  ASSERT_TRUE(sharded->WaitReady().ok());

  // Pile inserts into the last shard's rows until the nnz balance drifts.
  EdgeMap map = ToEdgeMap(base);
  const int32_t row_begin = sharded->shard_range(3).row_begin;
  std::vector<EdgeDelta> ups;
  Pcg32 rng(59);
  std::map<std::pair<int32_t, int32_t>, int> used;
  while (static_cast<int>(ups.size()) < 300) {
    const int32_t r = row_begin + static_cast<int32_t>(rng.NextBounded(
                                      static_cast<uint32_t>(base.rows() - row_begin)));
    const int32_t c = static_cast<int32_t>(rng.NextBounded(base.cols()));
    if (map.count({r, c}) != 0 || !used.emplace(std::make_pair(r, c), 1).second) {
      continue;
    }
    ups.push_back({r, c, 1.0f});
  }
  const DeltaBatch skew = DeltaBatch::Make(std::move(ups), {}).ValueOrDie();
  DeltaApplyStats stats;
  ASSERT_TRUE(sharded->ApplyDeltas(skew, &stats).ok());
  ApplyToMap(&map, skew);
  EXPECT_TRUE(stats.repartitioned);
  EXPECT_EQ(sharded->generation(), 1u);

  // Rebalanced shards still tile [0, rows) and compute the same product.
  int32_t expected_begin = 0;
  for (int i = 0; i < sharded->num_shards(); ++i) {
    EXPECT_EQ(sharded->shard_range(i).row_begin, expected_begin);
    expected_begin = sharded->shard_range(i).row_end;
  }
  EXPECT_EQ(expected_begin, base.rows());
  const CsrMatrix rebuilt = FromEdgeMap(map, base.rows(), base.cols());
  auto cold = Runtime::Default()->OpenSession(&rebuilt, Fp32());
  DenseMatrix z_sharded, z_cold;
  ASSERT_TRUE(sharded->Multiply(x, &z_sharded, nullptr).ok());
  ASSERT_TRUE(cold->Multiply(x, &z_cold, nullptr).ok());
  EXPECT_TRUE(BitIdentical(z_sharded, z_cold));

  // An effectively-infinite threshold never repartitions.
  ShardingOptions loose;
  loose.num_shards = 4;
  loose.rebalance_threshold = 1e9;
  auto stable = ShardedSession::Open(Runtime::Default(), base, Fp32(), loose);
  ASSERT_TRUE(stable->WaitReady().ok());
  DeltaApplyStats loose_stats;
  ASSERT_TRUE(stable->ApplyDeltas(skew, &loose_stats).ok());
  EXPECT_FALSE(loose_stats.repartitioned);
  DenseMatrix z_stable;
  ASSERT_TRUE(stable->Multiply(x, &z_stable, nullptr).ok());
  EXPECT_TRUE(BitIdentical(z_stable, z_cold));
}

TEST(ShardedStreamTest, InapplicableBatchLeavesEveryShardUntouched) {
  const CsrMatrix base = StreamMatrix(37, 160, 0.05);
  ShardingOptions sharding;
  sharding.num_shards = 3;
  auto sharded = ShardedSession::Open(Runtime::Default(), base, Fp32(), sharding);
  ASSERT_TRUE(sharded->WaitReady().ok());
  Pcg32 x_rng(7);
  const DenseMatrix x = GenerateDense(base.cols(), 8, &x_rng);
  DenseMatrix z_before;
  ASSERT_TRUE(sharded->Multiply(x, &z_before, nullptr).ok());

  // One valid upsert in shard 0 plus one delete-of-absent in the last shard:
  // cross-shard pre-validation must reject the whole batch atomically (no
  // shard applies its slice).
  EdgeMap map = ToEdgeMap(base);
  const int32_t last_row = base.rows() - 1;
  int32_t hole = -1;
  for (int32_t c = 0; c < base.cols(); ++c) {
    if (map.find({last_row, c}) == map.end()) {
      hole = c;
      break;
    }
  }
  ASSERT_GE(hole, 0);
  const DeltaBatch bad =
      DeltaBatch::Make({{0, 0, 9.0f}}, {{last_row, hole, 0.0f}}).ValueOrDie();
  EXPECT_FALSE(sharded->ApplyDeltas(bad).ok());
  EXPECT_EQ(sharded->generation(), 0u);
  DenseMatrix z_after;
  ASSERT_TRUE(sharded->Multiply(x, &z_after, nullptr).ok());
  EXPECT_TRUE(BitIdentical(z_before, z_after));
}

// ---------------------------------------------------------------------------
// SessionPool + Server streaming admission

TEST(PoolStreamTest, ApplyDeltasRekeysResidentAndNonResidentEntries) {
  // A plain Session and a sharded backend (K = 3) behind the pool.
  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    Runtime rt;
    SessionPoolOptions opts;
    opts.max_sessions = 4;
    opts.session = Fp32();
    opts.num_shards = shards;
    SessionPool pool(&rt, opts);

    const CsrMatrix base = StreamMatrix(41, 200, 0.05);
    Pcg32 x_rng(8);
    const DenseMatrix x = GenerateDense(base.cols(), 8, &x_rng);
    EdgeMap map = ToEdgeMap(base);
    Pcg32 rng(61);
    const DeltaBatch batch = RandomBatch(map, base.rows(), base.cols(), 30, &rng);
    ApplyToMap(&map, batch);
    const CsrMatrix rebuilt = FromEdgeMap(map, base.rows(), base.cols());
    DenseMatrix z_expect;
    {
      auto direct = rt.OpenSession(&rebuilt, Fp32());
      ASSERT_TRUE(direct->Multiply(x, &z_expect, nullptr).ok());
    }

    // Resident path: the open session is patched in place.
    {
      CsrMatrix copy = base;
      const uint64_t handle = pool.RegisterGraph(std::move(copy));
      auto acquired = pool.Acquire(handle);
      ASSERT_TRUE(acquired.ok());
      ASSERT_TRUE(acquired.ValueOrDie()->WaitReady().ok());
      DeltaApplyStats stats;
      auto rekeyed = pool.ApplyDeltas(handle, batch, &stats);
      ASSERT_TRUE(rekeyed.ok()) << rekeyed.status().message();
      const uint64_t new_handle = rekeyed.ValueOrDie();
      EXPECT_EQ(new_handle, FoldFingerprint(handle, batch.Hash()));
      EXPECT_FALSE(pool.HasGraph(handle));  // old handle forgotten
      ASSERT_TRUE(pool.HasGraph(new_handle));
      EXPECT_EQ(stats.version, 1u);

      auto again = pool.Acquire(new_handle);
      ASSERT_TRUE(again.ok());
      DenseMatrix z;
      ASSERT_TRUE(again.ValueOrDie()->Multiply(x, &z, nullptr).ok());
      EXPECT_TRUE(BitIdentical(z, z_expect));
      // The pool stored the patched matrix: a reopen after eviction agrees.
      ASSERT_TRUE(pool.Evict(new_handle));
      auto reopened = pool.Acquire(new_handle);
      ASSERT_TRUE(reopened.ok());
      ASSERT_TRUE(reopened.ValueOrDie()->Multiply(x, &z, nullptr).ok());
      EXPECT_TRUE(BitIdentical(z, z_expect));
      ASSERT_TRUE(pool.Unregister(new_handle).ok());
    }

    // Non-resident path: only the stored CSR is patched; the session opened
    // later builds on the patched content.
    {
      CsrMatrix copy = base;
      const uint64_t handle = pool.RegisterGraph(std::move(copy));
      auto rekeyed = pool.ApplyDeltas(handle, batch);
      ASSERT_TRUE(rekeyed.ok());
      auto acquired = pool.Acquire(rekeyed.ValueOrDie());
      ASSERT_TRUE(acquired.ok());
      DenseMatrix z;
      ASSERT_TRUE(acquired.ValueOrDie()->Multiply(x, &z, nullptr).ok());
      EXPECT_TRUE(BitIdentical(z, z_expect));
    }

    // Unknown handles fail without side effects.
    EXPECT_EQ(pool.ApplyDeltas(0xdeadbeef, batch).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(pool.Unregister(0xdeadbeef).code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServerStreamTest, StreamingAdmissionRefusedWhileRequestsAreQueued) {
  Runtime rt;
  ServerOptions opts;
  opts.pool.max_sessions = 2;
  opts.pool.session = Fp32();
  opts.max_batch = 64;
  opts.batch_window_us = 60'000'000;  // nothing dispatches until Shutdown
  Server server(&rt, opts);

  CsrMatrix base = StreamMatrix(43, 200, 0.05);
  const CsrMatrix kept = base;
  const uint64_t handle = server.RegisterGraph(std::move(base));
  Pcg32 x_rng(9);
  const DenseMatrix x = GenerateDense(kept.cols(), 8, &x_rng);

  InferRequest req;
  req.tenant = "t";
  req.graph = handle;
  req.x = x;
  Future<DenseMatrix> fut = server.Submit(std::move(req));
  // status() would block until the batch window drains; the request must
  // still be queued when the mutations below probe the server.
  ASSERT_TRUE(fut.valid());
  ASSERT_FALSE(fut.ready());

  EdgeMap map = ToEdgeMap(kept);
  Pcg32 rng(67);
  const DeltaBatch batch = RandomBatch(map, kept.rows(), kept.cols(), 20, &rng);

  // Queued request => both mutations refuse with the retryable code, and
  // the handle still answers.
  EXPECT_EQ(server.RegisterGraph(handle, batch).status().code(),
            StatusCode::kOverloaded);
  EXPECT_EQ(server.UnregisterGraph(handle).code(), StatusCode::kOverloaded);
  EXPECT_TRUE(server.pool()->HasGraph(handle));

  server.Shutdown();  // drains the queue; the future resolves
  ASSERT_TRUE(fut.status().ok());
  EXPECT_EQ(fut.Get().rows(), kept.rows());

  // Drained: unregister now succeeds (streaming admission is refused after
  // Shutdown instead, like Submit).
  EXPECT_EQ(server.RegisterGraph(handle, batch).status().code(),
            StatusCode::kInternal);
  EXPECT_TRUE(server.UnregisterGraph(handle).ok());
  EXPECT_FALSE(server.pool()->HasGraph(handle));
}

TEST(ServerStreamTest, StreamingAdmissionPatchesAndServesTheNewHandle) {
  Runtime rt;
  ServerOptions opts;
  opts.pool.max_sessions = 2;
  opts.pool.session = Fp32();
  opts.max_batch = 4;
  opts.batch_window_us = 0;
  Server server(&rt, opts);

  CsrMatrix base = StreamMatrix(47, 200, 0.05);
  const CsrMatrix kept = base;
  const uint64_t handle = server.RegisterGraph(std::move(base));
  Pcg32 x_rng(10);
  const DenseMatrix x = GenerateDense(kept.cols(), 8, &x_rng);

  // Serve one request and let it complete so nothing is queued or in flight.
  {
    InferRequest req;
    req.tenant = "t";
    req.graph = handle;
    req.x = x;
    Future<DenseMatrix> fut = server.Submit(std::move(req));
    ASSERT_TRUE(fut.status().ok());
    (void)fut.Get();
  }

  EdgeMap map = ToEdgeMap(kept);
  Pcg32 rng(71);
  const DeltaBatch batch = RandomBatch(map, kept.rows(), kept.cols(), 25, &rng);
  DeltaApplyStats stats;
  auto rekeyed = server.RegisterGraph(handle, batch, &stats);
  ASSERT_TRUE(rekeyed.ok()) << rekeyed.status().message();
  const uint64_t new_handle = rekeyed.ValueOrDie();
  EXPECT_EQ(new_handle, FoldFingerprint(handle, batch.Hash()));

  // The old handle is gone; the new one serves the patched product.
  {
    InferRequest req;
    req.tenant = "t";
    req.graph = handle;
    req.x = x;
    EXPECT_EQ(server.Submit(std::move(req)).status().code(),
              StatusCode::kInvalidArgument);
  }
  ApplyToMap(&map, batch);
  const CsrMatrix rebuilt = FromEdgeMap(map, kept.rows(), kept.cols());
  DenseMatrix z_expect;
  {
    auto direct = rt.OpenSession(&rebuilt, Fp32());
    ASSERT_TRUE(direct->Multiply(x, &z_expect, nullptr).ok());
  }
  InferRequest req;
  req.tenant = "t";
  req.graph = new_handle;
  req.x = x;
  Future<DenseMatrix> fut = server.Submit(std::move(req));
  ASSERT_TRUE(fut.status().ok());
  EXPECT_TRUE(BitIdentical(fut.Get(), z_expect));

  server.Shutdown();
  EXPECT_TRUE(server.UnregisterGraph(new_handle).ok());
}

}  // namespace
}  // namespace hcspmm
