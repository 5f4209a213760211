// Cross-cutting property tests: invariants that must hold for every kernel,
// data type, device, and window height — swept with parameterized gtest.
#include <gtest/gtest.h>

#include "core/hybrid_spmm.h"
#include "gpusim/scheduler.h"
#include "graph/generators.h"
#include "sparse/convert.h"
#include "sparse/generate.h"
#include "sparse/reference.h"
#include "util/random.h"

namespace hcspmm {
namespace {

// ---- Property: every kernel, on every device, at every dtype, produces a
// result within the dtype's rounding tolerance of the reference. ----

struct SweepCase {
  std::string kernel;
  std::string device;
  DataType dtype;
};

class KernelSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KernelSweepTest, CorrectWithinDtypeTolerance) {
  const SweepCase& tc = GetParam();
  Pcg32 rng(2024);
  CsrMatrix a = GenerateUniformSparse(96, 96, 0.08, &rng);
  DenseMatrix x = GenerateDense(96, 24, &rng);
  DenseMatrix expected = ReferenceSpmm(a, x);

  auto kernel = MakeKernel(tc.kernel);
  ASSERT_NE(kernel, nullptr);
  KernelOptions opts;
  opts.dtype = tc.dtype;
  DenseMatrix z;
  KernelProfile prof;
  ASSERT_TRUE(kernel->Run(a, x, DeviceByName(tc.device), opts, &z, &prof).ok());
  // FP16/BF16 round to ~2-3 decimal digits; TF32 to ~3; FP32 exact.
  const double tol = (tc.dtype == DataType::kFp32)   ? 1e-4
                     : (tc.dtype == DataType::kTf32) ? 5e-2
                                                     : 2e-1;
  EXPECT_LT(z.MaxAbsDifference(expected), tol);
  EXPECT_GT(prof.time_ns, 0.0);
}

std::vector<SweepCase> MakeSweep() {
  std::vector<SweepCase> cases;
  for (const std::string& k : RegisteredKernelNames()) {
    for (const char* dev : {"3090", "4090", "A100"}) {
      for (DataType t : {DataType::kFp32, DataType::kTf32, DataType::kFp16,
                         DataType::kBf16}) {
        cases.push_back({k, dev, t});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsDevicesDtypes, KernelSweepTest, ::testing::ValuesIn(MakeSweep()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.kernel + "_" + info.param.device + "_" +
             DataTypeName(info.param.dtype);
    });

// ---- Property: simulated time scales (weakly) monotonically with work. ----

class WorkScalingTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkScalingTest, MoreNonzerosNeverFaster) {
  Pcg32 rng(7);
  CsrMatrix sparse = GenerateUniformSparse(256, 256, 0.02, &rng);
  CsrMatrix dense = GenerateUniformSparse(256, 256, 0.10, &rng);
  DenseMatrix x = GenerateDense(256, 32, &rng);
  auto kernel = MakeKernel(GetParam());
  DenseMatrix z;
  KernelProfile p_sparse, p_dense;
  ASSERT_TRUE(kernel->Run(sparse, x, Rtx3090(), KernelOptions{}, &z, &p_sparse).ok());
  ASSERT_TRUE(kernel->Run(dense, x, Rtx3090(), KernelOptions{}, &z, &p_dense).ok());
  EXPECT_GE(p_dense.time_ns, p_sparse.time_ns) << GetParam();
}

TEST_P(WorkScalingTest, WiderDenseMatrixNeverFaster) {
  Pcg32 rng(8);
  CsrMatrix a = GenerateUniformSparse(128, 128, 0.06, &rng);
  DenseMatrix x16 = GenerateDense(128, 16, &rng);
  DenseMatrix x96 = GenerateDense(128, 96, &rng);
  auto kernel = MakeKernel(GetParam());
  DenseMatrix z;
  KernelProfile p16, p96;
  ASSERT_TRUE(kernel->Run(a, x16, Rtx3090(), KernelOptions{}, &z, &p16).ok());
  ASSERT_TRUE(kernel->Run(a, x96, Rtx3090(), KernelOptions{}, &z, &p96).ok());
  EXPECT_GE(p96.time_ns, p16.time_ns) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllKernels, WorkScalingTest,
                         ::testing::ValuesIn(std::vector<const char*>{
                             "cuda_basic", "cuda_opt", "tensor_basic",
                             "tensor_opt", "hcspmm", "cusparse", "sputnik",
                             "gespmm", "tcgnn", "dtcspmm"}));

// ---- Property: hybrid result is invariant to row permutations of A (up to
// matching output permutation), because routing is per-window. ----

TEST(PermutationInvarianceTest, RowPermutationPermutesResult) {
  Pcg32 rng(9);
  Graph g = MoleculeUnion(160, 700, 20, 8, &rng);
  CsrMatrix a = g.adjacency;
  DenseMatrix x = GenerateDense(a.cols(), 16, &rng);

  std::vector<int32_t> perm(a.rows());
  for (int32_t i = 0; i < a.rows(); ++i) perm[i] = i;
  rng.Shuffle(&perm);
  CsrMatrix pa = PermuteSymmetric(a, perm);
  // Permute X rows the same way so pa * px == perm(a * x) row-wise.
  DenseMatrix px(x.rows(), x.cols());
  for (int32_t r = 0; r < x.rows(); ++r) {
    for (int32_t c = 0; c < x.cols(); ++c) px.At(perm[r], c) = x.At(r, c);
  }

  HcSpmm kernel;
  KernelOptions opts;
  opts.dtype = DataType::kFp32;
  DenseMatrix z, pz;
  KernelProfile p1, p2;
  ASSERT_TRUE(kernel.Run(a, x, Rtx3090(), opts, &z, &p1).ok());
  ASSERT_TRUE(kernel.Run(pa, px, Rtx3090(), opts, &pz, &p2).ok());
  for (int32_t r = 0; r < a.rows(); ++r) {
    for (int32_t c = 0; c < x.cols(); ++c) {
      EXPECT_NEAR(pz.At(perm[r], c), z.At(r, c), 1e-4);
    }
  }
}

// ---- Property: scheduler makespan bounds. ----

class SchedulerPropertyTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(SchedulerPropertyTest, MakespanBetweenLowerAndSerialBound) {
  Pcg32 rng(100 + GetParam());
  std::vector<double> blocks;
  double total = 0.0, max_block = 0.0;
  for (int i = 0; i < GetParam(); ++i) {
    double c = rng.NextDouble(1.0, 1000.0);
    blocks.push_back(c);
    total += c;
    max_block = std::max(max_block, c);
  }
  const int32_t sms = 82;
  const double makespan = ScheduleBlocks(blocks, sms);
  EXPECT_GE(makespan + 1e-9, total / sms);                 // work lower bound
  EXPECT_GE(makespan + 1e-9, max_block / kMaxBlockOverlap);  // latency bound
  EXPECT_LE(makespan, total + 1e-9);                       // serial upper bound
}

INSTANTIATE_TEST_SUITE_P(Sizes, SchedulerPropertyTest,
                         ::testing::Values(1, 5, 82, 100, 1000, 5000));

// ---- Property: preprocessing plan is deterministic and stable. ----

TEST(PlanDeterminismTest, SameInputsSamePlan) {
  Pcg32 rng(11);
  CsrMatrix a = GenerateUniformSparse(200, 200, 0.05, &rng);
  auto p1 = Preprocess(a, Rtx3090(), DefaultSelectorModel());
  auto p2 = Preprocess(a, Rtx3090(), DefaultSelectorModel());
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1.ValueOrDie().windows_cuda, p2.ValueOrDie().windows_cuda);
  EXPECT_EQ(p1.ValueOrDie().windows_tensor, p2.ValueOrDie().windows_tensor);
  for (size_t i = 0; i < p1.ValueOrDie().assignment.size(); ++i) {
    EXPECT_EQ(p1.ValueOrDie().assignment[i], p2.ValueOrDie().assignment[i]);
  }
}

// ---- Property: window heights other than 16 still cover and compute. ----

class WindowHeightTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(WindowHeightTest, PartitionCoversAndSums) {
  Pcg32 rng(12);
  CsrMatrix a = GenerateUniformSparse(101, 77, 0.08, &rng);
  WindowedCsr w = BuildWindows(a, GetParam());
  EXPECT_EQ(w.TotalNnz(), a.nnz());
  int32_t covered = 0;
  for (const RowWindow& win : w.windows) covered += win.num_rows;
  EXPECT_EQ(covered, a.rows());
}

INSTANTIATE_TEST_SUITE_P(Heights, WindowHeightTest, ::testing::Values(1, 4, 8, 16, 32, 128));

// ---- Property: Tensor-core cost is monotone in the column-tile count. ----

TEST(CostMonotonicityTest, TensorCostMonotoneInColumns) {
  const DeviceSpec dev = Rtx3090();
  double prev = 0.0;
  for (int32_t cols = 8; cols <= 256; cols *= 2) {
    WindowShape w;
    w.rows = 16;
    w.dim = 32;
    w.nnz = 64;
    w.unique_cols = cols;
    const double c = TensorWindowCost(w, TensorPathTuning{}, dev, DataType::kTf32)
                         .BlockCycles();
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(CostMonotonicityTest, CudaCostMonotoneInNnz) {
  const DeviceSpec dev = Rtx3090();
  double prev = 0.0;
  for (int64_t nnz = 16; nnz <= 4096; nnz *= 4) {
    WindowShape w;
    w.rows = 16;
    w.dim = 32;
    w.nnz = nnz;
    w.unique_cols = 32;
    const double c =
        CudaWindowCost(w, CudaPathTuning{}, dev, DataType::kTf32).BlockCycles();
    EXPECT_GT(c, prev);
    prev = c;
  }
}

}  // namespace
}  // namespace hcspmm
