#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>

#include "kernels/cuda_basic.h"
#include "kernels/cuda_optimized.h"
#include "kernels/spmm_kernel.h"
#include "kernels/tensor_basic.h"
#include "kernels/tensor_optimized.h"
#include "sparse/convert.h"
#include "sparse/generate.h"
#include "sparse/reference.h"
#include "util/random.h"

namespace hcspmm {
namespace {

struct KernelCase {
  const char* kernel;
  int32_t rows;
  int32_t cols;
  double density;
  int32_t dim;
};

class KernelCorrectnessTest : public ::testing::TestWithParam<KernelCase> {};

bool SameBits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && !a.reduced_storage() &&
         !b.reduced_storage() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// Outputs a caller may hand a kernel besides an empty one: NaN-filled at the
// right shape (kept and overwritten in place), the wrong shape, and
// reduced-precision storage (both replaced).
std::vector<DenseMatrix> UsedOutputs(int32_t rows, int32_t dim) {
  std::vector<DenseMatrix> out;
  out.emplace_back(rows, dim, std::numeric_limits<float>::quiet_NaN());
  out.emplace_back(rows + 3, dim + 1, 7.0f);
  out.push_back(DenseMatrix(rows, dim, 5.0f).ToPrecision(FeaturePrecision::kFp16));
  return out;
}

TEST_P(KernelCorrectnessTest, MatchesReferenceAtFp32) {
  const KernelCase& tc = GetParam();
  Pcg32 rng(1234 + tc.rows + tc.dim);
  CsrMatrix a = GenerateUniformSparse(tc.rows, tc.cols, tc.density, &rng);
  DenseMatrix x = GenerateDense(tc.cols, tc.dim, &rng);
  DenseMatrix expected = ReferenceSpmm(a, x);

  auto kernel = MakeKernel(tc.kernel);
  ASSERT_NE(kernel, nullptr);
  KernelOptions opts;
  opts.dtype = DataType::kFp32;  // disable rounding for bit-exact check
  DenseMatrix z;
  KernelProfile prof;
  ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), opts, &z, &prof).ok());
  EXPECT_LT(z.MaxAbsDifference(expected), 1e-4)
      << tc.kernel << " deviates from reference";
  EXPECT_GT(prof.time_ns, 0.0);
  EXPECT_GT(prof.blocks, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllShapes, KernelCorrectnessTest,
    ::testing::ValuesIn(std::vector<KernelCase>{
        // Every kernel on a small irregular shape.
        {"cuda_basic", 50, 60, 0.10, 32},
        {"cuda_opt", 50, 60, 0.10, 32},
        {"tensor_basic", 50, 60, 0.10, 32},
        {"tensor_opt", 50, 60, 0.10, 32},
        {"hcspmm", 50, 60, 0.10, 32},
        {"cusparse", 50, 60, 0.10, 32},
        {"sputnik", 50, 60, 0.10, 32},
        {"gespmm", 50, 60, 0.10, 32},
        {"tcgnn", 50, 60, 0.10, 32},
        {"dtcspmm", 50, 60, 0.10, 32},
        // Unaligned dense dimensions (the Generalization case).
        {"cuda_opt", 64, 64, 0.08, 47},
        {"hcspmm", 64, 64, 0.08, 47},
        {"tensor_opt", 64, 64, 0.08, 47},
        {"hcspmm", 33, 70, 0.12, 89},
        // Tall/wide and dense-ish.
        {"hcspmm", 200, 40, 0.05, 16},
        {"hcspmm", 16, 300, 0.02, 96},
        {"hcspmm", 128, 128, 0.40, 32},
    }),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(info.param.kernel) + "_" +
             std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols) + "d" +
             std::to_string(info.param.dim) + "_" + std::to_string(info.index);
    });

TEST(KernelTest, ShapeMismatchRejected) {
  Pcg32 rng(1);
  CsrMatrix a = GenerateUniformSparse(10, 12, 0.2, &rng);
  DenseMatrix x(13, 8);  // wrong inner dim
  for (const std::string& name : RegisteredKernelNames()) {
    auto kernel = MakeKernel(name);
    DenseMatrix z;
    KernelProfile prof;
    Status st = kernel->Run(a, x, Rtx3090(), KernelOptions{}, &z, &prof);
    EXPECT_FALSE(st.ok()) << name << " accepted mismatched shapes";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

TEST(KernelTest, RegistryKnowsAllKernels) {
  for (const std::string& name : RegisteredKernelNames()) {
    auto kernel = MakeKernel(name);
    ASSERT_NE(kernel, nullptr) << name;
    EXPECT_EQ(kernel->name(), name);
  }
  EXPECT_EQ(MakeKernel("no_such_kernel"), nullptr);
}

TEST(KernelTest, RegisteredKernelNamesMatchesRegistry) {
  const std::vector<std::string>& names = RegisteredKernelNames();
  EXPECT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_NE(MakeKernel(name), nullptr) << name;
  }
  // Stable, duplicate-free listing (error messages depend on it).
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(KernelTest, EmptyMatrixProducesZeros) {
  CooMatrix coo(32, 32);
  CsrMatrix a = CooToCsr(coo);
  Pcg32 rng(2);
  DenseMatrix x = GenerateDense(32, 16, &rng);
  for (const std::string& name : RegisteredKernelNames()) {
    auto kernel = MakeKernel(name);
    std::vector<DenseMatrix> outputs = UsedOutputs(a.rows(), x.cols());
    outputs.emplace_back();
    for (DenseMatrix& z : outputs) {
      KernelProfile prof;
      ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), KernelOptions{}, &z, &prof).ok())
          << name;
      ASSERT_EQ(z.rows(), a.rows()) << name;
      ASSERT_EQ(z.cols(), x.cols()) << name;
      for (float v : z.data()) EXPECT_EQ(v, 0.0f) << name;
    }
  }
}

TEST(KernelTest, MatrixWithEmptyRowsAndDenseRows) {
  // Rows 0..15 empty (a window with nnz == 0), row 16 fully dense, rest
  // sparse.
  CooMatrix coo(48, 48);
  for (int c = 0; c < 48; ++c) coo.Add(16, c, 1.0f);
  coo.Add(40, 3, 2.0f);
  CsrMatrix a = CooToCsr(coo);
  Pcg32 rng(3);
  DenseMatrix x = GenerateDense(48, 24, &rng);
  DenseMatrix expected = ReferenceSpmm(a, x);
  for (DataType dtype : {DataType::kFp32, DataType::kTf32}) {
    KernelOptions opts;
    opts.dtype = dtype;
    for (const std::string& name : RegisteredKernelNames()) {
      auto kernel = MakeKernel(name);
      DenseMatrix fresh;
      KernelProfile prof;
      ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), opts, &fresh, &prof).ok());
      if (dtype == DataType::kFp32) {
        EXPECT_LT(fresh.MaxAbsDifference(expected), 1e-4) << name;
      }
      // Any output the caller passes in, and the same one again, ends up
      // bitwise equal to the fresh result.
      for (DenseMatrix& z : UsedOutputs(a.rows(), x.cols())) {
        for (int repeat = 0; repeat < 2; ++repeat) {
          ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), opts, &z, nullptr).ok());
          EXPECT_TRUE(SameBits(fresh, z)) << name << " repeat " << repeat;
        }
      }
    }
  }
}

TEST(KernelTest, OutputAliasingInputRejected) {
  Pcg32 rng(6);
  CsrMatrix a = GenerateUniformSparse(40, 40, 0.1, &rng);
  const DenseMatrix x0 = GenerateDense(40, 40, &rng);
  for (const std::string& name : RegisteredKernelNames()) {
    auto kernel = MakeKernel(name);
    DenseMatrix x = x0;
    Status st = kernel->Run(a, x, Rtx3090(), KernelOptions{}, &x, nullptr);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_TRUE(SameBits(x0, x)) << name << " modified its input";
  }
}

TEST(KernelTest, Tf32RoundingIsCloseButNotExact) {
  Pcg32 rng(4);
  CsrMatrix a = GenerateUniformSparse(64, 64, 0.15, &rng);
  DenseMatrix x = GenerateDense(64, 32, &rng);
  DenseMatrix expected = ReferenceSpmm(a, x);
  auto kernel = MakeKernel("tensor_opt");
  KernelOptions opts;
  opts.dtype = DataType::kTf32;
  DenseMatrix z;
  KernelProfile prof;
  ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), opts, &z, &prof).ok());
  // Within TF32 tolerance but typically not bit-exact.
  EXPECT_LT(z.MaxAbsDifference(expected), 5e-2);
}

TEST(KernelTest, Fp16LessAccurateThanTf32) {
  Pcg32 rng(5);
  CsrMatrix a = GenerateUniformSparse(64, 64, 0.2, &rng);
  DenseMatrix x = GenerateDense(64, 32, &rng);
  DenseMatrix expected = ReferenceSpmm(a, x);
  auto kernel = MakeKernel("tensor_opt");
  DenseMatrix z_tf32, z_bf16;
  KernelProfile p;
  KernelOptions o1, o2;
  o1.dtype = DataType::kTf32;
  o2.dtype = DataType::kBf16;
  ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), o1, &z_tf32, &p).ok());
  ASSERT_TRUE(kernel->Run(a, x, Rtx3090(), o2, &z_bf16, &p).ok());
  EXPECT_LT(z_tf32.MaxAbsDifference(expected), z_bf16.MaxAbsDifference(expected));
}

TEST(KernelProfileTest, CudaKernelIsComputeBoundTensorIsMemoryBound) {
  Pcg32 rng(6);
  CsrMatrix a = GenerateUniformSparse(160, 160, 0.10, &rng);
  DenseMatrix x = GenerateDense(160, 32, &rng);
  DenseMatrix z;
  KernelProfile cuda_prof, tensor_prof;
  ASSERT_TRUE(MakeKernel("cuda_opt")->Run(a, x, Rtx3090(), KernelOptions{}, &z, &cuda_prof).ok());
  ASSERT_TRUE(MakeKernel("tensor_opt")->Run(a, x, Rtx3090(), KernelOptions{}, &z, &tensor_prof).ok());
  EXPECT_LT(cuda_prof.CudaMemToCompute(), 1.0);    // Table I m/c(C) < 1
  EXPECT_GT(tensor_prof.TensorMemToCompute(), 1.0);  // Table I m/c(T) > 1
}

TEST(KernelProfileTest, OptimizedCudaFasterThanBasic) {
  Pcg32 rng(7);
  CsrMatrix a = GenerateUniformSparse(320, 320, 0.05, &rng);
  DenseMatrix x = GenerateDense(320, 47, &rng);  // unaligned dim
  DenseMatrix z;
  KernelProfile basic, opt;
  ASSERT_TRUE(MakeKernel("cuda_basic")->Run(a, x, Rtx3090(), KernelOptions{}, &z, &basic).ok());
  ASSERT_TRUE(MakeKernel("cuda_opt")->Run(a, x, Rtx3090(), KernelOptions{}, &z, &opt).ok());
  EXPECT_LT(opt.time_ns, basic.time_ns);
}

TEST(KernelProfileTest, OptimizedTensorFasterThanBasic) {
  Pcg32 rng(8);
  CsrMatrix a = GenerateUniformSparse(320, 320, 0.08, &rng);
  DenseMatrix x = GenerateDense(320, 32, &rng);
  DenseMatrix z;
  KernelProfile basic, opt;
  ASSERT_TRUE(MakeKernel("tensor_basic")->Run(a, x, Rtx3090(), KernelOptions{}, &z, &basic).ok());
  ASSERT_TRUE(MakeKernel("tensor_opt")->Run(a, x, Rtx3090(), KernelOptions{}, &z, &opt).ok());
  EXPECT_LT(opt.time_ns, basic.time_ns);
  EXPECT_GT(basic.bank_conflicts, 0);
  EXPECT_EQ(opt.bank_conflicts, 0);
}

TEST(KernelProfileTest, NullProfileSkipsMetering) {
  Pcg32 rng(9);
  CsrMatrix a = GenerateUniformSparse(32, 32, 0.1, &rng);
  DenseMatrix x = GenerateDense(32, 16, &rng);
  DenseMatrix z;
  EXPECT_TRUE(MakeKernel("cuda_opt")->Run(a, x, Rtx3090(), KernelOptions{}, &z, nullptr).ok());
  EXPECT_EQ(z.rows(), 32);
}

TEST(KernelProfileTest, ProfilingDoesNotChangeNumericOutput) {
  // Metering is a pure observer: cuda_opt's windows exist only for cost
  // accounting, so running with a profile, without one, or with prebuilt
  // windows must yield bitwise-identical products.
  Pcg32 rng(19);
  CsrMatrix a = GenerateUniformSparse(90, 70, 0.08, &rng);
  DenseMatrix x = GenerateDense(70, 24, &rng);
  CudaOptimizedSpmm kernel;
  KernelOptions opts;
  opts.dtype = DataType::kFp32;

  DenseMatrix z_plain, z_profiled, z_windows;
  KernelProfile prof, prof_windows;
  ASSERT_TRUE(kernel.Run(a, x, Rtx3090(), opts, &z_plain, nullptr).ok());
  ASSERT_TRUE(kernel.Run(a, x, Rtx3090(), opts, &z_profiled, &prof).ok());
  const WindowedCsr windows = BuildWindows(a);
  ASSERT_TRUE(kernel
                  .RunWithWindows(windows, a, x, Rtx3090(), opts, &z_windows,
                                  &prof_windows)
                  .ok());
  EXPECT_EQ(z_plain.MaxAbsDifference(z_profiled), 0.0);
  EXPECT_EQ(z_plain.MaxAbsDifference(z_windows), 0.0);
  // Reused windows meter exactly like freshly built ones.
  EXPECT_EQ(prof.time_ns, prof_windows.time_ns);
  EXPECT_EQ(prof.blocks, prof_windows.blocks);
  EXPECT_GT(prof.time_ns, 0.0);
}

class SparsitySweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SparsitySweepTest, DenserMatricesFavorTensorCores) {
  // Reproduces the Fig. 1(a) trend at kernel granularity: relative Tensor
  // advantage must grow monotonically as density rises.
  const double sparsity = GetParam();
  Pcg32 rng(42);
  CsrMatrix a = GenerateBlockedMatrix(256, 128, sparsity, &rng);
  DenseMatrix x = GenerateDense(128, 32, &rng);
  DenseMatrix z;
  KernelProfile cuda, tensor;
  ASSERT_TRUE(MakeKernel("cuda_opt")->Run(a, x, Rtx3090(), KernelOptions{}, &z, &cuda).ok());
  ASSERT_TRUE(MakeKernel("tensor_opt")->Run(a, x, Rtx3090(), KernelOptions{}, &z, &tensor).ok());
  if (sparsity <= 0.75) {
    EXPECT_LT(tensor.time_ns, cuda.time_ns) << "dense case should favor Tensor";
  }
  if (sparsity >= 0.93) {
    EXPECT_LT(cuda.time_ns, tensor.time_ns) << "sparse case should favor CUDA";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SparsitySweepTest,
                         ::testing::Values(0.60, 0.70, 0.75, 0.93, 0.95));

}  // namespace
}  // namespace hcspmm
