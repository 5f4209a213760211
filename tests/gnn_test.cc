#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gnn/dense_ops.h"
#include "gnn/fused.h"
#include "gnn/gcn.h"
#include "gnn/gin.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "shard/sharded_session.h"
#include "sparse/generate.h"
#include "sparse/reference.h"
#include "util/random.h"

namespace hcspmm {
namespace {

Graph TestGraph(int n = 200, uint64_t seed = 11) {
  Pcg32 rng(seed);
  Graph g = MoleculeUnion(n, n * 4, 20, 12, &rng);
  g.num_classes = 4;
  // Community-aligned labels: aggregation then reinforces (rather than
  // averages away) the class signal, so GCN/GIN can actually learn.
  for (int32_t v = 0; v < g.num_vertices; ++v) g.labels[v] = (v / 20) % 4;
  AttachSyntheticFeatures(&g, &rng);
  return g;
}

// A session on the default runtime, bound to `abar`.
std::shared_ptr<Session> OpenSession(const std::string& kernel, const CsrMatrix* abar,
                                     DataType dtype) {
  return Runtime::Default()->OpenSession(
      abar, SessionOptions().set_kernel(kernel).set_device(Rtx3090()).set_dtype(dtype));
}

TEST(DenseOpsTest, SoftmaxRowsSumToOne) {
  Pcg32 rng(1);
  DenseMatrix logits = GenerateDense(10, 5, &rng);
  DenseMatrix p = SoftmaxRows(logits);
  for (int32_t r = 0; r < 10; ++r) {
    double sum = 0;
    for (int32_t c = 0; c < 5; ++c) {
      sum += p.At(r, c);
      EXPECT_GE(p.At(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(DenseOpsTest, CrossEntropyOfPerfectPredictionIsSmall) {
  DenseMatrix logits(2, 3);
  logits.At(0, 1) = 20.0f;
  logits.At(1, 2) = 20.0f;
  const double loss = SoftmaxCrossEntropy(logits, {1, 2}, nullptr);
  EXPECT_LT(loss, 1e-6);
}

TEST(DenseOpsTest, CrossEntropyGradientMatchesFiniteDifference) {
  Pcg32 rng(2);
  DenseMatrix logits = GenerateDense(6, 4, &rng);
  std::vector<int32_t> labels{0, 1, 2, 3, 1, 2};
  DenseMatrix grad;
  SoftmaxCrossEntropy(logits, labels, &grad);
  const double eps = 1e-3;
  for (int32_t r = 0; r < 3; ++r) {
    for (int32_t c = 0; c < 4; ++c) {
      DenseMatrix lp = logits, lm = logits;
      lp.At(r, c) += eps;
      lm.At(r, c) -= eps;
      const double fd = (SoftmaxCrossEntropy(lp, labels, nullptr) -
                         SoftmaxCrossEntropy(lm, labels, nullptr)) /
                        (2 * eps);
      EXPECT_NEAR(grad.At(r, c), fd, 1e-4);
    }
  }
}

TEST(DenseOpsTest, ReluAndGrad) {
  DenseMatrix m(1, 4);
  m.At(0, 0) = -1;
  m.At(0, 1) = 2;
  m.At(0, 2) = 0;
  m.At(0, 3) = -0.5;
  DenseMatrix pre = m;
  KernelProfile prof;
  MeteredReluInPlace(&m, Rtx3090(), &prof);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0);
  EXPECT_FLOAT_EQ(m.At(0, 1), 2);
  EXPECT_EQ(prof.launches, 1);

  DenseMatrix gout(1, 4, 1.0f);
  DenseMatrix gin = MeteredReluGrad(gout, pre, Rtx3090(), &prof);
  EXPECT_FLOAT_EQ(gin.At(0, 0), 0);
  EXPECT_FLOAT_EQ(gin.At(0, 1), 1);
  EXPECT_FLOAT_EQ(gin.At(0, 2), 0);  // relu'(0) = 0
}

TEST(DenseOpsTest, MeteredGemmMatchesReferenceAndMeters) {
  Pcg32 rng(3);
  DenseMatrix a = GenerateDense(20, 12, &rng);
  DenseMatrix b = GenerateDense(12, 8, &rng);
  KernelProfile prof;
  DenseMatrix c = MeteredGemm(a, b, Rtx3090(), DataType::kTf32, &prof);
  EXPECT_LT(c.MaxAbsDifference(ReferenceGemm(a, b)), 1e-4);
  EXPECT_GT(prof.time_ns, 0);
  EXPECT_GT(prof.mma_ops, 0);
  EXPECT_EQ(prof.launches, 1);
}

TEST(DenseOpsTest, PredictionAccuracy) {
  DenseMatrix logits(2, 2);
  logits.At(0, 0) = 1;
  logits.At(1, 1) = 1;
  EXPECT_DOUBLE_EQ(PredictionAccuracy(logits, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(PredictionAccuracy(logits, {1, 0}), 0.0);
}

TEST(DenseOpsDeathTest, LossOpsRejectBadLabels) {
  // The runtime pool already holds threads, so fork-only death tests are
  // unsafe here.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const DenseMatrix logits(3, 4);
  DenseMatrix grad;
  EXPECT_DEATH(SoftmaxCrossEntropy(logits, {0, 1}, &grad), "one label per logits row");
  EXPECT_DEATH(SoftmaxCrossEntropy(logits, {0, 4, 1}, &grad), "label 4 of row 1");
  EXPECT_DEATH(SoftmaxCrossEntropy(logits, {0, 1, -1}, nullptr), "label -1 of row 2");
  EXPECT_DEATH(PredictionAccuracy(logits, {0, 1}), "one label per logits row");
  EXPECT_DEATH(PredictionAccuracy(logits, {0, 1, 2, 3}), "one label per logits row");
  EXPECT_DEATH(PredictionAccuracy(logits, {4, 0, 0}), "label 4 of row 0");
  EXPECT_DEATH(PredictionAccuracy(logits, {0, -2, 0}), "label -2 of row 1");
}

TEST(DenseOpsTest, OutputFormsReuseAShapedBufferAndReplaceAnyOther) {
  Pcg32 rng(4);
  const DenseMatrix a = GenerateDense(300, 40, &rng);
  const DenseMatrix b = GenerateDense(40, 24, &rng);
  const DenseMatrix bt = b.Transposed();
  const DenseMatrix at = a.Transposed();
  const DenseMatrix expect = ReferenceGemm(a, b);

  DenseMatrix c(300, 24, 7.0f);  // stale contents must not leak through
  const float* buffer = c.RowData(0);
  MeteredGemm(a, b, Rtx3090(), DataType::kTf32, nullptr, &c);
  EXPECT_EQ(c.RowData(0), buffer);
  EXPECT_EQ(c.data(), expect.data());
  MeteredGemmTransB(a, bt, Rtx3090(), DataType::kTf32, nullptr, &c);
  EXPECT_EQ(c.RowData(0), buffer);
  EXPECT_EQ(c.data(), ReferenceGemmTransB(a, bt).data());

  DenseMatrix wrong(3, 3, 1.0f);
  MeteredGemmTransA(at, b, Rtx3090(), DataType::kTf32, nullptr, &wrong);
  EXPECT_EQ(wrong.rows(), 300);
  EXPECT_EQ(wrong.data(), ReferenceGemmTransA(at, b).data());

  // A moved-from matrix keeps its shape but not its storage.
  DenseMatrix moved(300, 24);
  DenseMatrix taker = std::move(moved);
  MeteredGemm(a, b, Rtx3090(), DataType::kTf32, nullptr, &moved);
  EXPECT_EQ(moved.data(), expect.data());

  // GCN's first-layer dW GEMM over a cached transpose: same bits and same
  // metered cost as the TransA GEMM it replaces.
  const DenseMatrix d = GenerateDense(300, 24, &rng);
  KernelProfile ta_prof, pre_prof;
  DenseMatrix ta, pre;
  MeteredGemmTransA(a, d, Rtx3090(), DataType::kTf32, &ta_prof, &ta);
  MeteredGemm(at, d, Rtx3090(), DataType::kTf32, &pre_prof, &pre);
  EXPECT_EQ(pre.data(), ta.data());
  EXPECT_EQ(pre.data(), ReferenceGemmTransA(a, d).data());
  EXPECT_EQ(pre_prof.time_ns, ta_prof.time_ns);
  EXPECT_EQ(pre_prof.launch_ns, ta_prof.launch_ns);
  EXPECT_EQ(pre_prof.mma_ops, ta_prof.mma_ops);

  // ReLU grad in place.
  DenseMatrix g = d;
  MeteredReluGrad(g, expect, Rtx3090(), nullptr, &g);
  EXPECT_EQ(g.data(), MeteredReluGrad(d, expect, Rtx3090(), nullptr).data());

  // The loss gradient reuses a shaped buffer too.
  const DenseMatrix logits = GenerateDense(300, 5, &rng);
  std::vector<int32_t> labels(300);
  for (int32_t r = 0; r < 300; ++r) labels[r] = r % 5;
  DenseMatrix grad(300, 5, 3.0f), fresh;
  const float* grad_buffer = grad.RowData(0);
  EXPECT_EQ(SoftmaxCrossEntropy(logits, labels, &grad),
            SoftmaxCrossEntropy(logits, labels, &fresh));
  EXPECT_EQ(grad.RowData(0), grad_buffer);
  EXPECT_EQ(grad.data(), fresh.data());
}

TEST(DenseOpsTest, SgdStepMovesAgainstGradient) {
  DenseMatrix w(1, 2, 1.0f);
  DenseMatrix g(1, 2, 0.5f);
  SgdStep(&w, g, 0.1);
  EXPECT_FLOAT_EQ(w.At(0, 0), 0.95f);
}

TEST(FusionTest, SavingsArePositiveAndScaleWithRows) {
  const DeviceSpec dev = Rtx3090();
  const double s1 = FusionSavingsNs(1000, 16, 1, dev, DataType::kTf32);
  const double s2 = FusionSavingsNs(100000, 16, 1, dev, DataType::kTf32);
  EXPECT_GT(s1, dev.kernel_launch_ns);  // at least the launch
  EXPECT_GT(s2, s1);
}

TEST(FusionTest, ApplyFusionNeverGoesNegative) {
  KernelProfile p;
  p.launches = 2;
  p.launch_ns = 60000;
  p.time_ns = 10;
  ApplyFusion(&p, 1 << 20, 128, 5, Rtx3090(), DataType::kTf32);
  EXPECT_GE(p.time_ns, 0.0);
  EXPECT_GE(p.launch_ns, 0.0);
  EXPECT_GE(p.launches, 1);
}

TEST(GcnTest, ForwardShapesAndDeterminism) {
  Graph g = TestGraph();
  CsrMatrix abar = GcnNormalized(g.adjacency);
  auto engine = OpenSession("hcspmm", &abar, DataType::kFp32);
  GnnConfig cfg;
  GcnModel model(&g, cfg, engine.get());
  PhaseBreakdown t;
  DenseMatrix logits1 = model.Forward(&t);
  EXPECT_EQ(logits1.rows(), g.num_vertices);
  EXPECT_EQ(logits1.cols(), g.num_classes);
  DenseMatrix logits2 = model.Forward(nullptr);
  EXPECT_EQ(logits1.data(), logits2.data());
  EXPECT_GT(t.agg_ns, 0);
  EXPECT_GT(t.update_ns, 0);
  EXPECT_GT(t.launch_ns, 0);
}

TEST(GcnTest, GcnNormalizationRowsBounded) {
  Graph g = TestGraph(100);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  EXPECT_TRUE(abar.Validate(true));
  // Every weight is 1/sqrt(d_i d_j) in (0, 1]; a row's sum is bounded by
  // sqrt(d_i + 1) (Cauchy-Schwarz on the normalized row).
  for (int32_t r = 0; r < abar.rows(); ++r) {
    double sum = 0;
    for (int64_t k = abar.RowBegin(r); k < abar.RowEnd(r); ++k) {
      EXPECT_GT(abar.val()[k], 0.0f);
      EXPECT_LE(abar.val()[k], 1.0f);
      sum += abar.val()[k];
    }
    EXPECT_GT(sum, 0.0);
    EXPECT_LE(sum, std::sqrt(static_cast<double>(abar.RowNnz(r))) + 1e-5);
  }
}

TEST(GcnTest, WeightGradientMatchesFiniteDifference) {
  Graph g = TestGraph(60, 21);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  auto engine = OpenSession("cuda_opt", &abar, DataType::kFp32);
  GnnConfig cfg;
  cfg.hidden_dim = 6;
  cfg.learning_rate = 0.0;  // keep weights frozen during Backward's SGD
  GcnModel model(&g, cfg, engine.get());

  // Analytic gradient via a probe: re-run backward with lr>0 and compare
  // the SGD delta against finite differences of the loss.
  auto loss_at = [&](GcnModel& m) {
    DenseMatrix logits = m.Forward(nullptr);
    return SoftmaxCrossEntropy(logits, g.labels, nullptr);
  };

  GnnConfig cfg2 = cfg;
  cfg2.learning_rate = 1.0;  // delta = -grad exactly
  GcnModel probe(&g, cfg2, engine.get());
  DenseMatrix before = probe.weights()[1];
  DenseMatrix logits = probe.Forward(nullptr);
  DenseMatrix grad;
  SoftmaxCrossEntropy(logits, g.labels, &grad);
  probe.Backward(grad, nullptr);
  DenseMatrix after = probe.weights()[1];

  const double eps = 1e-2;
  for (int32_t r = 0; r < 3; ++r) {
    for (int32_t c = 0; c < 2; ++c) {
      const double analytic = before.At(r, c) - after.At(r, c);  // lr * dW
      // Same seed -> same initial weights as `probe` had before Backward.
      GcnModel m2(&g, cfg, engine.get());
      m2.mutable_weights()[1] = before;
      // Perturb.
      m2.mutable_weights()[1].At(r, c) += eps;
      const double lp = loss_at(m2);
      m2.mutable_weights()[1].At(r, c) -= 2 * eps;
      const double lm = loss_at(m2);
      const double fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(analytic, fd, 5e-3) << "dW[" << r << "," << c << "]";
    }
  }
}

TEST(GcnTest, LossDecreasesOverTraining) {
  Graph g = TestGraph(300, 31);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  auto engine = OpenSession("hcspmm", &abar, DataType::kTf32);
  GnnConfig cfg;
  cfg.learning_rate = 0.3;
  GcnModel model(&g, cfg, engine.get());
  double first = 0, last = 0;
  for (int e = 0; e < 60; ++e) {
    EpochResult r = model.TrainEpoch();
    if (e == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first * 0.9);
}

TEST(GcnTest, FusionPreservesResultsAndSavesTime) {
  Graph g = TestGraph(400, 41);
  GnnConfig fused, unfused;
  fused.fuse_kernels = true;
  unfused.fuse_kernels = false;
  auto s1 = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", fused, Rtx3090(), 2);
  auto s2 = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", unfused, Rtx3090(), 2);
  EXPECT_NEAR(s1.final_loss, s2.final_loss, 1e-9);  // same math
  EXPECT_LT(s1.AvgBackwardMs(), s2.AvgBackwardMs());
  // Table VI: fusion saves roughly a quarter to a third of backward time.
  const double saving = 1.0 - s1.AvgBackwardMs() / s2.AvgBackwardMs();
  EXPECT_GT(saving, 0.10);
  EXPECT_LT(saving, 0.60);
}

TEST(GinTest, ForwardShapes) {
  Graph g = TestGraph();
  CsrMatrix ahat = GinOperator(g.adjacency);
  auto engine = OpenSession("hcspmm", &ahat, DataType::kFp32);
  GnnConfig cfg;
  GinModel model(&g, cfg, engine.get());
  PhaseBreakdown t;
  DenseMatrix logits = model.Forward(&t);
  EXPECT_EQ(logits.rows(), g.num_vertices);
  EXPECT_EQ(logits.cols(), g.num_classes);
}

TEST(GnnModelTest, ForwardIntoAMovedFromLogitsMatrix) {
  // A moved-from matrix keeps its shape but not its storage: the models must
  // replace it, not write through it.
  Graph g = TestGraph();
  const CsrMatrix abar = GcnNormalized(g.adjacency);
  const CsrMatrix ahat = GinOperator(g.adjacency);
  auto gcn_session = OpenSession("hcspmm", &abar, DataType::kFp32);
  auto gin_session = OpenSession("hcspmm", &ahat, DataType::kFp32);
  GcnModel gcn(&g, GnnConfig(), gcn_session.get());
  GinModel gin(&g, GnnConfig(), gin_session.get());

  DenseMatrix logits;
  gcn.Forward(nullptr, &logits);
  const DenseMatrix gcn_logits = std::move(logits);
  gcn.Forward(nullptr, &logits);
  EXPECT_EQ(logits.data(), gcn_logits.data());

  gin.Forward(nullptr, &logits);
  const DenseMatrix gin_logits = std::move(logits);
  gin.Forward(nullptr, &logits);
  EXPECT_EQ(logits.data(), gin_logits.data());
}

TEST(GinTest, GinOperatorAddsSelfLoops) {
  Graph g = TestGraph(50);
  CsrMatrix ahat = GinOperator(g.adjacency, /*eps=*/0.5);
  EXPECT_EQ(ahat.nnz(), g.adjacency.nnz() + 50);
  // Self-loop weight is 1 + eps.
  for (int32_t r = 0; r < 5; ++r) {
    bool found = false;
    for (int64_t k = ahat.RowBegin(r); k < ahat.RowEnd(r); ++k) {
      if (ahat.col_ind()[k] == r) {
        EXPECT_FLOAT_EQ(ahat.val()[k], 1.5f);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(GinTest, LossDecreasesOverTraining) {
  Graph g = TestGraph(300, 51);
  GnnConfig cfg;
  // GIN's unnormalized (A + I) operator amplifies activations by the
  // average degree per layer, so it needs a far smaller step than GCN.
  cfg.learning_rate = 0.005;
  auto stats = TrainGnn(g, GnnModelKind::kGin, "hcspmm", cfg, Rtx3090(), 60);
  EXPECT_LT(stats.epochs.back().loss, stats.epochs.front().loss * 0.95);
}

TEST(GinTest, FusionHelpsForwardMoreThanBackward) {
  // SS V-A/Fig. 13: GIN fuses in forward (Aggregation->Update) but not in
  // backward, so fusion savings land on the forward phase.
  Graph g = TestGraph(400, 61);
  GnnConfig fused, unfused;
  fused.fuse_kernels = true;
  unfused.fuse_kernels = false;
  auto s1 = TrainGnn(g, GnnModelKind::kGin, "hcspmm", fused, Rtx3090(), 2);
  auto s2 = TrainGnn(g, GnnModelKind::kGin, "hcspmm", unfused, Rtx3090(), 2);
  const double fwd_saving = s2.AvgForwardMs() - s1.AvgForwardMs();
  const double bwd_saving = s2.AvgBackwardMs() - s1.AvgBackwardMs();
  EXPECT_GT(fwd_saving, 0.0);
  EXPECT_NEAR(bwd_saving, 0.0, 1e-9);
}

TEST(TrainerTest, StatsAggregation) {
  Graph g = TestGraph(150, 71);
  GnnConfig cfg;
  auto stats = TrainGnn(g, GnnModelKind::kGcn, "gespmm", cfg, Rtx3090(), 3);
  EXPECT_EQ(stats.epochs.size(), 3u);
  EXPECT_GT(stats.AvgForwardMs(), 0.0);
  EXPECT_GT(stats.AvgBackwardMs(), 0.0);
  EXPECT_NEAR(stats.AvgEpochMs(), stats.AvgForwardMs() + stats.AvgBackwardMs(), 1e-12);
  EXPECT_GT(stats.memory_bytes, 0);
}

TEST(TrainerTest, HcSpmmTrainsFasterThanTensorOnlyBaseline) {
  // Fig. 11/12 headline: HC-SpMM beats TC-GNN end to end.
  Graph g = TestGraph(600, 81);
  GnnConfig cfg;
  auto hc = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), 2);
  auto tc = TrainGnn(g, GnnModelKind::kGcn, "tcgnn", cfg, Rtx3090(), 2);
  EXPECT_LT(hc.AvgEpochMs(), tc.AvgEpochMs());
}

TEST(TrainerTest, MemoryUsageOrderingMatchesTableXII) {
  // HC-SpMM uses slightly more memory than GE-SpMM and TC-GNN.
  Graph g = TestGraph(500, 91);
  GnnConfig cfg;
  auto hc = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), 1);
  auto ge = TrainGnn(g, GnnModelKind::kGcn, "gespmm", cfg, Rtx3090(), 1);
  auto tc = TrainGnn(g, GnnModelKind::kGcn, "tcgnn", cfg, Rtx3090(), 1);
  EXPECT_GE(hc.memory_bytes, ge.memory_bytes);
  EXPECT_GE(hc.memory_bytes, tc.memory_bytes);
  EXPECT_LE(tc.memory_bytes, ge.memory_bytes);
  // ... but within a few percent (paper: <= 2% over GE, <= 6% over TC).
  EXPECT_LT(static_cast<double>(hc.memory_bytes) / ge.memory_bytes, 1.10);
}

TEST(TrainerTest, PreprocessingAmortizedAcrossEpochs) {
  Graph g = TestGraph(400, 101);
  GnnConfig cfg;
  auto stats = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), 4);
  // One-time preprocessing must be far below total training time for a
  // multi-epoch run (Appendix F).
  EXPECT_LT(stats.preprocess_ms, stats.AvgEpochMs() * 4);
}

// ---------------------------------------------------------------------------
// The models reuse their buffers across epochs and read the features in
// place. These tests pin them to the arithmetic of a model that copies every
// input and gets every result as a fresh matrix: test-local GCN and GIN
// epochs built only from the serial Reference* GEMMs, Session::Multiply,
// scalar elementwise loops and a two-pass softmax.

bool SameBits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

DenseMatrix Aggregate(const Session& session, const DenseMatrix& x) {
  DenseMatrix z;
  HCSPMM_CHECK_OK(session.Multiply(x, &z, nullptr));
  return z;
}

DenseMatrix Relu(DenseMatrix m) {
  for (float& v : m.mutable_data()) v = v < 0.0f ? 0.0f : v;
  return m;
}

DenseMatrix ReluGrad(const DenseMatrix& grad_out, const DenseMatrix& pre_act) {
  DenseMatrix out(grad_out.rows(), grad_out.cols());
  for (size_t i = 0; i < out.data().size(); ++i) {
    out.mutable_data()[i] = pre_act.data()[i] > 0.0f ? grad_out.data()[i] : 0.0f;
  }
  return out;
}

// Mean softmax cross-entropy and its gradient, evaluating every exp twice.
double TwoPassLoss(const DenseMatrix& logits, const std::vector<int32_t>& labels,
                   DenseMatrix* grad) {
  DenseMatrix probs(logits.rows(), logits.cols());
  for (int32_t r = 0; r < logits.rows(); ++r) {
    const float* row = logits.RowData(r);
    float mx = row[0];
    for (int32_t j = 1; j < logits.cols(); ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int32_t j = 0; j < logits.cols(); ++j) sum += std::exp(row[j] - mx);
    for (int32_t j = 0; j < logits.cols(); ++j) {
      probs.At(r, j) = static_cast<float>(std::exp(row[j] - mx) / sum);
    }
  }
  const double inv_n = 1.0 / logits.rows();
  *grad = DenseMatrix(logits.rows(), logits.cols());
  double loss = 0.0;
  for (int32_t r = 0; r < logits.rows(); ++r) {
    const int32_t y = labels[r];
    loss -= std::log(std::max(1e-12, static_cast<double>(probs.At(r, y))));
    for (int32_t j = 0; j < logits.cols(); ++j) {
      grad->At(r, j) =
          static_cast<float>((probs.At(r, j) - (j == y ? 1.0f : 0.0f)) * inv_n);
    }
  }
  return loss * inv_n;
}

int64_t SumBytes(const std::vector<DenseMatrix>& ms) {
  int64_t bytes = 0;
  for (const DenseMatrix& m : ms) bytes += m.MemoryBytes();
  return bytes;
}

class ReferenceGcn {
 public:
  ReferenceGcn(const Graph* g, const GnnConfig& cfg, const Session* session,
               const std::vector<DenseMatrix>& weights)
      : g_(g),
        cfg_(cfg),
        session_(session),
        weights_(weights),
        optimizer_(OptimizerConfig{cfg.optimizer, cfg.learning_rate}) {
    for (DenseMatrix& w : weights_) optimizer_.AddParameter(&w);
  }

  DenseMatrix Forward() {
    inputs_.clear();
    aggregated_.clear();
    masks_.clear();
    DenseMatrix x = g_->features;
    for (int32_t l = 0; l < cfg_.num_layers; ++l) {
      inputs_.push_back(x);
      DenseMatrix z = Aggregate(*session_, ReferenceGemm(x, weights_[l]));
      aggregated_.push_back(z);
      if (l < cfg_.num_layers - 1) {
        z = Relu(z);
        if (cfg_.dropout > 0.0) masks_.push_back(Dropout(&z));
      }
      x = z;
    }
    return x;
  }

  void Backward(const DenseMatrix& grad_logits) {
    std::vector<DenseMatrix> grads(weights_.size());
    DenseMatrix d_u = Aggregate(*session_, grad_logits);
    for (int32_t l = cfg_.num_layers - 1; l >= 0; --l) {
      DenseMatrix d_z;
      if (l > 0) {
        DenseMatrix d_x = ReferenceGemmTransB(d_u, weights_[l]);
        if (cfg_.dropout > 0.0) {
          const float scale = static_cast<float>(1.0 / (1.0 - cfg_.dropout));
          for (size_t i = 0; i < d_x.data().size(); ++i) {
            d_x.mutable_data()[i] *= masks_[l - 1].data()[i] * scale;
          }
        }
        d_z = ReluGrad(d_x, aggregated_[l - 1]);
      }
      grads[l] = ReferenceGemmTransA(inputs_[l], d_u);
      if (l > 0) d_u = Aggregate(*session_, d_z);
    }
    std::vector<const DenseMatrix*> ptrs;
    for (const DenseMatrix& gr : grads) ptrs.push_back(&gr);
    optimizer_.Step(ptrs);
  }

  int64_t ActivationBytes() const { return SumBytes(inputs_) + SumBytes(aggregated_); }
  std::vector<DenseMatrix>& weights() { return weights_; }

 private:
  DenseMatrix Dropout(DenseMatrix* act) {
    DenseMatrix mask(act->rows(), act->cols(), 1.0f);
    const float scale = static_cast<float>(1.0 / (1.0 - cfg_.dropout));
    for (size_t i = 0; i < act->data().size(); ++i) {
      if (rng_.NextDouble() < cfg_.dropout) {
        mask.mutable_data()[i] = 0.0f;
        act->mutable_data()[i] = 0.0f;
      } else {
        act->mutable_data()[i] *= scale;
      }
    }
    return mask;
  }

  const Graph* g_;
  GnnConfig cfg_;
  const Session* session_;
  std::vector<DenseMatrix> weights_;
  Optimizer optimizer_;
  Pcg32 rng_{0xd509};  // GcnModel's dropout stream
  std::vector<DenseMatrix> inputs_, aggregated_, masks_;
};

// Three epochs of GcnModel (on `backend`) against ReferenceGcn (on a plain
// Session): epoch 0 through TrainEpoch, epoch 1 with two Forwards (into a
// reused logits buffer) before its Backward, epoch 2 after reassigning the
// first weight matrix.
void ExpectGcnMatchesReference(const Graph& g, const GnnConfig& cfg,
                               const Session& session, SpmmBackend* backend) {
  GcnModel model(&g, cfg, backend);
  ReferenceGcn ref(&g, cfg, &session, model.weights());
  EXPECT_EQ(model.ActivationBytes(), 0);

  auto expect_same_weights = [&](int epoch) {
    for (size_t l = 0; l < model.weights().size(); ++l) {
      EXPECT_TRUE(SameBits(model.weights()[l], ref.weights()[l]))
          << "epoch " << epoch << " W" << l;
    }
  };
  DenseMatrix ref_grad;
  const double loss0 = model.TrainEpoch().loss;
  const double ref_loss0 = TwoPassLoss(ref.Forward(), g.labels, &ref_grad);
  ref.Backward(ref_grad);
  EXPECT_EQ(loss0, ref_loss0);
  EXPECT_EQ(model.ActivationBytes(), ref.ActivationBytes());
  expect_same_weights(0);

  DenseMatrix logits, grad;
  for (int pass = 0; pass < 2; ++pass) {
    model.Forward(nullptr, &logits);
    EXPECT_TRUE(SameBits(logits, ref.Forward())) << "epoch 1 pass " << pass;
  }
  const double loss1 = SoftmaxCrossEntropy(logits, g.labels, &grad);
  EXPECT_EQ(loss1, TwoPassLoss(logits, g.labels, &ref_grad));
  EXPECT_TRUE(SameBits(grad, ref_grad));
  model.Backward(grad, nullptr);
  ref.Backward(ref_grad);
  expect_same_weights(1);

  Pcg32 rng(99);
  const DenseMatrix w0 =
      GlorotInit(model.weights()[0].rows(), model.weights()[0].cols(), &rng);
  model.mutable_weights()[0] = w0;
  ref.weights()[0] = w0;
  const DenseMatrix logits2 = model.Forward(nullptr);
  EXPECT_TRUE(SameBits(logits2, ref.Forward()));
  EXPECT_EQ(SoftmaxCrossEntropy(logits2, g.labels, &grad),
            TwoPassLoss(logits2, g.labels, &ref_grad));
  model.Backward(grad, nullptr);
  ref.Backward(ref_grad);
  expect_same_weights(2);
}

// Large enough that every GEMM, elementwise op and SpMM splits into
// several parallel chunks.
Graph ReferenceGraph() { return TestGraph(3000, 5); }

TEST(GnnReferenceTest, GcnMatchesFreshMatrixArithmetic) {
  const Graph g = ReferenceGraph();
  const CsrMatrix abar = GcnNormalized(g.adjacency);
  auto session = Runtime::Default()->OpenSession(&abar, SessionOptions());
  for (int32_t layers : {1, 2, 3}) {
    for (double dropout : {0.0, 0.3}) {
      for (bool async : {true, false}) {
        SCOPED_TRACE("layers " + std::to_string(layers) + " dropout " +
                     std::to_string(dropout) + " async " + std::to_string(async));
        GnnConfig cfg;
        cfg.num_layers = layers;
        cfg.dropout = dropout;
        cfg.async_pipeline = async;
        cfg.learning_rate = 0.3;
        ExpectGcnMatchesReference(g, cfg, *session, session.get());
      }
    }
  }
}

TEST(GnnReferenceTest, ShardedGcnMatchesFreshMatrixArithmetic) {
  const Graph g = ReferenceGraph();
  const CsrMatrix abar = GcnNormalized(g.adjacency);
  auto session = Runtime::Default()->OpenSession(&abar, SessionOptions());
  ShardingOptions sharding;
  sharding.num_shards = 2;
  auto sharded =
      ShardedSession::Open(Runtime::Default(), abar, SessionOptions(), sharding);
  GnnConfig cfg;
  cfg.num_layers = 3;
  cfg.dropout = 0.3;
  cfg.optimizer = OptimizerKind::kAdam;
  ExpectGcnMatchesReference(g, cfg, *session, sharded.get());
}

TEST(GnnReferenceTest, GinMatchesFreshMatrixArithmetic) {
  const Graph g = ReferenceGraph();
  const CsrMatrix ahat = GinOperator(g.adjacency);
  auto session = Runtime::Default()->OpenSession(
      &ahat, SessionOptions().set_dtype(DataType::kFp32));
  for (bool async : {true, false}) {
    SCOPED_TRACE(async ? "async" : "sync");
    GnnConfig cfg;
    cfg.num_layers = 3;
    cfg.learning_rate = 0.005;
    cfg.async_pipeline = async;
    GinModel model(&g, cfg, session.get());

    // Same seed, same draw order as GinModel's constructor.
    Pcg32 rng(cfg.seed);
    std::vector<DenseMatrix> w1, w2;
    int32_t in_dim = g.feature_dim;
    for (int32_t l = 0; l < cfg.num_layers; ++l) {
      const int32_t out_dim = l == cfg.num_layers - 1 ? g.num_classes : cfg.hidden_dim;
      w1.push_back(GlorotInit(in_dim, cfg.hidden_dim, &rng));
      w2.push_back(GlorotInit(cfg.hidden_dim, out_dim, &rng));
      in_dim = out_dim;
    }

    for (int epoch = 0; epoch < 3; ++epoch) {
      std::vector<DenseMatrix> aggregated, hidden_pre, hidden_act;
      int64_t activation_bytes = 0;
      DenseMatrix x = g.features;
      for (int32_t l = 0; l < cfg.num_layers; ++l) {
        activation_bytes += x.MemoryBytes();
        aggregated.push_back(Aggregate(*session, x));
        hidden_pre.push_back(ReferenceGemm(aggregated[l], w1[l]));
        hidden_act.push_back(Relu(hidden_pre[l]));
        x = ReferenceGemm(hidden_act[l], w2[l]);
      }
      DenseMatrix ref_grad;
      const double ref_loss = TwoPassLoss(x, g.labels, &ref_grad);

      DenseMatrix d_out = ref_grad;
      for (int32_t l = cfg.num_layers - 1; l >= 0; --l) {
        const DenseMatrix d_h =
            ReluGrad(ReferenceGemmTransB(d_out, w2[l]), hidden_pre[l]);
        const DenseMatrix d_w2 = ReferenceGemmTransA(hidden_act[l], d_out);
        const DenseMatrix d_w1 = ReferenceGemmTransA(aggregated[l], d_h);
        if (l > 0) d_out = Aggregate(*session, ReferenceGemmTransB(d_h, w1[l]));
        SgdStep(&w1[l], d_w1, cfg.learning_rate);
        SgdStep(&w2[l], d_w2, cfg.learning_rate);
      }

      if (epoch == 1) {
        const DenseMatrix logits = model.Forward(nullptr);
        EXPECT_TRUE(SameBits(logits, x));
        DenseMatrix grad;
        EXPECT_EQ(SoftmaxCrossEntropy(logits, g.labels, &grad), ref_loss);
        model.Backward(grad, nullptr);
      } else {
        EXPECT_EQ(model.TrainEpoch().loss, ref_loss) << "epoch " << epoch;
      }
      for (const auto* cached : {&aggregated, &hidden_pre, &hidden_act}) {
        activation_bytes += SumBytes(*cached);
      }
      EXPECT_EQ(model.ActivationBytes(), activation_bytes);
    }
    // The weights are private; one more forward pass compares them.
    DenseMatrix x = g.features;
    for (int32_t l = 0; l < cfg.num_layers; ++l) {
      x = ReferenceGemm(Relu(ReferenceGemm(Aggregate(*session, x), w1[l])), w2[l]);
    }
    EXPECT_TRUE(SameBits(model.Forward(nullptr), x));
  }
}

}  // namespace
}  // namespace hcspmm
