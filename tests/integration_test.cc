// Cross-module integration tests: the full HC-SpMM pipeline (dataset ->
// preprocessing -> hybrid SpMM -> GNN training -> LOA) exercised end to end.
#include <gtest/gtest.h>

#include "core/hybrid_spmm.h"
#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "layout/computing_intensity.h"
#include "layout/loa.h"
#include "ml/training_pipeline.h"
#include "sparse/reference.h"

namespace hcspmm {
namespace {

TEST(IntegrationTest, HybridCorrectOnEveryDataset) {
  for (const DatasetSpec& spec : AllDatasets()) {
    Graph g = LoadDatasetCapped(spec, 25000);
    CsrMatrix abar = GcnNormalized(g.adjacency);
    DenseMatrix x(abar.cols(), 16, 0.25f);
    DenseMatrix expected = ReferenceSpmm(abar, x);
    HcSpmm kernel;
    KernelOptions opts;
    opts.dtype = DataType::kFp32;
    DenseMatrix z;
    KernelProfile prof;
    ASSERT_TRUE(kernel.Run(abar, x, Rtx3090(), opts, &z, &prof).ok()) << spec.code;
    EXPECT_LT(z.MaxAbsDifference(expected), 1e-3) << spec.code;
  }
}

TEST(IntegrationTest, FreshlyTrainedSelectorWorksInHybridKernel) {
  // Full SS IV-C loop: train on synthetic windows, deploy in the kernel.
  SelectorTrainConfig cfg;  // the paper's full sweep reaches >90% accuracy
  auto trained = TrainCoreSelector(Rtx3090(), cfg);
  ASSERT_GT(trained.accuracy, 0.9);
  HcSpmm kernel(trained.model);

  Graph g = LoadDatasetCapped(DatasetByCode("DD").ValueOrDie(), 40000);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  DenseMatrix x(abar.cols(), 32, 0.5f);
  DenseMatrix z;
  KernelProfile prof;
  ASSERT_TRUE(kernel.Run(abar, x, Rtx3090(), KernelOptions{}, &z, &prof).ok());
  // The trained selector should route comparably to the shipped one.
  HcSpmm shipped;
  KernelProfile prof2;
  ASSERT_TRUE(shipped.Run(abar, x, Rtx3090(), KernelOptions{}, &z, &prof2).ok());
  EXPECT_LT(std::abs(prof.time_ns - prof2.time_ns) / prof2.time_ns, 0.25);
}

TEST(IntegrationTest, LoaImprovesHybridSpmmOnScatteredDataset) {
  // Fig. 14 mechanism end to end: LOA -> denser windows -> faster SpMM.
  Graph g = LoadDatasetCapped(DatasetByCode("AZ").ValueOrDie(), 50000);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  DenseMatrix x(abar.cols(), 32, 0.5f);
  DenseMatrix z;
  HcSpmm kernel;
  KernelProfile before;
  ASSERT_TRUE(kernel.Run(abar, x, Rtx3090(), KernelOptions{}, &z, &before).ok());

  LoaResult loa = RunLoa(g.adjacency);
  CsrMatrix adj_opt = ApplyLayout(g.adjacency, loa);
  CsrMatrix abar_opt = GcnNormalized(adj_opt);
  KernelProfile after;
  ASSERT_TRUE(kernel.Run(abar_opt, x, Rtx3090(), KernelOptions{}, &z, &after).ok());
  EXPECT_LT(after.time_ns, before.time_ns * 1.02);  // not worse
  EXPECT_GE(after.windows_tensor, before.windows_tensor);
}

TEST(IntegrationTest, GcnTrainingEndToEndOnDataset) {
  Graph g = LoadDatasetCapped(DatasetByCode("PT").ValueOrDie(), 20000);
  g.num_classes = 6;
  Pcg32 rng(9);
  for (int32_t v = 0; v < g.num_vertices; ++v) {
    g.labels[v] = static_cast<int32_t>(rng.NextBounded(6));
  }
  AttachSyntheticFeatures(&g, &rng);
  GnnConfig cfg;
  cfg.learning_rate = 0.2;
  auto stats = TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), 10);
  EXPECT_EQ(stats.epochs.size(), 10u);
  EXPECT_LT(stats.epochs.back().loss, stats.epochs.front().loss);
  EXPECT_GT(stats.AvgEpochMs(), 0.0);
}

TEST(IntegrationTest, AllKernelsAgreeWithinToleranceOnDataset) {
  Graph g = LoadDatasetCapped(DatasetByCode("CR").ValueOrDie(), 20000);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  DenseMatrix x(abar.cols(), 24, 0.1f);
  DenseMatrix ref = ReferenceSpmm(abar, x);
  for (const std::string& name : RegisteredKernelNames()) {
    auto kernel = MakeKernel(name);
    DenseMatrix z;
    KernelProfile prof;
    ASSERT_TRUE(kernel->Run(abar, x, Rtx3090(), KernelOptions{}, &z, &prof).ok());
    // TF32 rounding tolerance.
    EXPECT_LT(z.MaxAbsDifference(ref), 5e-2) << name;
  }
}

TEST(IntegrationTest, DeviceSweepPreservesKernelOrdering) {
  // Table XVI: HC-SpMM stays fastest across all three GPUs.
  Graph g = LoadDatasetCapped(DatasetByCode("YS").ValueOrDie(), 40000);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  DenseMatrix x(abar.cols(), 32, 0.5f);
  for (const DeviceSpec& dev : {Rtx3090(), Rtx4090(), A100()}) {
    DenseMatrix z;
    KernelProfile hc, sp, tc;
    ASSERT_TRUE(MakeKernel("hcspmm")->Run(abar, x, dev, KernelOptions{}, &z, &hc).ok());
    ASSERT_TRUE(MakeKernel("sputnik")->Run(abar, x, dev, KernelOptions{}, &z, &sp).ok());
    ASSERT_TRUE(MakeKernel("tcgnn")->Run(abar, x, dev, KernelOptions{}, &z, &tc).ok());
    EXPECT_LE(hc.time_ns, sp.time_ns * 1.02) << dev.name;
    EXPECT_LE(hc.time_ns, tc.time_ns * 1.02) << dev.name;
  }
}

TEST(IntegrationTest, PreprocessAmortizationBand) {
  // Appendix F: preprocessing is on the order of ~13x one SpMM — well under
  // two orders of magnitude, so thousands of GNN-epoch SpMMs amortize it.
  Graph g = LoadDatasetCapped(DatasetByCode("OC").ValueOrDie(), 60000);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  DenseMatrix x(abar.cols(), 32, 0.5f);
  auto plan = Preprocess(abar, Rtx3090(), DefaultSelectorModel());
  HcSpmm kernel;
  DenseMatrix z;
  KernelProfile prof;
  ASSERT_TRUE(kernel.RunWithPlan(plan.ValueOrDie(), abar, x, Rtx3090(),
                                 KernelOptions{}, &z, &prof)
                  .ok());
  const double ratio = plan.ValueOrDie().preprocess_profile.TotalNs() / prof.time_ns;
  EXPECT_GT(ratio, 1.0);
  EXPECT_LT(ratio, 100.0);
}

}  // namespace
}  // namespace hcspmm
