// Tests for the async runtime API: Future/Promise semantics (Then chaining,
// error propagation), Session stream ordering, async-vs-serial determinism
// at multiple thread counts, batch fast paths, the Runtime-owned PlanCache
// (budget option, env override, stats), and GCN/GIN pipeline parity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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

CsrMatrix TestMatrix(uint64_t seed, int32_t rows = 160, double density = 0.06) {
  Pcg32 rng(seed);
  return GenerateUniformSparse(rows, rows, density, &rng);
}

Graph TestGraph(int n = 200, uint64_t seed = 11) {
  Pcg32 rng(seed);
  Graph g = MoleculeUnion(n, n * 4, 20, 12, &rng);
  g.num_classes = 4;
  for (int32_t v = 0; v < g.num_vertices; ++v) g.labels[v] = (v / 20) % 4;
  AttachSyntheticFeatures(&g, &rng);
  return g;
}

// ---------------------------------------------------------------------------
// Future / Promise

TEST(FutureTest, ReadyAndErrorFactories) {
  Future<int> ready = MakeReadyFuture<int>(42);
  EXPECT_TRUE(ready.ready());
  EXPECT_TRUE(ready.ok());
  EXPECT_EQ(ready.Get(), 42);

  Future<int> error = MakeErrorFuture<int>(Status::InvalidArgument("nope"));
  EXPECT_TRUE(error.ready());
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(error.status().message(), "nope");
}

TEST(FutureTest, WaitBlocksUntilPromiseFulfilledOnAnotherThread) {
  Promise<std::string> promise;
  Future<std::string> fut = promise.future();
  EXPECT_FALSE(fut.ready());
  std::thread producer([promise]() mutable { promise.Set(std::string("done")); });
  EXPECT_EQ(fut.Get(), "done");
  producer.join();
}

TEST(FutureTest, ThenChainsValuesThroughMultipleStages) {
  Promise<int> promise;
  Future<std::size_t> chained = promise.future()
                                    .Then([](const int& v) { return std::to_string(v * 2); })
                                    .Then([](const std::string& s) { return s.size(); });
  promise.Set(21);
  EXPECT_TRUE(chained.ok());
  EXPECT_EQ(chained.Get(), 2u);  // "42"
}

TEST(FutureTest, ThenPropagatesErrorWithoutInvokingContinuations) {
  Promise<int> promise;
  std::atomic<int> invocations{0};
  Future<int> chained = promise.future()
                            .Then([&](const int& v) {
                              ++invocations;
                              return v + 1;
                            })
                            .Then([&](const int& v) {
                              ++invocations;
                              return v + 1;
                            });
  promise.Set(Status::Internal("upstream failed"));
  EXPECT_FALSE(chained.ok());
  EXPECT_EQ(chained.status().code(), StatusCode::kInternal);
  EXPECT_EQ(chained.status().message(), "upstream failed");
  EXPECT_EQ(invocations.load(), 0);
}

TEST(FutureTest, ThenUnwrapsResultAndShortCircuitsItsError) {
  Promise<int> promise;
  std::atomic<bool> tail_ran{false};
  Future<int> chained = promise.future()
                            .Then([](const int& v) -> Result<int> {
                              if (v < 0) return Status::OutOfRange("negative");
                              return v * 10;
                            })
                            .Then([&](const int& v) {
                              tail_ran = true;
                              return v + 1;
                            });
  promise.Set(-5);
  EXPECT_EQ(chained.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(tail_ran.load());

  Promise<int> promise2;
  Future<int> ok_chain = promise2.future().Then([](const int& v) -> Result<int> {
    return v * 10;
  });
  promise2.Set(4);
  EXPECT_EQ(ok_chain.Get(), 40);
}

TEST(FutureTest, OnReadyRunsInlineWhenAlreadyFulfilled) {
  Future<int> fut = MakeReadyFuture<int>(1);
  bool ran = false;
  fut.OnReady([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(FutureTest, WaitForTimesOutThenSucceeds) {
  Promise<int> promise;
  Future<int> fut = promise.future();
  EXPECT_FALSE(fut.WaitFor(std::chrono::milliseconds(5)));
  EXPECT_FALSE(fut.WaitUntil(std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(5)));
  std::thread producer([promise]() mutable { promise.Set(7); });
  EXPECT_TRUE(fut.WaitFor(std::chrono::seconds(30)));
  EXPECT_EQ(fut.Get(), 7);
  producer.join();
  // Already-ready futures return immediately regardless of timeout.
  EXPECT_TRUE(fut.WaitFor(std::chrono::nanoseconds(0)));
}

// Continuations attached *while* the error is being set must behave exactly
// like pre-registered ones: the tail future gets the upstream error and no
// continuation body ever runs. Loops the race so both interleavings (Then
// before Set wins, Set before Then wins) are exercised; TSan-clean.
TEST(FutureTest, ThenAfterErrorRegisteredConcurrentlyWithFulfillment) {
  for (int iter = 0; iter < 200; ++iter) {
    Promise<int> promise;
    Future<int> fut = promise.future();
    std::atomic<bool> go{false};
    std::atomic<int> invocations{0};
    Future<int> tail;
    std::thread chainer([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      tail = fut.Then([&](const int& v) {
                  ++invocations;
                  return v + 1;
                })
                 .Then([&](const int& v) {
                   ++invocations;
                   return v * 2;
                 });
    });
    std::thread fulfiller([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      promise.Set(Status::Unavailable("mid-chain failure"));
    });
    go.store(true, std::memory_order_release);
    chainer.join();
    fulfiller.join();
    tail.Wait();
    EXPECT_EQ(tail.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(tail.status().message(), "mid-chain failure");
    EXPECT_EQ(invocations.load(), 0);
  }
}

// ---------------------------------------------------------------------------
// Runtime / Session basics

TEST(RuntimeTest, OpenSessionUnknownKernelSurfacesErrorEverywhere) {
  const CsrMatrix m = TestMatrix(1);
  auto session = Runtime::Default()->OpenSession(
      &m, SessionOptions().set_kernel("definitely_not_a_kernel"));
  const Status st = session->WaitReady();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("definitely_not_a_kernel"), std::string::npos);
  EXPECT_NE(st.message().find("hcspmm"), std::string::npos);

  DenseMatrix x(m.cols(), 8, 1.0f), z;
  EXPECT_FALSE(session->Multiply(x, &z, nullptr).ok());
  Future<DenseMatrix> fut = session->MultiplyAsync(x);
  EXPECT_FALSE(fut.ok());
  EXPECT_EQ(fut.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(session->MultiplyBatchAsync({x}).ok());
}

TEST(RuntimeTest, SecondSessionHitsPlanCacheWithoutRebuilding) {
  PlanCache::Global()->Clear();
  const CsrMatrix m = TestMatrix(2, /*rows=*/200);
  auto s1 = Runtime::Default()->OpenSession(&m, SessionOptions());
  ASSERT_TRUE(s1->WaitReady().ok());
  EXPECT_FALSE(s1->plan_from_cache());
  EXPECT_GT(s1->PreprocessNs(), 0.0);

  auto s2 = Runtime::Default()->OpenSession(&m, SessionOptions());
  ASSERT_TRUE(s2->WaitReady().ok());
  EXPECT_TRUE(s2->plan_from_cache());
  EXPECT_DOUBLE_EQ(s2->PreprocessNs(), 0.0);
  EXPECT_EQ(s1->plan(), s2->plan());
}

TEST(RuntimeTest, FirstMultiplyWaitsOnAsyncPreprocessing) {
  // No WaitReady anywhere: the future's result must still be correct, which
  // proves stream tasks are gated on plan construction.
  PlanCache::Global()->Clear();
  const CsrMatrix m = TestMatrix(3, /*rows=*/220);
  auto session = Runtime::Default()->OpenSession(&m, SessionOptions());
  Pcg32 rng(5);
  DenseMatrix x = GenerateDense(m.cols(), 16, &rng);
  Future<DenseMatrix> fut = session->MultiplyAsync(x);
  ASSERT_TRUE(fut.ok());
  DenseMatrix expected;
  auto engine = Runtime::Default()->OpenSession(
      &m, SessionOptions().set_dtype(DataType::kTf32).set_num_threads(1));
  ASSERT_TRUE(engine->Multiply(x, &expected, nullptr).ok());
  EXPECT_EQ(fut.Get().MaxAbsDifference(expected), 0.0);
}

// ---------------------------------------------------------------------------
// Determinism: async results must be bit-identical to the serial path

TEST(SessionDeterminismTest, AsyncMatchesSerialEngineAtMultipleThreadCounts) {
  PlanCache::Global()->Clear();
  const CsrMatrix m = TestMatrix(7, /*rows=*/300, /*density=*/0.05);
  Pcg32 rng(9);
  DenseMatrix x = GenerateDense(m.cols(), 32, &rng);

  auto serial = Runtime::Default()->OpenSession(
      &m, SessionOptions().set_dtype(DataType::kFp32).set_num_threads(1));
  DenseMatrix expected;
  ASSERT_TRUE(serial->Multiply(x, &expected, nullptr).ok());

  for (int threads : {1, 4, 8}) {
    auto session = Runtime::Default()->OpenSession(
        &m, SessionOptions().set_dtype(DataType::kFp32).set_num_threads(threads));
    Future<DenseMatrix> fut = session->MultiplyAsync(x);
    ASSERT_TRUE(fut.ok()) << fut.status().ToString();
    EXPECT_EQ(fut.Get().MaxAbsDifference(expected), 0.0) << threads << " threads";
  }
}

TEST(SessionDeterminismTest, AsyncProfileMatchesSyncProfile) {
  PlanCache::Global()->Clear();
  const CsrMatrix m = TestMatrix(8, /*rows=*/240);
  Pcg32 rng(3);
  DenseMatrix x = GenerateDense(m.cols(), 24, &rng);
  auto session = Runtime::Default()->OpenSession(&m, SessionOptions());
  DenseMatrix z_sync;
  KernelProfile sync_prof, async_prof;
  ASSERT_TRUE(session->Multiply(x, &z_sync, &sync_prof).ok());
  Future<DenseMatrix> fut = session->MultiplyAsync(x, &async_prof);
  ASSERT_TRUE(fut.ok());
  EXPECT_DOUBLE_EQ(async_prof.time_ns, sync_prof.time_ns);
  EXPECT_DOUBLE_EQ(async_prof.launch_ns, sync_prof.launch_ns);
  EXPECT_EQ(async_prof.launches, sync_prof.launches);
  EXPECT_EQ(async_prof.blocks, sync_prof.blocks);
  EXPECT_EQ(fut.Get().MaxAbsDifference(z_sync), 0.0);
}

TEST(SessionOutputTest, InPlaceAndReusedOutputsMatchFreshOutput) {
  Pcg32 rng(21);
  Graph g = MoleculeUnion(4096, 40000, 20, 16, &rng);
  const CsrMatrix abar = GcnNormalized(g.adjacency);
  auto session = Runtime::Default()->OpenSession(&abar, SessionOptions());
  const DenseMatrix x0 = GenerateDense(abar.cols(), 16, &rng);
  const DenseMatrix x1 = GenerateDense(abar.cols(), 16, &rng);
  auto same_bits = [](const DenseMatrix& a, const DenseMatrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
  };
  DenseMatrix fresh0, fresh1;
  ASSERT_TRUE(session->Multiply(x0, &fresh0, nullptr).ok());
  ASSERT_TRUE(session->Multiply(x1, &fresh1, nullptr).ok());

  // The sharded backend keeps the same output contract, bit for bit.
  std::vector<std::shared_ptr<SpmmBackend>> backends = {session};
  for (int k : {2, 4, 7}) {
    ShardingOptions sharding;
    sharding.num_shards = k;
    backends.push_back(
        ShardedSession::Open(Runtime::Default(), abar, SessionOptions(), sharding));
  }
  ExecControls cancelled;
  cancelled.cancel = std::make_shared<CancelToken>();
  cancelled.cancel->RequestCancel();
  for (size_t b = 0; b < backends.size(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    SpmmBackend* backend = backends[b].get();

    // z == &x: the product replaces the input, as if computed out of place,
    // and a failed attempt leaves the input as it was.
    DenseMatrix y = x0;
    EXPECT_TRUE(backend->Multiply(y, &y, nullptr, cancelled).IsDeadlineExceeded());
    EXPECT_TRUE(same_bits(x0, y));
    ASSERT_TRUE(backend->Multiply(y, &y, nullptr).ok());
    EXPECT_TRUE(same_bits(fresh0, y));

    // One z reused across multiplies with different inputs (the closed-loop
    // caller's pattern) is overwritten each time.
    DenseMatrix z;
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE(backend->Multiply(x0, &z, nullptr).ok());
      EXPECT_TRUE(same_bits(fresh0, z)) << "round " << round;
      ASSERT_TRUE(backend->Multiply(x1, &z, nullptr).ok());
      EXPECT_TRUE(same_bits(fresh1, z)) << "round " << round;
    }

    // A moved-from z is 0x0, so it gets fresh storage instead of being
    // written through the buffer the move took.
    DenseMatrix taken = std::move(z);
    EXPECT_EQ(z.rows(), 0);
    EXPECT_EQ(z.cols(), 0);
    ASSERT_TRUE(backend->Multiply(x0, &z, nullptr).ok());
    EXPECT_TRUE(same_bits(fresh0, z));
    EXPECT_TRUE(same_bits(fresh1, taken));

    // A correctly shaped z full of NaN: a cancelled call leaves it as it
    // was, a successful one overwrites every element.
    const DenseMatrix nan_z(abar.rows(), x1.cols(),
                            std::numeric_limits<float>::quiet_NaN());
    DenseMatrix reused = nan_z;
    EXPECT_TRUE(backend->Multiply(x1, &reused, nullptr, cancelled).IsDeadlineExceeded());
    EXPECT_TRUE(same_bits(nan_z, reused));
    ASSERT_TRUE(backend->Multiply(x1, &reused, nullptr).ok());
    EXPECT_TRUE(same_bits(fresh1, reused));
  }
}

// ---------------------------------------------------------------------------
// Streams

TEST(StreamTest, SingleStreamResolvesInFifoOrder) {
  const CsrMatrix m = TestMatrix(10, /*rows=*/120);
  auto session = Runtime::Default()->OpenSession(
      &m, SessionOptions().set_num_streams(1));
  Pcg32 rng(2);
  constexpr int kOps = 12;
  std::mutex order_mu;
  std::vector<int> completion_order;
  std::vector<Future<int>> futs;
  std::vector<DenseMatrix> inputs;
  inputs.reserve(kOps);
  for (int i = 0; i < kOps; ++i) inputs.push_back(GenerateDense(m.cols(), 4 + i, &rng));
  for (int i = 0; i < kOps; ++i) {
    futs.push_back(session->MultiplyAsync(inputs[i]).Then([&, i](const DenseMatrix&) {
      std::lock_guard<std::mutex> lk(order_mu);
      completion_order.push_back(i);
      return i;
    }));
  }
  for (int i = 0; i < kOps; ++i) EXPECT_EQ(futs[i].Get(), i);
  std::lock_guard<std::mutex> lk(order_mu);
  ASSERT_EQ(completion_order.size(), static_cast<size_t>(kOps));
  for (int i = 0; i < kOps; ++i) EXPECT_EQ(completion_order[i], i) << "FIFO violated";
}

TEST(StreamTest, CrossStreamSubmissionsAllComputeCorrectly) {
  const CsrMatrix m = TestMatrix(11, /*rows=*/140);
  auto session = Runtime::Default()->OpenSession(
      &m, SessionOptions().set_num_streams(4).set_dtype(DataType::kFp32));
  ASSERT_EQ(session->num_streams(), 4);
  Pcg32 rng(6);
  std::vector<DenseMatrix> inputs;
  std::vector<Future<DenseMatrix>> futs;
  for (int i = 0; i < 16; ++i) inputs.push_back(GenerateDense(m.cols(), 8, &rng));
  for (int i = 0; i < 16; ++i) {
    futs.push_back(session->MultiplyAsync(inputs[i], nullptr, /*stream=*/i % 4));
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(futs[i].ok());
    EXPECT_LT(futs[i].Get().MaxAbsDifference(ReferenceSpmm(m, inputs[i])), 1e-30);
  }
}

// ---------------------------------------------------------------------------
// Batch APIs

TEST(SessionBatchTest, MultiplyBatchAsyncMatchesIndividualMultiplies) {
  const CsrMatrix m = TestMatrix(12, /*rows=*/150);
  auto session = Runtime::Default()->OpenSession(&m, SessionOptions());
  Pcg32 rng(21);
  std::vector<DenseMatrix> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(GenerateDense(m.cols(), 8 + 4 * i, &rng));

  KernelProfile batch_profile, individual_profile;
  Future<std::vector<DenseMatrix>> fut =
      session->MultiplyBatchAsync(inputs, &batch_profile);
  ASSERT_TRUE(fut.ok()) << fut.status().ToString();
  const std::vector<DenseMatrix>& zs = fut.Get();
  ASSERT_EQ(zs.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    DenseMatrix expected;
    ASSERT_TRUE(session->Multiply(inputs[i], &expected, &individual_profile).ok());
    EXPECT_EQ(zs[i].MaxAbsDifference(expected), 0.0) << "batch item " << i;
  }
  // Metering is deterministic: the batch profile equals the serial sum.
  EXPECT_DOUBLE_EQ(batch_profile.time_ns, individual_profile.time_ns);
  EXPECT_EQ(batch_profile.launches, individual_profile.launches);
}

TEST(SessionBatchTest, EmptyBatchResolvesImmediatelyWithoutDispatch) {
  const CsrMatrix m = TestMatrix(13);
  auto session = Runtime::Default()->OpenSession(&m, SessionOptions());
  ASSERT_TRUE(session->WaitReady().ok());
  Future<std::vector<DenseMatrix>> fut = session->MultiplyBatchAsync({});
  // Fulfilled inline at return (init already resolved): no stream task, no
  // pool dispatch.
  EXPECT_TRUE(fut.ready());
  EXPECT_TRUE(fut.ok());
  EXPECT_TRUE(fut.Get().empty());

  // ... but the fast path must not mask a broken session: an empty batch on
  // a session whose init failed propagates the init error, like the sync
  // path does.
  auto broken = Runtime::Default()->OpenSession(
      &m, SessionOptions().set_kernel("definitely_not_a_kernel"));
  Future<std::vector<DenseMatrix>> err = broken->MultiplyBatchAsync({});
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Runtime-owned PlanCache: budget option, env override, stats

TEST(RuntimeCacheTest, IsolatedRuntimeTracksItsOwnStats) {
  Runtime runtime;  // owns a private cache (not PlanCache::Global())
  const CsrMatrix m = TestMatrix(14, /*rows=*/180);
  auto s1 = runtime.OpenSession(&m, SessionOptions());
  ASSERT_TRUE(s1->WaitReady().ok());
  auto s2 = runtime.OpenSession(&m, SessionOptions());
  ASSERT_TRUE(s2->WaitReady().ok());
  EXPECT_TRUE(s2->plan_from_cache());
  const PlanCacheStats stats = runtime.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(RuntimeCacheTest, ByteBudgetOptionForcesRebuilds) {
  RuntimeOptions opts;
  opts.plan_cache_bytes = 1;  // too small to cache any plan
  Runtime runtime(opts);
  EXPECT_EQ(runtime.plan_cache()->byte_budget(), 1);
  const CsrMatrix m = TestMatrix(15, /*rows=*/180);
  auto s1 = runtime.OpenSession(&m, SessionOptions());
  ASSERT_TRUE(s1->WaitReady().ok());
  auto s2 = runtime.OpenSession(&m, SessionOptions());
  ASSERT_TRUE(s2->WaitReady().ok());
  EXPECT_FALSE(s2->plan_from_cache());  // nothing fit in the budget
  EXPECT_GT(s2->PreprocessNs(), 0.0);
}

TEST(RuntimeCacheTest, EnvVariableOverridesDefaultBudget) {
  ASSERT_EQ(setenv("HCSPMM_PLAN_CACHE_BYTES", "123456", 1), 0);
  EXPECT_EQ(DefaultPlanCacheByteBudget(), 123456);
  Runtime runtime;  // picks the env value up as its cache budget
  EXPECT_EQ(runtime.plan_cache()->byte_budget(), 123456);

  ASSERT_EQ(setenv("HCSPMM_PLAN_CACHE_BYTES", "not_a_number", 1), 0);
  EXPECT_EQ(DefaultPlanCacheByteBudget(), PlanCache::kDefaultByteBudget);
  ASSERT_EQ(setenv("HCSPMM_PLAN_CACHE_BYTES", "-5", 1), 0);
  EXPECT_EQ(DefaultPlanCacheByteBudget(), PlanCache::kDefaultByteBudget);
  ASSERT_EQ(unsetenv("HCSPMM_PLAN_CACHE_BYTES"), 0);
  EXPECT_EQ(DefaultPlanCacheByteBudget(), PlanCache::kDefaultByteBudget);
}

// ---------------------------------------------------------------------------
// GNN pipeline parity: async training == sync training, bit for bit

TEST(GnnPipelineTest, GcnAsyncPipelineIsBitIdenticalToSync) {
  const Graph g = TestGraph();
  const CsrMatrix abar = GcnNormalized(g.adjacency);
  GnnConfig sync_cfg;
  sync_cfg.num_layers = 3;
  sync_cfg.dropout = 0.3;  // exercises the dropout mask path too
  sync_cfg.async_pipeline = false;
  GnnConfig async_cfg = sync_cfg;
  async_cfg.async_pipeline = true;

  auto run = [&](const GnnConfig& cfg) {
    auto session = Runtime::Default()->OpenSession(
        &abar, SessionOptions().set_dtype(DataType::kFp32));
    GcnModel model(&g, cfg, session.get());
    std::vector<EpochResult> epochs;
    for (int e = 0; e < 3; ++e) epochs.push_back(model.TrainEpoch());
    return epochs;
  };
  const auto sync_epochs = run(sync_cfg);
  const auto async_epochs = run(async_cfg);
  for (size_t e = 0; e < sync_epochs.size(); ++e) {
    EXPECT_EQ(sync_epochs[e].loss, async_epochs[e].loss) << "epoch " << e;
    EXPECT_EQ(sync_epochs[e].accuracy, async_epochs[e].accuracy);
    EXPECT_EQ(sync_epochs[e].forward.TotalNs(), async_epochs[e].forward.TotalNs());
    EXPECT_EQ(sync_epochs[e].backward.TotalNs(), async_epochs[e].backward.TotalNs());
    EXPECT_EQ(sync_epochs[e].backward.agg_ns, async_epochs[e].backward.agg_ns);
    EXPECT_EQ(sync_epochs[e].backward.update_ns, async_epochs[e].backward.update_ns);
    EXPECT_EQ(sync_epochs[e].backward.launch_ns, async_epochs[e].backward.launch_ns);
  }
}

TEST(GnnPipelineTest, GinAsyncPipelineIsBitIdenticalToSync) {
  const Graph g = TestGraph(240, /*seed=*/17);
  const CsrMatrix ahat = GinOperator(g.adjacency);
  GnnConfig sync_cfg;
  sync_cfg.num_layers = 2;
  sync_cfg.learning_rate = 0.01;
  sync_cfg.async_pipeline = false;
  GnnConfig async_cfg = sync_cfg;
  async_cfg.async_pipeline = true;

  auto run = [&](const GnnConfig& cfg) {
    auto session = Runtime::Default()->OpenSession(
        &ahat, SessionOptions().set_dtype(DataType::kFp32));
    GinModel model(&g, cfg, session.get());
    std::vector<EpochResult> epochs;
    for (int e = 0; e < 3; ++e) epochs.push_back(model.TrainEpoch());
    return epochs;
  };
  const auto sync_epochs = run(sync_cfg);
  const auto async_epochs = run(async_cfg);
  for (size_t e = 0; e < sync_epochs.size(); ++e) {
    EXPECT_EQ(sync_epochs[e].loss, async_epochs[e].loss) << "epoch " << e;
    EXPECT_EQ(sync_epochs[e].forward.TotalNs(), async_epochs[e].forward.TotalNs());
    EXPECT_EQ(sync_epochs[e].backward.TotalNs(), async_epochs[e].backward.TotalNs());
  }
}

TEST(GnnPipelineTest, TrainStatsAveragesAreZeroWithoutEpochs) {
  const Graph g = TestGraph(100, /*seed=*/23);
  GnnConfig cfg;
  const TrainStats stats =
      TrainGnn(g, GnnModelKind::kGcn, "hcspmm", cfg, Rtx3090(), /*epochs=*/0);
  EXPECT_TRUE(stats.epochs.empty());
  EXPECT_EQ(stats.AvgForwardMs(), 0.0);
  EXPECT_EQ(stats.AvgBackwardMs(), 0.0);
  EXPECT_EQ(stats.AvgEpochMs(), 0.0);
  EXPECT_EQ(stats.final_loss, 0.0);
}

}  // namespace
}  // namespace hcspmm
