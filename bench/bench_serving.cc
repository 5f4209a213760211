// Multi-tenant serving load bench: closed-loop saturation of the Server with
// several weighted tenants over two registered graphs, run twice — once with
// cross-request micro-batching enabled (max_batch 8) and once degenerate
// (max_batch 1, every request its own dispatch). The dispatcher never waits
// for peers: a batch is whatever is queued for its key when it pops, so the
// batch-size mix is set by the queue the load builds. Reports sustained QPS,
// latency percentiles, and the realized batch-size mix per mode.
//
// Correctness gate: every single response is compared bitwise (fp32) against
// a direct Session::Multiply of the same payload; any mismatch exits
// non-zero, which CI uses as a smoke gate alongside the `--json` artifact.
// The QPS speedup of batching comes from item-level parallelism inside one
// dispatch, so it is bounded by physical cores — expect ~flat on 1-core
// machines while the bit-identity and batching-mix columns stay meaningful.
#include <atomic>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/plan_cache.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "serve/server.h"
#include "sparse/generate.h"
#include "util/logging.h"
#include "util/timer.h"

using namespace hcspmm;
using namespace hcspmm::bench;

namespace {

constexpr int32_t kDim = 32;
constexpr int kPayloadsPerGraph = 8;
constexpr int kRequestsPerTenant = 1500;
constexpr int kPipelineDepth = 8;  // in-flight futures per tenant thread

struct TenantSpec {
  std::string name;
  double weight;
};

const std::vector<TenantSpec> kTenants = {
    {"free-tier", 1.0}, {"standard", 1.0}, {"pro", 2.0}, {"enterprise", 4.0}};

struct GraphLoad {
  CsrMatrix matrix;    // registered (copied) into every mode's server
  uint64_t handle = 0; // content fingerprint: identical in every pool
  std::vector<DenseMatrix> payloads;
  std::vector<DenseMatrix> references;  // direct Session::Multiply ground truth
};

struct ModeResult {
  std::string mode;
  double qps = 0.0;
  double wall_ms = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double avg_batch = 0.0;
  int64_t batches = 0;
  int64_t completed = 0;
  int64_t mismatches = 0;
};

bool BitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

ModeResult RunMode(Runtime* rt, const std::string& mode, int max_batch,
                   const std::vector<GraphLoad>& loads) {
  ServerOptions options;
  options.pool.max_sessions = 4;
  options.pool.session = SessionOptions().set_dtype(DataType::kFp32);
  options.max_batch = max_batch;
  options.default_tenant.max_queue = 4096;  // closed loop: never shed here
  Server server(rt, options);
  for (const GraphLoad& load : loads) {
    // Handles are content fingerprints, so registering a copy of the same
    // matrix resolves to the same ids the loads were built with.
    HCSPMM_CHECK(server.RegisterGraph(CsrMatrix(load.matrix)) == load.handle);
  }
  for (const TenantSpec& tenant : kTenants) {
    TenantOptions topts = options.default_tenant;
    topts.weight = tenant.weight;
    server.ConfigureTenant(tenant.name, topts);
  }

  std::atomic<int64_t> mismatches{0};
  WallTimer timer;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kTenants.size(); ++t) {
    threads.emplace_back([&, t] {
      std::deque<std::pair<Future<DenseMatrix>, const DenseMatrix*>> inflight;
      const auto drain_one = [&] {
        auto [future, expected] = std::move(inflight.front());
        inflight.pop_front();
        if (!future.status().ok() || !BitIdentical(future.Get(), *expected)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      };
      for (int i = 0; i < kRequestsPerTenant; ++i) {
        const GraphLoad& load = loads[(t + i) % loads.size()];
        const int p = i % kPayloadsPerGraph;
        inflight.emplace_back(
            server.Submit({kTenants[t].name, load.handle, load.payloads[p]}),
            &load.references[p]);
        if (inflight.size() >= kPipelineDepth) drain_one();
      }
      while (!inflight.empty()) drain_one();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_ms = timer.ElapsedMs();
  server.Shutdown();

  const ServerStats stats = server.stats();
  ModeResult r;
  r.mode = mode;
  r.wall_ms = wall_ms;
  r.completed = stats.completed;
  r.qps = stats.completed / (wall_ms / 1e3);
  r.p50_us = stats.p50_latency_us;
  r.p99_us = stats.p99_latency_us;
  r.avg_batch = stats.avg_batch_size;
  r.batches = stats.batches;
  r.mismatches = mismatches.load();
  HCSPMM_CHECK(stats.rejected == 0) << "closed-loop bench should never shed";
  const int64_t expected =
      static_cast<int64_t>(kTenants.size()) * kRequestsPerTenant;
  HCSPMM_CHECK(stats.completed == expected)
      << "completed " << stats.completed << " of " << expected;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonOutputPath(argc, argv);

  PrintTitle("Multi-tenant serving: QPS / latency under closed-loop load");
  std::printf("  hardware threads available: %d\n", ThreadPool::HardwareThreads());

  Runtime* rt = Runtime::Default();

  // Two graphs => two batch keys: the scheduler has to segregate batches.
  Pcg32 rng(17);
  Graph g = RMat(/*scale_log2=*/11, /*num_edges=*/40000, kDim, &rng);
  std::vector<CsrMatrix> matrices;
  matrices.push_back(GcnNormalized(g.adjacency));
  matrices.push_back(GenerateUniformSparse(1536, 1536, 0.01, &rng));

  std::vector<GraphLoad> loads;
  int64_t total_nnz = 0;
  for (CsrMatrix& m : matrices) {
    GraphLoad load;
    total_nnz += m.nnz();
    load.matrix = std::move(m);
    load.handle = FingerprintCsr(load.matrix);
    std::shared_ptr<Session> direct = rt->OpenSession(
        &load.matrix, SessionOptions().set_dtype(DataType::kFp32));
    for (int p = 0; p < kPayloadsPerGraph; ++p) {
      Pcg32 payload_rng(1000 + 31 * loads.size() + p);
      load.payloads.push_back(
          GenerateDense(load.matrix.cols(), kDim, &payload_rng));
      DenseMatrix z;
      HCSPMM_CHECK_OK(direct->Multiply(load.payloads.back(), &z, nullptr));
      load.references.push_back(std::move(z));
    }
    loads.push_back(std::move(load));
  }
  std::printf("  %zu graphs (%lld nnz total), dim %d, %zu tenants x %d requests\n",
              loads.size(), static_cast<long long>(total_nnz), kDim,
              kTenants.size(), kRequestsPerTenant);

  // An untimed warm-up round (its responses are still checked bitwise).
  // Without it, on a 4-vCPU VM that had sat idle for 20 s, whichever mode
  // ran first lost half its QPS with the CPUs mostly idle.
  const ModeResult warmup = RunMode(rt, "warmup", /*max_batch=*/8, loads);
  std::vector<ModeResult> results;
  results.push_back(RunMode(rt, "batch1", /*max_batch=*/1, loads));
  results.push_back(RunMode(rt, "batched", /*max_batch=*/8, loads));

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> json_points;
  int64_t total_mismatches = warmup.mismatches;
  for (const ModeResult& r : results) {
    total_mismatches += r.mismatches;
    rows.push_back({r.mode, FormatDouble(r.qps, 0), FormatDouble(r.p50_us, 0),
                    FormatDouble(r.p99_us, 0), FormatDouble(r.avg_batch, 2),
                    std::to_string(r.batches),
                    r.mismatches == 0 ? "yes" : "NO"});
    json_points.push_back(JsonObject(
        {JsonField("mode", r.mode), JsonField("qps", r.qps),
         JsonField("wall_ms", r.wall_ms), JsonField("p50_us", r.p50_us),
         JsonField("p99_us", r.p99_us), JsonField("avg_batch_size", r.avg_batch),
         JsonField("batches", r.batches), JsonField("completed", r.completed),
         JsonField("bit_identical", r.mismatches == 0)}));
  }
  PrintTable({"mode", "QPS", "p50 us", "p99 us", "avg batch", "batches",
              "bit-identical"},
             rows);
  const double speedup = results[1].qps / results[0].qps;
  PrintNote("batched/batch1 QPS ratio: " + FormatDouble(speedup, 2) +
            "x (batching wins need multi-core: items of one batch run in "
            "parallel)");
  PrintNote("every response verified bitwise against a direct Session::Multiply");

  if (!json_path.empty()) {
    const std::string report = JsonObject(
        {JsonField("bench", std::string("serving")),
         JsonField("hardware_threads", ThreadPool::HardwareThreads()),
         JsonField("tenants", static_cast<int64_t>(kTenants.size())),
         JsonField("requests_per_tenant", kRequestsPerTenant),
         JsonField("dim", kDim), JsonField("qps_ratio_batched_vs_batch1", speedup),
         JsonValue(std::string("points")) + ": " + JsonArray(json_points)});
    HCSPMM_CHECK(WriteTextFile(json_path, report)) << "cannot write " << json_path;
    std::printf("\n  wrote %s\n", json_path.c_str());
  }
  if (total_mismatches != 0) {
    std::fprintf(stderr, "FAIL: %lld served responses mismatched the direct path\n",
                 static_cast<long long>(total_mismatches));
    return 1;
  }
  return 0;
}
