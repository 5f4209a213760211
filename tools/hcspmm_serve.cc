// hcspmm_serve: open-loop load generator for the multi-tenant serving layer.
// Spins up a Server over two synthetic graphs, paces --qps aggregate
// submissions across --tenants round-robin tenants for --duration seconds,
// then drains and prints the ServerStats snapshot (per-tenant counters,
// batch-size histogram, latency percentiles). Every completed response is
// verified bitwise against a precomputed direct Session::Multiply reference.
//
// Exit status: 0 on success — kOverloaded rejections are *expected* output
// of an open-loop overload run and are only reported; with --deadline-ms
// and --fault-rate the same goes for kDeadlineExceeded and kUnavailable
// (typed outcomes of the configured chaos, counted and reported). Any
// bitwise mismatch or failure outside the enabled typed set exits non-zero.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "serve/server.h"
#include "sparse/generate.h"
#include "util/fault.h"
#include "util/random.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --tenants N      concurrent tenants, weight ramp 1..N (default: 4)\n"
               "  --qps N          aggregate offered load, requests/s (default: 1000)\n"
               "  --duration S     seconds of offered load (default: 2)\n"
               "  --max-batch N    most queued compatible requests one dispatch\n"
               "                   takes; nothing waits for peers (default: 8)\n"
               "  --seed N         payload/graph RNG seed (default: 17)\n"
               "  --deadline-ms N  per-request deadline; 0 = none (default: 0)\n"
               "  --fault-rate F   injected transient-fault probability per\n"
               "                   dispatch, seeded from --seed (default: 0)\n"
               "  --retry N        max attempts per dispatch incl. the first\n"
               "                   (default: 1 = no retry)\n"
               "  --json PATH      also write the stats snapshot as JSON\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcspmm;
  using namespace hcspmm::bench;

  int num_tenants = 4;
  double qps = 1000.0;
  double duration_s = 2.0;
  int max_batch = 8;
  uint64_t seed = 17;
  int64_t deadline_ms = 0;
  double fault_rate = 0.0;
  int retry = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_operand = i + 1 < argc;
    if (arg == "--tenants" && has_operand) {
      num_tenants = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--qps" && has_operand) {
      qps = std::max(1.0, std::atof(argv[++i]));
    } else if (arg == "--duration" && has_operand) {
      duration_s = std::max(0.1, std::atof(argv[++i]));
    } else if (arg == "--max-batch" && has_operand) {
      max_batch = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--seed" && has_operand) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--deadline-ms" && has_operand) {
      deadline_ms = std::max<int64_t>(0, std::atoll(argv[++i]));
    } else if (arg == "--fault-rate" && has_operand) {
      fault_rate = std::min(1.0, std::max(0.0, std::atof(argv[++i])));
    } else if (arg == "--retry" && has_operand) {
      retry = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--json" && has_operand) {
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    }
  }

  Runtime* rt = Runtime::Default();
  const SessionOptions session_options = SessionOptions().set_dtype(DataType::kFp32);

  // Two graphs: distinct batch keys keep the scheduler honest under load.
  constexpr int32_t kDim = 32;
  constexpr int kPayloadsPerGraph = 8;
  Pcg32 rng(seed);
  Graph g = RMat(/*scale_log2=*/11, /*num_edges=*/40000, kDim, &rng);
  std::vector<CsrMatrix> matrices;
  matrices.push_back(GcnNormalized(g.adjacency));
  matrices.push_back(GenerateUniformSparse(1536, 1536, 0.01, &rng));

  struct Load {
    uint64_t handle;
    std::vector<DenseMatrix> payloads;
    std::vector<DenseMatrix> references;
  };
  ServerOptions options;
  options.pool.session = session_options;
  options.max_batch = max_batch;
  std::shared_ptr<FaultInjector> injector;
  if (fault_rate > 0.0) {
    FaultOptions fopts;
    fopts.seed = seed;
    fopts.fault_rate = fault_rate;
    injector = std::make_shared<FaultInjector>(fopts);
    options.pool.session.set_fault_injector(injector);
  }
  if (retry > 1) {
    options.retry.max_attempts = retry;
    options.retry.seed = seed;
  }
  Server server(rt, options);
  std::vector<Load> loads;
  for (CsrMatrix& m : matrices) {
    Load load;
    std::shared_ptr<Session> direct = rt->OpenSession(&m, session_options);
    for (int p = 0; p < kPayloadsPerGraph; ++p) {
      Pcg32 payload_rng(seed + 1000 + 31 * loads.size() + p);
      load.payloads.push_back(GenerateDense(m.cols(), kDim, &payload_rng));
      DenseMatrix z;
      const Status st = direct->Multiply(load.payloads.back(), &z, nullptr);
      if (!st.ok()) {
        std::fprintf(stderr, "reference multiply failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
      load.references.push_back(std::move(z));
    }
    direct.reset();  // done with the direct session before the matrix moves
    load.handle = server.RegisterGraph(std::move(m));
    loads.push_back(std::move(load));
  }

  std::vector<std::string> tenant_names;
  for (int t = 0; t < num_tenants; ++t) {
    tenant_names.push_back("tenant-" + std::to_string(t));
    TenantOptions topts = options.default_tenant;
    topts.weight = 1.0 + t;  // ramp: tenant-0 weight 1 .. tenant-N weight N
    server.ConfigureTenant(tenant_names.back(), topts);
  }

  std::printf("offering %.0f req/s across %d tenants for %.1fs "
              "(max_batch %d, work-conserving dispatch, %d hw threads)\n",
              qps, num_tenants, duration_s, max_batch, ThreadPool::HardwareThreads());

  // Open-loop pacer: fire at fixed intervals regardless of completions; the
  // server sheds with kOverloaded when tenants outrun their queue bounds.
  // Completions verify in OnReady callbacks — no futures are retained.
  std::atomic<int64_t> resolved{0};
  std::atomic<int64_t> mismatched{0};
  std::atomic<int64_t> hard_failed{0};
  std::atomic<int64_t> deadline_exceeded{0};
  std::atomic<int64_t> unavailable{0};
  // A status is an *expected* chaos outcome only when the flag that can
  // produce it is enabled; otherwise it stays a hard failure.
  const bool deadlines_on = deadline_ms > 0;
  const bool faults_on = fault_rate > 0.0;
  const auto classify = [&](const hcspmm::Status& st) {
    if (deadlines_on && st.IsDeadlineExceeded()) {
      deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    } else if (faults_on && st.IsUnavailable()) {
      unavailable.fetch_add(1, std::memory_order_relaxed);
    } else {
      hard_failed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  int64_t offered = 0;
  int64_t accepted = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / qps));
  auto next_fire = start;
  const auto stop_at =
      start + std::chrono::nanoseconds(static_cast<int64_t>(duration_s * 1e9));
  while (std::chrono::steady_clock::now() < stop_at) {
    std::this_thread::sleep_until(next_fire);
    next_fire += interval;
    const Load& load = loads[offered % loads.size()];
    const DenseMatrix* expected =
        &load.references[(offered / loads.size()) % kPayloadsPerGraph];
    const DenseMatrix& payload =
        load.payloads[(offered / loads.size()) % kPayloadsPerGraph];
    InferRequest req{tenant_names[offered % tenant_names.size()], load.handle,
                     payload};
    if (deadlines_on) {
      req.deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(deadline_ms);
    }
    Future<DenseMatrix> f = server.Submit(std::move(req));
    ++offered;
    if (f.ready() && !f.status().ok()) {
      // Synchronous rejection (kOverloaded under overload); counted by the
      // server's own stats, and a real failure is caught below.
      if (!f.status().IsOverloaded()) classify(f.status());
      continue;
    }
    ++accepted;
    f.OnReady([f, expected, &resolved, &mismatched, &classify]() mutable {
      if (!f.status().ok()) {
        classify(f.status());
      } else {
        const DenseMatrix& z = f.Get();
        const bool same =
            z.rows() == expected->rows() && z.cols() == expected->cols() &&
            std::memcmp(z.data().data(), expected->data().data(),
                        z.data().size() * sizeof(float)) == 0;
        if (!same) mismatched.fetch_add(1, std::memory_order_relaxed);
      }
      resolved.fetch_add(1, std::memory_order_release);
    });
  }
  server.Shutdown();  // drains everything accepted
  // Promise fulfillment runs a hair after the server's internal accounting;
  // wait for the last callbacks before reading the verdict counters.
  while (resolved.load(std::memory_order_acquire) < accepted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const ServerStats stats = server.stats();
  const SessionPoolStats pool = server.pool()->stats();
  std::printf("\noffered %lld, accepted %lld, completed %lld, rejected %lld "
              "(%.1f%% shed), sustained %.0f req/s\n",
              static_cast<long long>(offered), static_cast<long long>(accepted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.rejected),
              offered > 0 ? 100.0 * stats.rejected / offered : 0.0,
              stats.completed / wall_s);
  std::printf("latency p50 %.0f us, p99 %.0f us, max %.0f us\n",
              stats.p50_latency_us, stats.p99_latency_us, stats.max_latency_us);
  std::printf("deadline-missed %lld, retries %lld, shed %lld, breaker trips "
              "%lld, failed %lld\n",
              static_cast<long long>(stats.deadline_missed),
              static_cast<long long>(stats.retries),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.breaker_trips),
              static_cast<long long>(stats.failed));
  std::printf("batches %lld, avg size %.2f; pool: %lld sessions, %lld hits / "
              "%lld misses\n",
              static_cast<long long>(stats.batches), stats.avg_batch_size,
              static_cast<long long>(pool.resident),
              static_cast<long long>(pool.hits),
              static_cast<long long>(pool.misses));

  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, t] : stats.tenants) {
    rows.push_back({name, FormatDouble(t.weight, 1), std::to_string(t.submitted),
                    std::to_string(t.completed), std::to_string(t.rejected),
                    std::to_string(t.failed), std::to_string(t.deadline_missed),
                    std::to_string(t.shed)});
  }
  PrintTable({"tenant", "weight", "submitted", "completed", "rejected", "failed",
              "dl-missed", "shed"},
             rows);

  std::string hist = "batch-size histogram:";
  for (size_t s = 1; s < stats.batch_size_hist.size(); ++s) {
    if (stats.batch_size_hist[s] > 0) {
      hist += " " + std::to_string(s) + "x" +
              std::to_string(stats.batch_size_hist[s]);
    }
  }
  PrintNote(hist);

  if (!json_path.empty()) {
    std::vector<std::string> tenant_objs;
    for (const auto& [name, t] : stats.tenants) {
      tenant_objs.push_back(JsonObject(
          {JsonField("tenant", name), JsonField("weight", t.weight),
           JsonField("submitted", t.submitted), JsonField("completed", t.completed),
           JsonField("rejected", t.rejected), JsonField("failed", t.failed),
           JsonField("deadline_missed", t.deadline_missed),
           JsonField("shed", t.shed)}));
    }
    const std::string report = JsonObject(
        {JsonField("tool", std::string("hcspmm_serve")),
         JsonField("offered", offered), JsonField("accepted", accepted),
         JsonField("completed", stats.completed),
         JsonField("rejected", stats.rejected),
         JsonField("sustained_qps", stats.completed / wall_s),
         JsonField("p50_us", stats.p50_latency_us),
         JsonField("p99_us", stats.p99_latency_us),
         JsonField("batches", stats.batches),
         JsonField("avg_batch_size", stats.avg_batch_size),
         JsonField("deadline_missed", stats.deadline_missed),
         JsonField("retries", stats.retries),
         JsonField("shed", stats.shed),
         JsonField("breaker_trips", stats.breaker_trips),
         JsonField("failed", stats.failed),
         JsonField("injected_faults",
                   injector != nullptr ? injector->injected_faults() : 0),
         JsonField("mismatched", mismatched.load()),
         JsonValue(std::string("tenants")) + ": " + JsonArray(tenant_objs)});
    if (!WriteTextFile(json_path, report)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", json_path.c_str());
  }

  if (deadlines_on || faults_on) {
    std::printf("typed chaos outcomes: %lld deadline-exceeded, %lld "
                "unavailable (expected under the configured flags)\n",
                static_cast<long long>(deadline_exceeded.load()),
                static_cast<long long>(unavailable.load()));
  }
  if (mismatched.load() != 0 || hard_failed.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %lld bitwise mismatches, %lld unexpected failures\n",
                 static_cast<long long>(mismatched.load()),
                 static_cast<long long>(hard_failed.load()));
    return 1;
  }
  std::printf("all %lld completed responses bit-identical to the direct path\n",
              static_cast<long long>(stats.completed));
  return 0;
}
