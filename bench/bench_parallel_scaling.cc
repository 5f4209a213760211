// Parallel execution scaling: wall-clock speedup of the hcspmm functional
// execution vs. thread count on a 100k-row RMAT graph, plus the PlanCache
// session-open savings.
// Unlike the fig*/table* harnesses (simulated GPU time), this measures real
// host wall-clock, so the numbers depend on the machine's core count.
// `--json out.json` additionally writes the scaling sweep as a
// machine-readable artifact (CI uploads it); the exit code is non-zero if
// any thread count failed bit-identity, so the run doubles as a smoke gate.
#include <thread>

#include "bench/bench_util.h"
#include "exec/plan_cache.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "runtime/runtime.h"
#include "sparse/convert.h"
#include "util/logging.h"
#include "util/timer.h"

using namespace hcspmm;
using namespace hcspmm::bench;

namespace {

constexpr int32_t kScaleLog2 = 17;  // 2^17 = 131072 rows (>= 100k)
constexpr int64_t kEdges = 1000000;
constexpr int32_t kDim = 64;
constexpr int32_t kIters = 3;

double TimedMultiplyMs(const Session& session, const DenseMatrix& x, DenseMatrix* z) {
  WallTimer timer;
  for (int32_t i = 0; i < kIters; ++i) {
    Status st = session.Multiply(x, z, nullptr);
    HCSPMM_CHECK_OK(st);
  }
  return timer.ElapsedMs() / kIters;
}

// Metered host traffic of one multiply (indices + values + gathered
// features + output), for the bytes/nnz and effective-bandwidth fields.
int64_t HostBytesPerMultiply(const Session& session, const DenseMatrix& x) {
  DenseMatrix z;
  KernelProfile profile;
  HCSPMM_CHECK_OK(session.Multiply(x, &z, &profile));
  return profile.host_bytes;
}

// An fp32 hcspmm session on the default runtime (shared PlanCache), ready.
std::shared_ptr<Session> OpenFp32(const CsrMatrix* abar, int num_threads) {
  auto session = Runtime::Default()->OpenSession(
      abar, SessionOptions().set_dtype(DataType::kFp32).set_num_threads(num_threads));
  HCSPMM_CHECK_OK(session->WaitReady());
  return session;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonOutputPath(argc, argv);
  PrintTitle("Parallel scaling: hcspmm on RMAT (wall-clock)");
  std::printf("  hardware threads available: %d\n", ThreadPool::HardwareThreads());

  Pcg32 rng(7);
  Graph g = RMat(kScaleLog2, kEdges, kDim, &rng);
  CsrMatrix abar = GcnNormalized(g.adjacency);
  std::printf("  graph: %d rows, %lld nnz, dim %d, %d iterations per point\n",
              abar.rows(), static_cast<long long>(abar.nnz()), kDim, kIters);
  DenseMatrix x(abar.cols(), kDim, 0.5f);

  // fp32 keeps the Tensor path unrounded so every thread count must produce
  // bit-identical output.
  PlanCache::Global()->Clear();
  const auto serial = OpenFp32(&abar, /*num_threads=*/1);
  std::printf("  plan build (simulated preprocess): %.3f ms\n",
              serial->PreprocessNs() / 1e6);

  DenseMatrix z_serial;
  const double serial_ms = TimedMultiplyMs(*serial, x, &z_serial);
  // Host traffic is thread-count-invariant (same plan, same matrices), so
  // meter it once; only the effective GB/s varies with the wall clock.
  const int64_t host_bytes = HostBytesPerMultiply(*serial, x);
  const double bytes_per_nnz = static_cast<double>(host_bytes) / abar.nnz();

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"1", FormatDouble(serial_ms, 2), "1.00", "yes", "0.0e+00"});
  std::vector<std::string> json_points;
  json_points.push_back(JsonObject({JsonField("threads", 1), JsonField("ms", serial_ms),
                                    JsonField("speedup", 1.0),
                                    JsonField("bit_identical", true),
                                    JsonField("max_abs_diff", 0.0),
                                    JsonField("bytes_per_nnz", bytes_per_nnz),
                                    JsonField("effective_gbps",
                                              host_bytes / (serial_ms * 1e6))}));
  bool all_identical = true;
  for (int threads : {2, 4, 8}) {
    const auto session = OpenFp32(&abar, threads);
    HCSPMM_CHECK(session->plan_from_cache()) << "PlanCache should have the plan";
    DenseMatrix z;
    const double ms = TimedMultiplyMs(*session, x, &z);
    const double max_diff = z.MaxAbsDifference(z_serial);
    all_identical = all_identical && max_diff == 0.0;
    char diff_buf[32];
    std::snprintf(diff_buf, sizeof(diff_buf), "%.1e", max_diff);
    rows.push_back({std::to_string(threads), FormatDouble(ms, 2),
                    FormatDouble(serial_ms / ms, 2),
                    max_diff == 0.0 ? "yes" : "NO", diff_buf});
    json_points.push_back(JsonObject(
        {JsonField("threads", threads), JsonField("ms", ms),
         JsonField("speedup", serial_ms / ms),
         JsonField("bit_identical", max_diff == 0.0),
         JsonField("max_abs_diff", max_diff),
         JsonField("bytes_per_nnz", bytes_per_nnz),
         JsonField("effective_gbps", host_bytes / (ms * 1e6))}));
  }
  PrintTable({"threads", "ms/multiply", "speedup", "bit-identical", "max|diff|"}, rows);
  PrintNote("speedup is bounded by physical cores; expect ~flat on 1-core machines");

  PrintTitle("PlanCache: repeated session open (real host time)");
  {
    PlanCache::Global()->Clear();
    WallTimer cold_timer;
    const auto cold = OpenFp32(&abar, /*num_threads=*/0);
    const double cold_ms = cold_timer.ElapsedMs();
    WallTimer warm_timer;
    const auto warm = OpenFp32(&abar, /*num_threads=*/0);
    const double warm_ms = warm_timer.ElapsedMs();
    std::printf(
        "  cold open: %.2f ms (simulated preprocess %.3f ms), warm: %.2f ms "
        "(cache hit, simulated preprocess %.3f ms)\n",
        cold_ms, cold->PreprocessNs() / 1e6, warm_ms, warm->PreprocessNs() / 1e6);
  }

  if (!json_path.empty()) {
    const std::string report = JsonObject(
        {JsonField("bench", std::string("parallel_scaling")),
         JsonField("hardware_threads", ThreadPool::HardwareThreads()),
         JsonField("rows", static_cast<int64_t>(abar.rows())),
         JsonField("nnz", abar.nnz()), JsonField("dim", kDim),
         JsonValue(std::string("points")) + ": " + JsonArray(json_points)});
    HCSPMM_CHECK(WriteTextFile(json_path, report)) << "cannot write " << json_path;
    std::printf("\n  wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}
