// perfbench: runs one benchmark workload in a fresh process and prints the
// run's metadata as `# key: value` lines, then one JSON result line:
//
//   perfbench --workload spmm|train_gcn|serve_open|churn --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--commit ID]
//
// With --trace 0 the result holds every end-to-end metric; with --trace 1 it
// additionally holds every per-layer metric, measured with spans on (the
// end-to-end values of a traced run are only used to compute the tracing
// overhead). Exits 1 when any output differs from its reference, 2 on a
// usage error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/thread_pool.h"
#include "harness.h"
#include "runtime/runtime.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spmm|train_gcn|serve_open|churn --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--commit ID]\n");
}

std::string JsonNumber(double v) {
  // JSON has no infinity; a percentile that reached a failed operation
  // reads as the largest finite double instead.
  if (!std::isfinite(v)) v = v > 0 ? 1.7976931348623157e308 : -1.7976931348623157e308;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(val);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(val, "0") != 0;
    } else if (arg == "--trace-out") {
      cfg.trace_path = val;
    } else if (arg == "--commit") {
      commit = val;
    } else {
      Usage();
      return 2;
    }
  }
  Report (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "spmm") run = RunSpmm;
  if (cfg.workload == "train_gcn") run = RunTrainGcn;
  if (cfg.workload == "serve_open") run = RunServeOpen;
  if (cfg.workload == "churn") run = RunChurn;
  if (run == nullptr || !(cfg.seconds > 0.0)) {
    Usage();
    return 2;
  }

  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  const int hw = hcspmm::ThreadPool::HardwareThreads();
  {
    hcspmm::Runtime probe;
    std::printf("# host: %s\n# nproc: %d\n# simd: %s\n# build_type: %s\n"
                "# runtime_threads: %d\n# kernel_threads: %d\n# seed: %llu\n"
                "# seconds: %g\n# trace: %d\n# commit: %s\n"
                "# timing: host wall clock (steady_clock); sim_* = simulated GPU time\n",
                host, hw, hcspmm::simd::ActiveLevelName(), PERFBENCH_BUILD_TYPE,
                probe.pool()->size(), hcspmm::ThreadPool::Global()->size(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0,
                commit.c_str());
  }
  std::fflush(stdout);

  Report r = run(cfg);
  r.Set("peak_rss_mb", PeakRssMb());
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());

  std::string metrics;
  auto add = [&](const MetricSpec& m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + JsonNumber(r.Get(m.name)) +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  for (const MetricSpec& m : EndToEndMetrics()) add(m);
  if (cfg.trace) {
    for (const MetricSpec& m : PerLayerMetrics()) add(m);
  }
  const bool correct = r.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
