// Command-line SpMM driver: load a Matrix Market file (or a synthesized
// paper dataset), run any registered kernel on the simulated device of your
// choice, and print the cost profile — the quickest way to try HC-SpMM on
// your own graph.
//
//   $ ./spmm_tool --matrix graph.mtx --kernel hcspmm --dim 32 --device 3090
//   $ ./spmm_tool --dataset RD --compare          # all kernels side by side
#include <cstdio>
#include <cstring>
#include <string>

#include "core/hybrid_spmm.h"
#include "graph/datasets.h"
#include "sparse/convert.h"
#include "sparse/mmio.h"
#include "util/string_util.h"

using namespace hcspmm;

namespace {

void Usage() {
  std::printf(
      "usage: spmm_tool [options]\n"
      "  --matrix <path.mtx>   load a Matrix Market file\n"
      "  --dataset <code>      synthesize a paper dataset (CS, CR, ..., DP)\n"
      "  --kernel <name>       kernel to run (default hcspmm)\n"
      "  --compare             run every registered kernel\n"
      "  --dim <n>             dense matrix width (default 32)\n"
      "  --device <name>       3090 | 4090 | A100 (default 3090)\n"
      "  --dtype <t>           tf32 | fp16 | bf16 | fp32 (default tf32)\n");
}

DataType ParseDtype(const std::string& s) {
  if (s == "fp16") return DataType::kFp16;
  if (s == "bf16") return DataType::kBf16;
  if (s == "fp32") return DataType::kFp32;
  return DataType::kTf32;
}

}  // namespace

int main(int argc, char** argv) {
  std::string matrix_path, dataset_code, kernel_name = "hcspmm", device = "3090";
  std::string dtype_name = "tf32";
  int32_t dim = 32;
  bool compare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : ""; };
    if (arg == "--matrix") {
      matrix_path = next();
    } else if (arg == "--dataset") {
      dataset_code = next();
    } else if (arg == "--kernel") {
      kernel_name = next();
    } else if (arg == "--dim") {
      dim = std::atoi(next());
    } else if (arg == "--device") {
      device = next();
    } else if (arg == "--dtype") {
      dtype_name = next();
    } else if (arg == "--compare") {
      compare = true;
    } else {
      Usage();
      return arg == "--help" ? 0 : 1;
    }
  }

  CsrMatrix a;
  if (!matrix_path.empty()) {
    auto coo = ReadMatrixMarket(matrix_path);
    if (!coo.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", matrix_path.c_str(),
                   coo.status().ToString().c_str());
      return 1;
    }
    a = CooToCsr(coo.ValueOrDie());
  } else {
    if (dataset_code.empty()) dataset_code = "PM";
    auto spec = DatasetByCode(dataset_code);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    a = GcnNormalized(LoadDatasetCapped(spec.ValueOrDie(), 250000).adjacency);
  }
  std::printf("matrix: %dx%d, %lld nnz (%.2f%% sparse)\n", a.rows(), a.cols(),
              static_cast<long long>(a.nnz()), 100.0 * a.Sparsity());

  const DeviceSpec dev = DeviceByName(device);
  KernelOptions opts;
  opts.dtype = ParseDtype(dtype_name);
  DenseMatrix x(a.cols(), dim, 0.5f);
  std::printf("device: %s, dim: %d, dtype: %s\n\n", dev.name.c_str(), dim,
              DataTypeName(opts.dtype));

  std::vector<std::string> to_run =
      compare ? RegisteredKernelNames() : std::vector<std::string>{kernel_name};
  for (const std::string& name : to_run) {
    auto kernel = MakeKernel(name);
    if (kernel == nullptr) {
      std::fprintf(stderr, "unknown kernel: %s\n", name.c_str());
      return 1;
    }
    DenseMatrix z;
    KernelProfile p;
    Status st = kernel->Run(a, x, dev, opts, &z, &p);
    if (!st.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(), st.ToString().c_str());
      continue;
    }
    std::printf("%-12s %10.1f us   windows C/T %lld/%lld   gmem %s B\n",
                name.c_str(), p.time_ns / 1e3,
                static_cast<long long>(p.windows_cuda),
                static_cast<long long>(p.windows_tensor),
                WithCommas(p.gmem_bytes).c_str());
  }
  return 0;
}
