#include "gnn/trainer.h"

#include "runtime/runtime.h"
#include "shard/sharded_session.h"
#include "util/logging.h"

namespace hcspmm {

double TrainStats::AvgForwardMs() const {
  if (epochs.empty()) return 0.0;
  double sum = 0.0;
  for (const EpochResult& e : epochs) sum += e.forward.TotalMs();
  return sum / epochs.size();
}

double TrainStats::AvgBackwardMs() const {
  if (epochs.empty()) return 0.0;
  double sum = 0.0;
  for (const EpochResult& e : epochs) sum += e.backward.TotalMs();
  return sum / epochs.size();
}

double TrainStats::AvgEpochMs() const { return AvgForwardMs() + AvgBackwardMs(); }

TrainStats TrainGnn(const Graph& graph, GnnModelKind kind,
                    const std::string& kernel_name, const GnnConfig& config,
                    const DeviceSpec& dev, int32_t epochs, DataType dtype) {
  TrainStats stats;
  const CsrMatrix abar = (kind == GnnModelKind::kGcn)
                             ? GcnNormalized(graph.adjacency)
                             : GinOperator(graph.adjacency);
  // Opening returns immediately: plan building / fingerprinting (for every
  // shard, when sharded) runs on the runtime pool and overlaps the model's
  // weight initialization below; the first epoch's first multiply waits.
  SessionOptions options =
      SessionOptions().set_kernel(kernel_name).set_device(dev).set_dtype(dtype);
  // Packed indices only exist on the hcspmm plan; baseline kernels keep
  // plain CSR (their Table XII numbers must reflect what they store).
  if (config.compress_indices && kernel_name == "hcspmm") {
    options.set_compress_indices(true);
  }
  std::shared_ptr<SpmmBackend> backend;
  if (config.num_shards > 1) {
    ShardingOptions sharding;
    sharding.num_shards = config.num_shards;
    backend = ShardedSession::Open(Runtime::Default(), abar, options, sharding);
  } else {
    backend = Runtime::Default()->OpenSession(&abar, options);
  }

  if (kind == GnnModelKind::kGcn) {
    GcnModel model(&graph, config, backend.get());
    for (int32_t e = 0; e < epochs; ++e) stats.epochs.push_back(model.TrainEpoch());
    stats.memory_bytes = EstimateTrainingMemoryBytes(
        graph, abar, backend.get(), model.ActivationBytes(), model.ParameterBytes());
  } else {
    GinModel model(&graph, config, backend.get());
    for (int32_t e = 0; e < epochs; ++e) stats.epochs.push_back(model.TrainEpoch());
    stats.memory_bytes = EstimateTrainingMemoryBytes(
        graph, abar, backend.get(), model.ActivationBytes(), model.ParameterBytes());
  }
  stats.preprocess_ms = backend->PreprocessNs() / 1e6;
  if (!stats.epochs.empty()) {
    stats.final_loss = stats.epochs.back().loss;
    stats.final_accuracy = stats.epochs.back().accuracy;
  }
  return stats;
}

int64_t EstimateTrainingMemoryBytes(const Graph& graph, const CsrMatrix& abar,
                                    const SpmmBackend* backend,
                                    int64_t activation_bytes, int64_t parameter_bytes) {
  int64_t bytes = 0;
  bytes += graph.features.MemoryBytes();
  bytes += static_cast<int64_t>(graph.labels.size()) * 4;
  bytes += abar.MemoryBytes();
  bytes += activation_bytes;
  bytes += parameter_bytes;
  bytes += backend->AuxMemoryBytes();
  return bytes;
}

}  // namespace hcspmm
