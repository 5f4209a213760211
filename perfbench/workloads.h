// The benchmark's four workloads and the metric names they report.
//
// Every workload reports the same end-to-end metrics, so the same name means
// the same thing to a user on every workload: how long set-up takes, how
// much memory the run holds, and how long one unit of the workload's work
// takes on the host (median and tail) and on the simulated GPU. The unit of
// work is one pass over the (graph, dim) cycle for `spmm`, one training
// epoch for `train_gcn`, and one served request, timed from its due time,
// for `serve_open` and `churn`. A traced run additionally reports every
// per-layer metric; a layer a workload does not use reads 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, host wall-clock unless prefixed `sim_`.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics, reported by traced runs only.
const std::vector<MetricSpec>& PerLayerMetrics();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where a traced run writes its spans ("" = nowhere)
};

/// What one workload run measured and checked. Metrics are stored by name;
/// names must come from EndToEndMetrics() or PerLayerMetrics().
class Report {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// One operation attempted; `ok` false counts it failed.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// An output that differs from its reference: the operation (already
  /// counted as attempted) fails and the run is incorrect.
  void Mismatch(const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }

  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, double>> values;
};

Report RunSpmm(const RunConfig& cfg);
Report RunTrainGcn(const RunConfig& cfg);
Report RunServeOpen(const RunConfig& cfg);
Report RunChurn(const RunConfig& cfg);

}  // namespace perfbench
