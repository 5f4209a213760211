// Process-wide cache of HC-SpMM HybridPlans. Preprocessing (windowing +
// condensing + selector classification) is the one-time cost the paper
// amortizes across a training run (Appendix F, Table XI); the cache extends
// that amortization across sessions and runs: any Session bound to a
// matrix with identical content on the same device/dtype reuses the plan
// instead of rebuilding it. Entries are LRU-evicted under a byte budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/preprocess.h"
#include "gpusim/device.h"
#include "sparse/csr.h"

namespace hcspmm {

/// Content-addressed identity of one (matrix, device, dtype) binding.
/// `rows`/`nnz` ride along as cheap collision guards for the 64-bit
/// fingerprint: two matrices that collide in hash but differ in shape or
/// population can never alias a cache entry. `device_params` hashes the
/// cost-relevant DeviceSpec fields so a tweaked spec (ablation studies
/// mutate core counts/efficiency while keeping the name) never reuses a
/// plan classified under different hardware assumptions.
struct PlanCacheKey {
  uint64_t fingerprint = 0;
  int32_t rows = 0;
  int64_t nnz = 0;
  std::string device;
  uint64_t device_params = 0;
  DataType dtype = DataType::kTf32;
  /// Hash of the selector coefficients the plan was classified under
  /// (FingerprintSelector). Sessions carrying an injected (e.g. calibrated)
  /// selector route windows differently, so their plans must never alias
  /// the default-selector entries. 0 == the device's default selector.
  uint64_t selector_params = 0;
  /// Index storage encoding of the plan's execution path: 0 = plain int32
  /// CSR column indices, 1 = packed delta stream (HybridPlan::packed is
  /// populated). Separate key bit so compressed and plain plans for the
  /// same matrix never alias (a plain session must not pay the sidecar,
  /// and a compressed one must find it built).
  uint8_t index_storage = 0;

  bool operator==(const PlanCacheKey& o) const {
    return fingerprint == o.fingerprint && rows == o.rows && nnz == o.nnz &&
           device == o.device && device_params == o.device_params &&
           dtype == o.dtype && selector_params == o.selector_params &&
           index_storage == o.index_storage;
  }
};

struct PlanCacheKeyHash {
  size_t operator()(const PlanCacheKey& k) const;
};

/// Counters exposed for tests and ops dashboards.
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t bytes_in_use = 0;
  int64_t entries = 0;
};

/// \brief Thread-safe LRU cache of shared, immutable HybridPlans.
///
/// Cached plans are detached from the CsrMatrix they were built from
/// (`windows.csr == nullptr`): the cache may outlive any particular matrix
/// object, and HcSpmm::RunWithPlan validates plans structurally.
class PlanCache {
 public:
  static constexpr int64_t kDefaultByteBudget = 256ll * 1024 * 1024;

  explicit PlanCache(int64_t byte_budget = kDefaultByteBudget);

  /// Process-wide instance used by the default Runtime.
  /// Its byte budget honors HCSPMM_PLAN_CACHE_BYTES at first use; see
  /// DefaultPlanCacheByteBudget().
  static PlanCache* Global();

  /// Returns the cached plan (refreshing its LRU position) or nullptr.
  std::shared_ptr<const HybridPlan> Lookup(const PlanCacheKey& key);

  /// Insert (or replace) the plan for `key`, then evict LRU entries until
  /// the byte budget holds. A plan larger than the whole budget is not
  /// cached at all.
  void Insert(const PlanCacheKey& key, std::shared_ptr<const HybridPlan> plan);

  /// Drop every entry (test isolation; counters reset too).
  void Clear();

  /// Shrink/grow the budget; shrinking evicts immediately.
  void SetByteBudget(int64_t byte_budget);
  int64_t byte_budget() const;

  PlanCacheStats stats() const;

 private:
  struct Entry {
    PlanCacheKey key;
    std::shared_ptr<const HybridPlan> plan;
    int64_t bytes = 0;
  };

  void EvictToBudgetLocked();

  mutable std::mutex mu_;
  int64_t byte_budget_;
  int64_t bytes_in_use_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<PlanCacheKey, std::list<Entry>::iterator, PlanCacheKeyHash> index_;
  // Monotonic counters are atomics (relaxed: they are independent tallies,
  // not synchronization) so stats() stays race-free against concurrent
  // sessions inserting/looking up — per-shard plan builds made that the
  // common case, and TSan flags a plain-int read racing the increments.
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> evictions_{0};
};

/// Configured default byte budget: the HCSPMM_PLAN_CACHE_BYTES environment
/// variable when set to a parseable non-negative integer, else
/// PlanCache::kDefaultByteBudget. Read once per call (no caching), so tests
/// can toggle the variable.
int64_t DefaultPlanCacheByteBudget();

/// 64-bit FNV-1a content hash over shape + row_ptr + col_ind + val.
uint64_t FingerprintCsr(const CsrMatrix& m);

/// Hash of every DeviceSpec field the cost model (and thus the plan's
/// window classification) depends on.
uint64_t FingerprintDeviceParams(const DeviceSpec& dev);

/// Hash of the selector coefficients (classification identity of a plan).
uint64_t FingerprintSelector(const SelectorModel& selector);

/// Assemble the cache key for binding `m` to (`dev`, `dtype`) under the
/// device's default selector.
PlanCacheKey MakePlanCacheKey(const CsrMatrix& m, const DeviceSpec& dev, DataType dtype);

/// Key for a plan classified by an explicitly injected `selector`.
PlanCacheKey MakePlanCacheKey(const CsrMatrix& m, const DeviceSpec& dev, DataType dtype,
                              const SelectorModel& selector);

/// Approximate resident bytes of a plan (windows metadata + assignment).
int64_t PlanMemoryBytes(const HybridPlan& plan);

}  // namespace hcspmm
