#include "exec/plan_cache.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace hcspmm {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

size_t PlanCacheKeyHash::operator()(const PlanCacheKey& k) const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, &k.fingerprint, sizeof(k.fingerprint));
  h = FnvMix(h, &k.rows, sizeof(k.rows));
  h = FnvMix(h, &k.nnz, sizeof(k.nnz));
  h = FnvMix(h, k.device.data(), k.device.size());
  h = FnvMix(h, &k.device_params, sizeof(k.device_params));
  const int32_t dt = static_cast<int32_t>(k.dtype);
  h = FnvMix(h, &dt, sizeof(dt));
  h = FnvMix(h, &k.selector_params, sizeof(k.selector_params));
  h = FnvMix(h, &k.index_storage, sizeof(k.index_storage));
  return static_cast<size_t>(h);
}

uint64_t FingerprintCsr(const CsrMatrix& m) {
  uint64_t h = kFnvOffset;
  const int32_t shape[2] = {m.rows(), m.cols()};
  h = FnvMix(h, shape, sizeof(shape));
  h = FnvMix(h, m.row_ptr().data(), m.row_ptr().size() * sizeof(int64_t));
  h = FnvMix(h, m.col_ind().data(), m.col_ind().size() * sizeof(int32_t));
  h = FnvMix(h, m.val().data(), m.val().size() * sizeof(float));
  return h;
}

uint64_t FingerprintDeviceParams(const DeviceSpec& dev) {
  uint64_t h = kFnvOffset;
  const int32_t ints[4] = {dev.sm_count, dev.cuda_cores_per_sm,
                           dev.tensor_cores_per_sm, dev.shared_mem_per_sm_bytes};
  h = FnvMix(h, ints, sizeof(ints));
  h = FnvMix(h, &dev.max_warps_per_sm, sizeof(dev.max_warps_per_sm));
  const double doubles[6] = {dev.clock_ghz,        dev.mem_bandwidth_gbps,
                             dev.kernel_launch_ns, dev.kernel_ramp_ns,
                             dev.efficiency,       dev.l2_boost};
  h = FnvMix(h, doubles, sizeof(doubles));
  return h;
}

uint64_t FingerprintSelector(const SelectorModel& selector) {
  uint64_t h = kFnvOffset;
  const double coeffs[3] = {selector.w_sparsity, selector.w_cols, selector.bias};
  h = FnvMix(h, coeffs, sizeof(coeffs));
  return h;
}

PlanCacheKey MakePlanCacheKey(const CsrMatrix& m, const DeviceSpec& dev,
                              DataType dtype) {
  PlanCacheKey key;
  key.fingerprint = FingerprintCsr(m);
  key.rows = m.rows();
  key.nnz = m.nnz();
  key.device = dev.name;
  key.device_params = FingerprintDeviceParams(dev);
  key.dtype = dtype;
  return key;
}

PlanCacheKey MakePlanCacheKey(const CsrMatrix& m, const DeviceSpec& dev,
                              DataType dtype, const SelectorModel& selector) {
  PlanCacheKey key = MakePlanCacheKey(m, dev, dtype);
  key.selector_params = FingerprintSelector(selector);
  return key;
}

int64_t PlanMemoryBytes(const HybridPlan& plan) {
  int64_t bytes = static_cast<int64_t>(sizeof(HybridPlan));
  for (const RowWindow& w : plan.windows.windows) {
    bytes += static_cast<int64_t>(sizeof(RowWindow)) +
             static_cast<int64_t>(w.unique_cols.capacity()) * sizeof(int32_t);
  }
  bytes += static_cast<int64_t>(plan.assignment.capacity()) * sizeof(CoreType);
  if (plan.packed != nullptr) bytes += plan.packed->MemoryBytes();
  return bytes;
}

int64_t DefaultPlanCacheByteBudget() {
  const char* env = std::getenv("HCSPMM_PLAN_CACHE_BYTES");
  if (env == nullptr || *env == '\0') return PlanCache::kDefaultByteBudget;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || parsed < 0) {
    return PlanCache::kDefaultByteBudget;
  }
  return static_cast<int64_t>(parsed);
}

PlanCache::PlanCache(int64_t byte_budget) : byte_budget_(byte_budget) {}

PlanCache* PlanCache::Global() {
  static PlanCache* cache = new PlanCache(DefaultPlanCacheByteBudget());
  return cache;
}

std::shared_ptr<const HybridPlan> PlanCache::Lookup(const PlanCacheKey& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->plan;
}

void PlanCache::Insert(const PlanCacheKey& key, std::shared_ptr<const HybridPlan> plan) {
  if (plan == nullptr) return;
  const int64_t bytes = PlanMemoryBytes(*plan);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_in_use_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (bytes > byte_budget_) return;  // would evict everything for one entry
  lru_.push_front(Entry{key, std::move(plan), bytes});
  index_[key] = lru_.begin();
  bytes_in_use_ += bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  EvictToBudgetLocked();
}

void PlanCache::EvictToBudgetLocked() {
  while (bytes_in_use_ > byte_budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_in_use_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  index_.clear();
  bytes_in_use_ = 0;
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

void PlanCache::SetByteBudget(int64_t byte_budget) {
  std::lock_guard<std::mutex> lk(mu_);
  byte_budget_ = byte_budget;
  EvictToBudgetLocked();
}

int64_t PlanCache::byte_budget() const {
  std::lock_guard<std::mutex> lk(mu_);
  return byte_budget_;
}

PlanCacheStats PlanCache::stats() const {
  // Counter loads happen under mu_ so the snapshot is internally consistent
  // (entries can never exceed insertions); the atomics keep any future
  // unlocked fast-path reads well-defined.
  std::lock_guard<std::mutex> lk(mu_);
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes_in_use = bytes_in_use_;
  s.entries = static_cast<int64_t>(lru_.size());
  return s;
}

}  // namespace hcspmm
