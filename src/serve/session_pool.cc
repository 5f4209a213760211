#include "serve/session_pool.h"

#include <algorithm>
#include <utility>

#include "exec/plan_cache.h"
#include "runtime/runtime.h"
#include "shard/sharded_session.h"

namespace hcspmm {

SessionPool::SessionPool(Runtime* runtime, SessionPoolOptions options)
    : runtime_(runtime), options_(std::move(options)) {
  if (options_.max_sessions < 1) options_.max_sessions = 1;
}

SessionPool::~SessionPool() {
  // Sessions read the pool-owned CSR while their queued plan build runs, and
  // an *evicted* session's build may still be pending with the build task as
  // its only owner. Wait for every surviving backend to finish preprocessing
  // before the graphs_ map (and the matrices) goes away.
  std::vector<std::shared_ptr<SpmmBackend>> backends;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::weak_ptr<SpmmBackend>& w : ever_opened_) {
      if (std::shared_ptr<SpmmBackend> b = w.lock()) backends.push_back(std::move(b));
    }
  }
  for (const std::shared_ptr<SpmmBackend>& b : backends) (void)b->WaitReady();
}

uint64_t SessionPool::RegisterGraph(CsrMatrix abar) {
  const uint64_t handle = FingerprintCsr(abar);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = graphs_.find(handle);
  if (it != graphs_.end()) return handle;  // content-addressed dedup
  GraphEntry entry;
  entry.abar = std::make_shared<const CsrMatrix>(std::move(abar));
  graphs_.emplace(handle, std::move(entry));
  return handle;
}

bool SessionPool::HasGraph(uint64_t handle) const {
  std::lock_guard<std::mutex> lk(mu_);
  return graphs_.count(handle) != 0;
}

int32_t SessionPool::GraphCols(uint64_t handle) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = graphs_.find(handle);
  return it == graphs_.end() ? -1 : it->second.abar->cols();
}

int64_t SessionPool::GraphNnz(uint64_t handle) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = graphs_.find(handle);
  return it == graphs_.end() ? -1 : it->second.abar->nnz();
}

std::shared_ptr<SpmmBackend> SessionPool::OpenLocked(uint64_t handle,
                                                     const GraphEntry& entry) {
  ever_opened_.erase(std::remove_if(ever_opened_.begin(), ever_opened_.end(),
                                    [](const std::weak_ptr<SpmmBackend>& w) {
                                      return w.expired();
                                    }),
                     ever_opened_.end());
  // The content fingerprint doubles as the graph's fault-domain scope: fault
  // schedules and retry jitter are then deterministic per graph no matter in
  // what order graphs are registered or (re)opened. Shard backends offset
  // their per-shard scopes from it.
  SessionOptions session_options = options_.session;
  session_options.set_fault_scope(handle);
  std::shared_ptr<SpmmBackend> opened;
  if (options_.num_shards > 1) {
    ShardingOptions sharding = options_.sharding;
    sharding.num_shards = options_.num_shards;
    opened = ShardedSession::Open(runtime_, *entry.abar, session_options, sharding);
  } else {
    // Shared-ownership open: the session pins the snapshot itself, so a
    // later ApplyDeltas/Unregister can swap/drop entry.abar safely.
    opened = runtime_->OpenSession(entry.abar, session_options);
  }
  ever_opened_.push_back(opened);
  ++opened_;
  return opened;
}

void SessionPool::EvictToBudgetLocked() {
  while (static_cast<int64_t>(lru_.size()) > options_.max_sessions) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    graphs_.at(victim).open.reset();  // in-flight work holds its own reference
    ++evicted_;
  }
}

Result<std::shared_ptr<SpmmBackend>> SessionPool::Acquire(uint64_t handle) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = graphs_.find(handle);
  if (it == graphs_.end()) {
    return Status::InvalidArgument("SessionPool: unknown graph handle " +
                                   std::to_string(handle));
  }
  GraphEntry& entry = it->second;
  if (entry.open != nullptr) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, entry.lru_pos);  // refresh
    return entry.open;
  }
  ++misses_;
  entry.open = OpenLocked(handle, entry);
  lru_.push_front(handle);
  entry.lru_pos = lru_.begin();
  EvictToBudgetLocked();
  return entry.open;
}

Result<uint64_t> SessionPool::ApplyDeltas(uint64_t handle, const DeltaBatch& batch,
                                          DeltaApplyStats* stats) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = graphs_.find(handle);
  if (it == graphs_.end()) {
    return Status::InvalidArgument("SessionPool: unknown graph handle " +
                                   std::to_string(handle));
  }
  GraphEntry& entry = it->second;

  // A resident backend patches itself (incremental plan maintenance; its
  // in-flight multiplies finish on the snapshot they pinned) and hands back
  // the patched matrix the pool stores for future (re)opens; otherwise the
  // pool merges the batch itself. Errors — inapplicable batch, non-hcspmm
  // kernel — leave both untouched.
  if (entry.open != nullptr) {
    HCSPMM_RETURN_NOT_OK(entry.open->ApplyDeltas(batch, stats, &entry.abar));
  } else {
    auto patched = ApplyDeltasToCsr(*entry.abar, batch, stats);
    HCSPMM_RETURN_NOT_OK(patched.status());
    entry.abar = std::make_shared<const CsrMatrix>(std::move(patched.ValueOrDie()));
  }

  // Re-fingerprint: fold the batch hash into the handle, exactly like the
  // session layer does, and re-key the entry.
  const uint64_t new_handle = FoldFingerprint(handle, batch.Hash());
  auto existing = graphs_.find(new_handle);
  if (existing != graphs_.end()) {
    // Patched content collides with an already-registered graph: merge into
    // it (content dedup). The patched entry's backend stays alive through
    // any in-flight references; the pool keeps the incumbent.
    if (entry.open != nullptr) {
      lru_.erase(entry.lru_pos);
      ++evicted_;
    }
    graphs_.erase(it);
    return new_handle;
  }
  if (entry.open != nullptr) *entry.lru_pos = new_handle;
  auto node = graphs_.extract(it);
  node.key() = new_handle;
  graphs_.insert(std::move(node));
  return new_handle;
}

Status SessionPool::Unregister(uint64_t handle) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = graphs_.find(handle);
  if (it == graphs_.end()) {
    return Status::InvalidArgument("SessionPool: unknown graph handle " +
                                   std::to_string(handle));
  }
  if (it->second.open != nullptr) {
    lru_.erase(it->second.lru_pos);
    ++evicted_;
  }
  // In-flight work (and evicted sessions still preprocessing) holds shared
  // ownership of the backend and, through it, of the CSR snapshot; erasing
  // the entry only drops the pool's references.
  graphs_.erase(it);
  return Status::OK();
}

bool SessionPool::Evict(uint64_t handle) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = graphs_.find(handle);
  if (it == graphs_.end() || it->second.open == nullptr) return false;
  lru_.erase(it->second.lru_pos);
  it->second.open.reset();
  ++evicted_;
  return true;
}

SessionPoolStats SessionPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SessionPoolStats s;
  s.graphs = static_cast<int64_t>(graphs_.size());
  s.resident = static_cast<int64_t>(lru_.size());
  s.hits = hits_;
  s.misses = misses_;
  s.opened = opened_;
  s.evicted = evicted_;
  return s;
}

}  // namespace hcspmm
