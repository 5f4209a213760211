#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace hcspmm {

// ---------------------------------------------------------------------------
// WfqScheduler

void WfqScheduler::SetWeight(const std::string& tenant, double weight) {
  tenants_[tenant].weight = std::max(weight, 1e-9);
}

void WfqScheduler::Enqueue(const std::string& tenant, const BatchKey& key,
                           uint64_t id, Clock::time_point enqueue_time, double cost) {
  TenantQueue& q = tenants_[tenant];
  QueuedItem item;
  item.key = key;
  item.id = id;
  // A tenant idle since V is charged from *now*, not from its stale finish
  // time: backlog alone earns no credit, and a flooder cannot bank work.
  q.last_vft = std::max(virtual_time_, q.last_vft) + cost / q.weight;
  item.vft = q.last_vft;
  item.seq = next_seq_++;
  item.enqueue_time = enqueue_time;
  q.items.push_back(std::move(item));
  ++total_depth_;
}

template <typename Visit>
int WfqScheduler::Collect(int max_n,
                          const std::function<int(const std::string&)>& can_take,
                          const GraphFilter& graph_ok, bool pop, BatchKey* key_out,
                          Clock::time_point* head_out, Visit&& visit) {
  // Walk heads in vft order. `offset` simulates popping when !pop so Plan and
  // Pop traverse identically; `excluded` marks tenants whose head was
  // incompatible with the batch key (head-of-line order within a tenant is
  // preserved — we never pop around a tenant's own head).
  std::unordered_map<std::string, int> offset;
  std::unordered_map<std::string, int> taken;
  std::unordered_map<std::string, bool> excluded;
  BatchKey key;
  bool have_key = false;
  int count = 0;
  while (count < max_n) {
    TenantQueue* best_q = nullptr;
    const std::string* best_tenant = nullptr;
    const QueuedItem* best_item = nullptr;
    for (auto& [name, q] : tenants_) {
      if (excluded[name]) continue;
      const int off = offset[name];
      if (off >= static_cast<int>(q.items.size())) continue;
      if (can_take(name) - taken[name] <= 0) continue;
      const QueuedItem& head = q.items[static_cast<size_t>(off)];
      // Graph gate (circuit breaker): a tenant whose head targets a held-back
      // graph sits out this batch; nothing behind its head is considered.
      if (graph_ok != nullptr && !graph_ok(head.key.graph)) continue;
      if (best_item == nullptr || head.vft < best_item->vft ||
          (head.vft == best_item->vft && head.seq < best_item->seq)) {
        best_q = &q;
        best_tenant = &name;
        best_item = &head;
      }
    }
    if (best_item == nullptr) break;
    if (!have_key) {
      key = best_item->key;
      have_key = true;
      if (head_out != nullptr) *head_out = best_item->enqueue_time;
    } else if (!(best_item->key == key)) {
      excluded[*best_tenant] = true;
      continue;
    }
    visit(*best_tenant, *best_item);
    ++taken[*best_tenant];
    ++count;
    if (pop) {
      virtual_time_ = std::max(virtual_time_, best_item->vft);
      best_q->items.pop_front();
      --total_depth_;
    } else {
      ++offset[*best_tenant];
    }
  }
  if (have_key && key_out != nullptr) *key_out = key;
  return count;
}

std::optional<WfqScheduler::Plan> WfqScheduler::PlanBatch(
    int max_n, const std::function<int(const std::string&)>& can_take,
    const GraphFilter& graph_ok) const {
  Plan plan;
  // Collect only reads when pop == false; const_cast keeps one traversal.
  const int count = const_cast<WfqScheduler*>(this)->Collect(
      max_n, can_take, graph_ok, /*pop=*/false, &plan.key, &plan.head_enqueue,
      [](const std::string&, const QueuedItem&) {});
  if (count == 0) return std::nullopt;
  plan.count = count;
  return plan;
}

std::vector<WfqScheduler::Popped> WfqScheduler::PopBatch(
    int max_n, const std::function<int(const std::string&)>& can_take,
    const GraphFilter& graph_ok) {
  std::vector<Popped> out;
  Collect(max_n, can_take, graph_ok, /*pop=*/true, nullptr, nullptr,
          [&out](const std::string& tenant, const QueuedItem& item) {
            out.push_back(Popped{tenant, item.id, item.enqueue_time});
          });
  return out;
}

std::vector<WfqScheduler::Popped> WfqScheduler::RemoveIf(
    const std::function<bool(const std::string& tenant, uint64_t graph, uint64_t id)>&
        pred) {
  std::vector<Popped> removed;
  for (auto& [name, q] : tenants_) {
    auto it = q.items.begin();
    while (it != q.items.end()) {
      if (pred(name, it->key.graph, it->id)) {
        removed.push_back(Popped{name, it->id, it->enqueue_time});
        it = q.items.erase(it);
        --total_depth_;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

int64_t WfqScheduler::QueueDepth(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : static_cast<int64_t>(it->second.items.size());
}

// ---------------------------------------------------------------------------
// Server

Server::Server(Runtime* runtime, ServerOptions options)
    : options_(std::move(options)), pool_(runtime, options_.pool) {
  if (options_.max_batch < 1) options_.max_batch = 1;
  if (options_.batch_window_us < 0) options_.batch_window_us = 0;
  batch_size_hist_.assign(static_cast<size_t>(options_.max_batch) + 1, 0);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

Server::~Server() { Shutdown(); }

uint64_t Server::RegisterGraph(CsrMatrix abar) {
  return pool_.RegisterGraph(std::move(abar));
}

int64_t Server::GraphLoadLocked(uint64_t handle) const {
  int64_t load = 0;
  for (const auto& [id, pending] : pending_) {
    if (pending.graph == handle) ++load;
  }
  auto it = graph_inflight_.find(handle);
  if (it != graph_inflight_.end()) load += it->second;
  return load;
}

Result<uint64_t> Server::RegisterGraph(uint64_t base_graph, const DeltaBatch& deltas,
                                       DeltaApplyStats* stats) {
  // Hold mu_ across the check *and* the pool patch: Submit takes mu_ too, so
  // no request for the old handle can be admitted between "nothing queued"
  // and the re-key. The pool's own lock nests inside mu_ here; nothing ever
  // takes them in the other order simultaneously (Submit probes the pool
  // before locking mu_, dispatch acquires with mu_ released).
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) {
    return Status::Internal("Server: RegisterGraph(deltas) after Shutdown");
  }
  const int64_t load = GraphLoadLocked(base_graph);
  if (load > 0) {
    return Status::Overloaded(
        "Server: graph " + std::to_string(base_graph) + " has " +
        std::to_string(load) + " queued/in-flight requests; drain and retry");
  }
  return pool_.ApplyDeltas(base_graph, deltas, stats);
}

Status Server::UnregisterGraph(uint64_t handle) {
  std::lock_guard<std::mutex> lk(mu_);
  const int64_t load = GraphLoadLocked(handle);
  if (load > 0) {
    return Status::Overloaded(
        "Server: graph " + std::to_string(handle) + " has " +
        std::to_string(load) + " queued/in-flight requests; drain and retry");
  }
  Status st = pool_.Unregister(handle);
  if (st.ok()) graph_state_.erase(handle);
  return st;
}

void Server::SetRetryPolicy(uint64_t graph, const RetryPolicy& policy) {
  std::lock_guard<std::mutex> lk(mu_);
  GraphState& gs = graph_state_[graph];
  gs.retry = policy;
  gs.has_retry_override = true;
}

RetryPolicy Server::RetryPolicyLocked(uint64_t graph) const {
  auto it = graph_state_.find(graph);
  if (it != graph_state_.end() && it->second.has_retry_override) {
    return it->second.retry;
  }
  return options_.retry;
}

void Server::ConfigureTenant(const std::string& tenant, const TenantOptions& opts) {
  std::lock_guard<std::mutex> lk(mu_);
  TenantState& state = TenantLocked(tenant);
  state.options = opts;
  sched_.SetWeight(tenant, opts.weight);
}

Server::TenantState& Server::TenantLocked(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant, TenantState{options_.default_tenant}).first;
    sched_.SetWeight(tenant, it->second.options.weight);
  }
  return it->second;
}

Future<DenseMatrix> Server::Submit(InferRequest request) {
  const auto now = WfqScheduler::Clock::now();
  // Validate the operand against the pool outside mu_ (the pool has its own
  // lock) so a bad request never poisons co-batched peers at dispatch time.
  const int32_t graph_cols = pool_.GraphCols(request.graph);
  const int64_t graph_nnz =
      options_.size_aware_cost ? pool_.GraphNnz(request.graph) : -1;
  std::unique_lock<std::mutex> lk(mu_);
  if (stopping_) {
    return MakeErrorFuture<DenseMatrix>(
        Status::Internal("Server: submit after Shutdown"));
  }
  if (graph_cols < 0) {
    return MakeErrorFuture<DenseMatrix>(Status::InvalidArgument(
        "Server: unknown graph handle " + std::to_string(request.graph)));
  }
  if (request.x.rows() != graph_cols) {
    return MakeErrorFuture<DenseMatrix>(Status::InvalidArgument(
        "Server: feature matrix has " + std::to_string(request.x.rows()) +
        " rows; graph expects " + std::to_string(graph_cols)));
  }
  TenantState& tenant = TenantLocked(request.tenant);
  if (sched_.QueueDepth(request.tenant) >=
      static_cast<int64_t>(tenant.options.max_queue)) {
    ++tenant.rejected;
    return MakeErrorFuture<DenseMatrix>(Status::Overloaded(
        "Server: tenant '" + request.tenant + "' queue is full (" +
        std::to_string(tenant.options.max_queue) + " requests); retry later"));
  }
  ++tenant.submitted;
  const uint64_t id = next_id_++;
  Pending pending;
  pending.x = std::move(request.x);
  pending.tenant = request.tenant;
  pending.graph = request.graph;
  pending.enqueue_time = now;
  pending.deadline = request.deadline;
  Future<DenseMatrix> future = pending.promise.future();
  const WfqScheduler::BatchKey key{request.graph, pending.x.cols()};
  // Size-aware fair share: one request against a big graph with a wide
  // feature matrix displaces proportionally more of its tenant's budget
  // than a small one. 64Ki nnz*dim == one cost unit; tiny work still
  // charges at least a per-request unit so queue slots aren't free.
  double cost = 1.0;
  if (graph_nnz > 0) {
    cost = std::max(1.0, static_cast<double>(graph_nnz) *
                             static_cast<double>(pending.x.cols()) / 65536.0);
  }
  tenant.cost_charged += cost;
  pending_.emplace(id, std::move(pending));
  sched_.Enqueue(request.tenant, key, id, now, cost);
  lk.unlock();
  cv_.notify_all();
  return future;
}

std::vector<Server::Pending> Server::ShedForOpenBreakersLocked() {
  std::vector<Pending> out;
  if (options_.breaker_failures <= 0) return out;
  for (auto& [graph, gs] : graph_state_) {
    if (gs.breaker != BreakerState::kOpen) continue;
    struct Cand {
      uint64_t id = 0;
      double weight = 1.0;
      WfqScheduler::Clock::time_point enq;
    };
    std::vector<Cand> cands;
    for (const auto& [id, p] : pending_) {
      if (p.graph == graph) {
        cands.push_back({id, tenants_.at(p.tenant).options.weight, p.enqueue_time});
      }
    }
    if (static_cast<int>(cands.size()) <= options_.max_batch) continue;
    // Keep the highest-weight, oldest requests for the eventual probe batch;
    // shed everything else, lowest weight first (newest first within one).
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.weight != b.weight) return a.weight > b.weight;
      if (a.enq != b.enq) return a.enq < b.enq;
      return a.id < b.id;
    });
    std::unordered_set<uint64_t> shed_ids;
    for (size_t i = static_cast<size_t>(options_.max_batch); i < cands.size(); ++i) {
      shed_ids.insert(cands[i].id);
    }
    sched_.RemoveIf([&shed_ids](const std::string&, uint64_t, uint64_t id) {
      return shed_ids.count(id) != 0;
    });
    for (uint64_t id : shed_ids) {
      auto it = pending_.find(id);
      HCSPMM_CHECK(it != pending_.end()) << "shed id missing from pending_";
      ++tenants_.at(it->second.tenant).shed;
      out.push_back(std::move(it->second));
      pending_.erase(it);
    }
  }
  return out;
}

std::optional<WfqScheduler::Clock::time_point> Server::NextBreakerWakeLocked()
    const {
  std::optional<WfqScheduler::Clock::time_point> wake;
  for (const auto& [graph, gs] : graph_state_) {
    if (gs.breaker != BreakerState::kOpen) continue;
    if (!wake.has_value() || gs.open_until < *wake) wake = gs.open_until;
  }
  return wake;
}

void Server::DispatcherLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  const auto can_take = [this](const std::string& tenant) -> int {
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) return 0;
    return it->second.options.max_inflight - static_cast<int>(it->second.inflight);
  };
  // Breaker gate: open graphs don't dispatch, half-open graphs admit one
  // probe batch at a time. Shutdown drains unconditionally — accepted
  // requests must resolve even when their graph is sick (the attempt then
  // fails fast and typed if the fault persists).
  const WfqScheduler::GraphFilter graph_ok = [this](uint64_t graph) {
    if (stopping_) return true;
    auto it = graph_state_.find(graph);
    if (it == graph_state_.end()) return true;
    const GraphState& gs = it->second;
    if (gs.breaker == BreakerState::kOpen) return false;
    return !(gs.breaker == BreakerState::kHalfOpen && gs.probe_inflight);
  };
  for (;;) {
    const auto now = WfqScheduler::Clock::now();
    // Promote expired open breakers: the next batch through is the probe.
    for (auto& [graph, gs] : graph_state_) {
      if (gs.breaker == BreakerState::kOpen && now >= gs.open_until) {
        gs.breaker = BreakerState::kHalfOpen;
        gs.probe_inflight = false;
      }
    }
    // Overload degradation: while a breaker is open, shed its queued work
    // beyond one probe batch instead of letting it pile up. Skipped while
    // stopping — shutdown drains everything through the gate above.
    if (!stopping_) {
      std::vector<Pending> shed = ShedForOpenBreakersLocked();
      if (!shed.empty()) {
        lk.unlock();
        for (Pending& p : shed) {
          p.promise.Set(Status::Unavailable(
              "Server: shed while circuit breaker open for graph " +
              std::to_string(p.graph)));
        }
        lk.lock();
        continue;
      }
    }
    std::optional<WfqScheduler::Plan> plan =
        sched_.PlanBatch(options_.max_batch, can_take, graph_ok);
    if (!plan.has_value()) {
      if (stopping_ && sched_.TotalDepth() == 0 && inflight_total_ == 0) return;
      // Queued work may sit blocked behind an open breaker: bound the wait
      // by the earliest re-probe time so promotion isn't missed.
      std::optional<WfqScheduler::Clock::time_point> wake = NextBreakerWakeLocked();
      if (wake.has_value()) {
        cv_.wait_until(lk, *wake);
      } else {
        cv_.wait(lk);
      }
      continue;
    }
    const bool full = plan->count >= options_.max_batch;
    const auto window_end =
        plan->head_enqueue + std::chrono::microseconds(options_.batch_window_us);
    if (!full && !stopping_ && WfqScheduler::Clock::now() < window_end) {
      cv_.wait_until(lk, window_end);  // woken early by submits/completions
      continue;
    }
    std::vector<WfqScheduler::Popped> popped =
        sched_.PopBatch(options_.max_batch, can_take, graph_ok);
    if (popped.empty()) continue;  // racing completion changed eligibility
    BatchJob job;
    job.items.reserve(popped.size());
    // Deadline sweep at pop: a request whose deadline already passed resolves
    // kDeadlineExceeded without dispatching — its result would be discarded
    // anyway, so the backend never sees the work.
    std::vector<Pending> expired;
    const auto pop_now = WfqScheduler::Clock::now();
    for (const WfqScheduler::Popped& p : popped) {
      auto it = pending_.find(p.id);
      HCSPMM_CHECK(it != pending_.end()) << "scheduler popped unknown id";
      if (it->second.deadline <= pop_now) {
        ++tenants_.at(p.tenant).deadline_missed;
        expired.push_back(std::move(it->second));
      } else {
        job.items.push_back(std::move(it->second));
        ++tenants_.at(p.tenant).inflight;
      }
      pending_.erase(it);
    }
    if (!job.items.empty()) {
      job.graph = job.items.front().graph;
      job.retry = RetryPolicyLocked(job.graph);
      auto gs = graph_state_.find(job.graph);
      if (gs != graph_state_.end() &&
          gs->second.breaker == BreakerState::kHalfOpen) {
        gs->second.probe_inflight = true;
        job.probe = true;
      }
      graph_inflight_[job.graph] += static_cast<int64_t>(job.items.size());
      // Rotate streams so consecutive batches for one session overlap instead
      // of serializing on a single FIFO lane.
      job.stream = static_cast<int>(batches_);
      ++batches_;
      const size_t bucket =
          std::min(job.items.size(), batch_size_hist_.size() - 1);
      ++batch_size_hist_[bucket];
      inflight_total_ += static_cast<int64_t>(job.items.size());
    }
    lk.unlock();
    for (Pending& p : expired) {
      p.promise.Set(Status::DeadlineExceeded(
          "Server: deadline passed while queued (graph " +
          std::to_string(p.graph) + ")"));
    }
    if (!job.items.empty()) DispatchBatch(std::move(job));
    lk.lock();
  }
}

void Server::DispatchBatch(BatchJob job) {
  Result<std::shared_ptr<SpmmBackend>> backend = pool_.Acquire(job.graph);
  if (!backend.ok()) {
    CompleteBatch(std::move(job), backend.status(), {});
    return;
  }
  ExecControls ctl;
  ctl.retry = job.retry;
  ctl.retry_counter = &retries_;
  // Arm the batch token with the *latest* item deadline: once it expires no
  // item in the batch can use the result any more. Items co-batched with
  // later-deadline peers may still complete after their own deadline — see
  // the InferRequest contract.
  auto latest = WfqScheduler::Clock::time_point::min();
  for (const Pending& item : job.items) latest = std::max(latest, item.deadline);
  if (latest != WfqScheduler::Clock::time_point::max()) {
    job.cancel = std::make_shared<CancelToken>();
    job.cancel->set_deadline(latest);
    ctl.cancel = job.cancel;
  }
  std::vector<DenseMatrix> xs;
  xs.reserve(job.items.size());
  for (Pending& item : job.items) xs.push_back(std::move(item.x));
  Future<std::vector<DenseMatrix>> batch = backend.ValueOrDie()->MultiplyBatchAsync(
      std::move(xs), /*profile=*/nullptr, job.stream, std::move(ctl));
  // The callback owns the job (promises included); it runs on the executor
  // thread that fulfills the batch, scattering results back per request.
  auto shared_job = std::make_shared<BatchJob>(std::move(job));
  batch.OnReady([this, shared_job, batch]() mutable {
    if (batch.status().ok()) {
      CompleteBatch(std::move(*shared_job), Status::OK(), batch.Take());
    } else {
      CompleteBatch(std::move(*shared_job), batch.status(), {});
    }
  });
}

void Server::CompleteBatch(BatchJob job, const Status& status,
                           std::vector<DenseMatrix> zs) {
  Status st = status;
  if (st.ok() && zs.size() != job.items.size()) {
    st = Status::Internal("Server: batch returned " + std::to_string(zs.size()) +
                          " results for " + std::to_string(job.items.size()) +
                          " requests");
  }
  const auto now = WfqScheduler::Clock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const Pending& item : job.items) {
      TenantState& tenant = tenants_.at(item.tenant);
      --tenant.inflight;
      if (st.ok()) {
        ++tenant.completed;
        latencies_us_.push_back(
            std::chrono::duration<double, std::micro>(now - item.enqueue_time)
                .count());
      } else if (st.IsDeadlineExceeded()) {
        ++tenant.deadline_missed;
      } else {
        ++tenant.failed;
      }
    }
    // Breaker bookkeeping. Only final kUnavailable outcomes count as graph
    // failures — a client's deadline expiring says nothing about the graph's
    // health, and retries already masked what they could.
    if (options_.breaker_failures > 0) {
      GraphState& gs = graph_state_[job.graph];
      if (st.ok()) {
        gs.consecutive_failures = 0;
        gs.breaker = BreakerState::kClosed;
        gs.probe_inflight = false;
      } else if (st.IsUnavailable()) {
        ++gs.consecutive_failures;
        if (job.probe || gs.consecutive_failures >= options_.breaker_failures) {
          const auto open_until =
              now + std::chrono::microseconds(options_.breaker_open_us);
          if (gs.breaker != BreakerState::kOpen) {
            gs.breaker = BreakerState::kOpen;
            gs.open_until = open_until;
            ++breaker_trips_;
          } else {
            gs.open_until = std::max(gs.open_until, open_until);
          }
          gs.probe_inflight = false;
        }
      } else if (job.probe) {
        // Probe ended without a verdict (e.g. deadline): allow another.
        gs.probe_inflight = false;
      }
    }
    inflight_total_ -= static_cast<int64_t>(job.items.size());
    auto gi = graph_inflight_.find(job.graph);
    if (gi != graph_inflight_.end() &&
        (gi->second -= static_cast<int64_t>(job.items.size())) <= 0) {
      graph_inflight_.erase(gi);
    }
    // Notify while still holding mu_: once inflight_total_ hits zero a
    // draining Shutdown may destroy the server, so `this` (cv_ included)
    // must not be touched after the lock is released.
    cv_.notify_all();
  }
  // Fulfill outside the lock; promise state is independently owned, so the
  // Sets are safe even if the server is already gone.
  for (size_t i = 0; i < job.items.size(); ++i) {
    if (st.ok()) {
      job.items[i].promise.Set(std::move(zs[i]));
    } else {
      job.items[i].promise.Set(st);
    }
  }
}

void Server::Shutdown() {
  // Only the caller that flips stopping_ joins, so concurrent (or repeated)
  // Shutdowns never double-join; later callers return once the flag is set
  // and the dispatcher has been joined by the first.
  bool do_join = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stopping_) {
      stopping_ = true;
      do_join = true;
    }
    cv_.notify_all();
  }
  if (do_join) dispatcher_.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServerStats s;
  for (const auto& [name, state] : tenants_) {
    TenantStats t;
    t.weight = state.options.weight;
    t.submitted = state.submitted;
    t.completed = state.completed;
    t.failed = state.failed;
    t.rejected = state.rejected;
    t.queued = sched_.QueueDepth(name);
    t.inflight = state.inflight;
    t.deadline_missed = state.deadline_missed;
    t.shed = state.shed;
    t.cost_charged = state.cost_charged;
    s.tenants.emplace(name, t);
    s.submitted += t.submitted;
    s.completed += t.completed;
    s.failed += t.failed;
    s.rejected += t.rejected;
    s.deadline_missed += t.deadline_missed;
    s.shed += t.shed;
    s.queue_depth += t.queued;
  }
  s.retries = retries_.load(std::memory_order_relaxed);
  s.breaker_trips = breaker_trips_;
  s.batches = batches_;
  s.batch_size_hist = batch_size_hist_;
  if (s.batches > 0) {
    // Dispatched request count from the histogram — deadline-expired pops
    // and shed requests never reach a batch, so completed + failed no longer
    // equals what was dispatched.
    int64_t dispatched = 0;
    for (size_t sz = 1; sz < batch_size_hist_.size(); ++sz) {
      dispatched += static_cast<int64_t>(sz) * batch_size_hist_[sz];
    }
    s.avg_batch_size =
        static_cast<double>(dispatched) / static_cast<double>(s.batches);
  }
  if (!latencies_us_.empty()) {
    std::vector<double> lat = latencies_us_;
    const auto pct = [&lat](double p) {
      const size_t idx = static_cast<size_t>(
          p * static_cast<double>(lat.size() - 1) + 0.5);
      std::nth_element(lat.begin(), lat.begin() + static_cast<int64_t>(idx),
                       lat.end());
      return lat[idx];
    };
    s.p50_latency_us = pct(0.50);
    s.p99_latency_us = pct(0.99);
    s.max_latency_us = *std::max_element(lat.begin(), lat.end());
  }
  return s;
}

}  // namespace hcspmm
