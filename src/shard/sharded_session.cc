#include "shard/sharded_session.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "runtime/runtime.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hcspmm {

namespace {

// Copy one shard's computed row slice into its disjoint block of the full
// output. Both matrices are row-major, so the slice is one contiguous run.
Status ScatterShard(const DenseMatrix& local, const ShardRange& range,
                    DenseMatrix* out) {
  if (local.rows() != range.NumRows() || local.cols() != out->cols()) {
    return Status::Internal("sharded multiply: shard output shape mismatch");
  }
  if (local.rows() == 0) return Status::OK();
  std::copy(local.data().begin(), local.data().end(),
            out->MutableRowData(range.row_begin));
  return Status::OK();
}

// Concatenate row-disjoint shard CSRs (row_ptr rebased per shard) back into
// the full matrix — the repartition source after streaming deltas drifted
// the shard balance.
CsrMatrix MergeShardCsrs(const std::vector<const CsrMatrix*>& shards, int32_t rows,
                         int32_t cols) {
  int64_t nnz = 0;
  for (const CsrMatrix* s : shards) nnz += s->nnz();
  std::vector<int64_t> row_ptr;
  row_ptr.reserve(static_cast<size_t>(rows) + 1);
  row_ptr.push_back(0);
  std::vector<int32_t> col_ind;
  col_ind.reserve(static_cast<size_t>(nnz));
  std::vector<float> val;
  val.reserve(static_cast<size_t>(nnz));
  int64_t offset = 0;
  for (const CsrMatrix* s : shards) {
    for (int32_t r = 0; r < s->rows(); ++r) {
      row_ptr.push_back(offset + s->RowEnd(r));
    }
    col_ind.insert(col_ind.end(), s->col_ind().begin(), s->col_ind().end());
    val.insert(val.end(), s->val().begin(), s->val().end());
    offset += s->nnz();
  }
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_ind), std::move(val));
}

}  // namespace

std::shared_ptr<const ShardedSession::ShardState> ShardedSession::OpenState(
    Runtime* runtime, std::shared_ptr<const GraphPartition> partition,
    const SessionOptions& options, uint64_t generation) {
  auto state = std::make_shared<ShardState>();
  state->partition = std::move(partition);
  state->generation = generation;
  // The shard CSRs live in state->partition, whose address is stable for
  // the sessions' lifetime; every OpenSession returns immediately, so the K
  // plan builds overlap each other on the runtime pool.
  state->sessions.reserve(state->partition->shards.size());
  for (size_t i = 0; i < state->partition->shards.size(); ++i) {
    // Each shard is its own fault domain: distinct scopes mean an injector
    // can fail exactly one shard of a fan-out, and retry jitter never runs
    // in lockstep across shards.
    SessionOptions shard_options = options;
    shard_options.set_fault_scope(options.fault_scope() + i);
    state->sessions.push_back(
        runtime->OpenSession(&state->partition->shards[i], shard_options));
  }
  std::shared_ptr<const ShardState> out = state;
  for (const auto& session : out->sessions) {
    // Pin the state (and thus the partition CSR the init task is reading)
    // until that shard's preprocessing resolves: the caller may drop every
    // handle right after Open/ApplyDeltas without waiting.
    session->ready_future().OnReady([out] {});
  }
  return out;
}

const PlanVersion& ShardedSession::ShardVersion(const ShardState& state, size_t i) {
  // States minted before the sessions finished init carry no pinned
  // versions; the (init-gated) shard tasks resolve them to version 0, which
  // is immutable — so a multiply pinned to such a state computes the
  // open-time content even if deltas landed meanwhile.
  if (!state.versions.empty()) return *state.versions[i];
  return *state.sessions[i]->InitialVersion();
}

std::shared_ptr<ShardedSession> ShardedSession::Open(Runtime* runtime,
                                                     const CsrMatrix& abar,
                                                     const SessionOptions& options,
                                                     const ShardingOptions& sharding) {
  std::shared_ptr<ShardedSession> sharded(
      new ShardedSession(options, sharding, runtime));
  sharded->rows_ = abar.rows();
  sharded->cols_ = abar.cols();
  auto partition = std::make_shared<const GraphPartition>(PartitionCsr(abar, sharding));
  sharded->state_ = OpenState(runtime, std::move(partition), options, /*generation=*/0);
  return sharded;
}

Status ShardedSession::WaitReady() const {
  auto state = State();
  Status first = Status::OK();
  for (const auto& session : state->sessions) {
    Status st = session->WaitReady();
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

double ShardedSession::PreprocessNs() const {
  auto state = State();
  double total = 0.0;
  for (const auto& session : state->sessions) total += session->PreprocessNs();
  return total;
}

int64_t ShardedSession::AuxMemoryBytes() const {
  auto state = State();
  int64_t total = 0;
  for (const auto& session : state->sessions) total += session->AuxMemoryBytes();
  return total;
}

Status ShardedSession::ApplyDeltas(const DeltaBatch& batch, DeltaApplyStats* stats,
                                   std::shared_ptr<const CsrMatrix>* patched_csr) {
  HCSPMM_RETURN_NOT_OK(WaitReady());
  if (options_.kernel_name() != "hcspmm") {
    return Status::InvalidArgument(
        "ApplyDeltas requires the 'hcspmm' kernel (incremental maintenance "
        "patches its HybridPlan; reopen baseline sessions instead)");
  }
  std::lock_guard<std::mutex> apply_lk(apply_mu_);
  WallTimer timer;
  auto state = State();
  HCSPMM_RETURN_NOT_OK(batch.CheckBounds(rows_, cols_));

  const auto& ranges = state->partition->ranges;
  const size_t k = state->sessions.size();
  std::vector<DeltaBatch> subs;
  subs.reserve(k);
  std::vector<std::shared_ptr<const PlanVersion>> bases(k);
  for (size_t i = 0; i < k; ++i) {
    subs.push_back(batch.Slice(ranges[i].row_begin, ranges[i].row_end));
    bases[i] = state->sessions[i]->CurrentVersion();
  }

  // Pre-validate the one data-dependent failure (deleting an absent edge)
  // against every owning shard *before* mutating any of them, so a bad
  // batch leaves the whole sharded operator untouched instead of torn at
  // the failing shard.
  for (size_t i = 0; i < k; ++i) {
    const CsrMatrix& csr = *bases[i]->csr;
    for (const EdgeDelta& e : subs[i].deletes()) {
      const auto begin = csr.col_ind().begin() + csr.RowBegin(e.row);
      const auto end = csr.col_ind().begin() + csr.RowEnd(e.row);
      if (!std::binary_search(begin, end, e.col)) {
        return Status::InvalidArgument(
            "ShardedSession::ApplyDeltas: delete of absent edge (" +
            std::to_string(e.row + ranges[i].row_begin) + ", " +
            std::to_string(e.col) + ")");
      }
    }
  }

  DeltaApplyStats agg;
  for (size_t i = 0; i < k; ++i) {
    if (subs[i].empty()) {
      // Untouched shard: still counts its windows in the dirty fraction.
      if (bases[i]->plan != nullptr) {
        agg.total_windows +=
            static_cast<int64_t>(bases[i]->plan->windows.windows.size());
      }
      continue;
    }
    DeltaApplyStats s;
    HCSPMM_RETURN_NOT_OK(state->sessions[i]->ApplyDeltas(subs[i], &s));
    agg.inserted += s.inserted;
    agg.updated += s.updated;
    agg.deleted += s.deleted;
    agg.total_windows += s.total_windows;
    agg.dirty_windows += s.dirty_windows;
    agg.repacked = agg.repacked || s.repacked;
  }

  // Rebalance check: streaming inserts/deletes drift the nnz balance the
  // partitioner established; past the threshold the sync barrier wastes
  // enough time that a full re-split pays for itself.
  int64_t max_nnz = 0, total_nnz = 0;
  std::vector<std::shared_ptr<const PlanVersion>> currents(k);
  for (size_t i = 0; i < k; ++i) {
    currents[i] = state->sessions[i]->CurrentVersion();
    const int64_t nnz = currents[i]->csr->nnz();
    max_nnz = std::max(max_nnz, nnz);
    total_nnz += nnz;
  }
  const double mean_nnz = static_cast<double>(total_nnz) / static_cast<double>(k);
  const bool rebalance = k > 1 && mean_nnz > 0.0 &&
                         static_cast<double>(max_nnz) >
                             sharding_.rebalance_threshold * mean_nnz;

  std::shared_ptr<const CsrMatrix> full;
  if (rebalance || patched_csr != nullptr) {
    std::vector<const CsrMatrix*> shard_csrs(k);
    for (size_t i = 0; i < k; ++i) shard_csrs[i] = currents[i]->csr;
    full = std::make_shared<const CsrMatrix>(MergeShardCsrs(shard_csrs, rows_, cols_));
  }
  std::shared_ptr<const ShardState> next;
  if (rebalance) {
    auto partition =
        std::make_shared<const GraphPartition>(PartitionCsr(*full, sharding_));
    next = OpenState(runtime_, std::move(partition), options_,
                     state->generation + 1);
    agg.repartitioned = true;
  } else {
    auto mutable_next = std::make_shared<ShardState>();
    mutable_next->partition = state->partition;
    mutable_next->sessions = state->sessions;
    mutable_next->versions = std::move(currents);
    mutable_next->generation = state->generation + 1;
    next = std::move(mutable_next);
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    state_ = std::move(next);
  }
  if (patched_csr != nullptr) *patched_csr = std::move(full);
  if (stats != nullptr) {
    agg.version = state->generation + 1;
    agg.apply_ms = timer.ElapsedMs();
    agg.repartitioned = rebalance;
    *stats = agg;
  }
  return Status::OK();
}

std::vector<Future<bool>> ShardedSession::FanOut(
    const std::shared_ptr<const ShardState>& state, const DenseMatrix* x,
    DenseMatrix* out, KernelProfile* profs, const ExecControls& ctl, int stream,
    std::shared_ptr<const void> owner) {
  std::vector<Future<bool>> futures;
  futures.reserve(state->sessions.size());
  for (size_t i = 0; i < state->sessions.size(); ++i) {
    Session* session = state->sessions[i].get();
    const ShardRange range = state->partition->ranges[i];
    KernelProfile* prof = &profs[i];
    futures.push_back(session->SubmitAsync(
        [state, owner, session, range, i, x, out, prof, ctl] {
          // Retry (inside MultiplyOn) recomputes only this shard's slice;
          // the scatter runs once, after the slice finally succeeded.
          DenseMatrix local;
          HCSPMM_RETURN_NOT_OK(
              session->MultiplyOn(ShardVersion(*state, i), *x, &local, prof, ctl));
          return ScatterShard(local, range, out);
        },
        stream));
  }
  return futures;
}

Status ShardedSession::Multiply(const DenseMatrix& x, DenseMatrix* z,
                                KernelProfile* profile,
                                const ExecControls& ctl) const {
  if (z == nullptr) return Status::InvalidArgument("sharded Multiply: z is null");
  auto state = State();
  // The shard ranges tile the rows exactly once, so the output needs no zero
  // fill: a rows x dim fp32 z that is not the input receives the rows in
  // place; otherwise an uninitialized buffer replaces z on success.
  DenseMatrix fresh;
  DenseMatrix* out = z;
  if (z == &x || z->rows() != rows() || z->cols() != x.cols() ||
      z->precision() != FeaturePrecision::kFp32) {
    fresh = DenseMatrix::Uninitialized(rows(), x.cols());
    out = &fresh;
  }

  // This thread just joins the shard tasks.
  std::vector<KernelProfile> profs(state->sessions.size());
  std::vector<Future<bool>> futures =
      FanOut(state, &x, out, profs.data(), ctl, /*stream=*/0, /*owner=*/nullptr);
  Status first = Status::OK();
  bool scattered = false;  // a shard task succeeds only after its scatter
  for (Future<bool>& fut : futures) {
    const Status& st = fut.status();  // blocks; also covers shard init errors
    if (st.ok()) {
      scattered = true;
    } else if (first.ok()) {
      first = st;
    }
  }
  if (!first.ok()) {
    if (out == z && scattered) *z = DenseMatrix();  // never a partial product
    return first;
  }
  if (profile != nullptr) {
    for (const KernelProfile& p : profs) profile->Accumulate(p);  // shard order
  }
  if (out != z) *z = std::move(fresh);
  return Status::OK();
}

Future<DenseMatrix> ShardedSession::MultiplyAsync(DenseMatrix x, KernelProfile* profile,
                                                  int stream, ExecControls ctl) {
  auto state = State();
  // Join state shared by every shard's stream task. The last shard to finish
  // (counted via the SubmitAsync futures, which resolve even when a shard's
  // init failed and its task never ran) folds the profiles in shard order
  // and resolves the promise.
  struct JoinState {
    DenseMatrix x;
    DenseMatrix out;
    std::vector<KernelProfile> profs;
    std::atomic<int> remaining;
    std::mutex mu;
    Status first_error;
    KernelProfile* profile;
    Promise<DenseMatrix> promise;
  };
  auto join = std::make_shared<JoinState>();
  join->x = std::move(x);
  join->out = DenseMatrix::Uninitialized(rows(), join->x.cols());
  join->profs.resize(state->sessions.size());
  join->remaining.store(static_cast<int>(state->sessions.size()));
  join->profile = profile;

  for (const Future<bool>& fut :
       FanOut(state, &join->x, &join->out, join->profs.data(), ctl, stream, join)) {
    fut.OnReady([join, fut] {
      if (!fut.status().ok()) {
        std::lock_guard<std::mutex> lk(join->mu);
        if (join->first_error.ok()) join->first_error = fut.status();
      }
      // acq_rel: the last decrement observes every other shard's writes to
      // `out` before moving it into the promise.
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      if (!join->first_error.ok()) {
        join->promise.Set(join->first_error);
        return;
      }
      if (join->profile != nullptr) {
        for (const KernelProfile& p : join->profs) join->profile->Accumulate(p);
      }
      join->promise.Set(std::move(join->out));
    });
  }
  return join->promise.future();
}

Future<std::vector<DenseMatrix>> ShardedSession::MultiplyBatchAsync(
    std::vector<DenseMatrix> xs, KernelProfile* profile, int stream, ExecControls ctl) {
  if (xs.empty()) return MakeReadyFuture(std::vector<DenseMatrix>());
  // Every item resolves into its slot; the last one to finish folds the
  // profiles in batch order and fulfills the promise (first error wins, but
  // all items are always awaited so nothing dangles).
  struct BatchJoin {
    std::vector<DenseMatrix> zs;
    std::vector<KernelProfile> profs;
    std::mutex mu;
    Status first_error;
    std::atomic<int64_t> remaining;
    KernelProfile* profile;
    Promise<std::vector<DenseMatrix>> promise;
  };
  auto join = std::make_shared<BatchJoin>();
  join->zs.resize(xs.size());
  if (profile != nullptr) join->profs.resize(xs.size());
  join->remaining.store(static_cast<int64_t>(xs.size()));
  join->profile = profile;
  for (size_t i = 0; i < xs.size(); ++i) {
    // One stream per item so items overlap across each shard's FIFO lanes
    // (Session mods the index into its stream count).
    Future<DenseMatrix> item =
        MultiplyAsync(std::move(xs[i]), profile != nullptr ? &join->profs[i] : nullptr,
                      stream + static_cast<int>(i), ctl);
    item.OnReady([join, item, i]() mutable {
      {
        std::lock_guard<std::mutex> lk(join->mu);
        if (item.status().ok()) {
          join->zs[i] = item.Take();
        } else if (join->first_error.ok()) {
          join->first_error = item.status();
        }
      }
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      if (!join->first_error.ok()) {
        join->promise.Set(join->first_error);
        return;
      }
      if (join->profile != nullptr) {
        for (const KernelProfile& p : join->profs) join->profile->Accumulate(p);
      }
      join->promise.Set(std::move(join->zs));
    });
  }
  return join->promise.future();
}

}  // namespace hcspmm
