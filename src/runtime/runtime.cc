#include "runtime/runtime.h"

#include <algorithm>

namespace hcspmm {

Runtime::Runtime(const RuntimeOptions& options) : Runtime(options, nullptr) {}

Runtime::Runtime(const RuntimeOptions& options, PlanCache* shared_cache)
    // The executor only runs coarse tasks (session init, stream pumps) whose
    // row loops fan out to the *global* pool, so it stays small by default:
    // sizing it to the hardware would double every process's thread count
    // for workers that mostly idle.
    : pool_(std::make_unique<ThreadPool>(
          options.num_threads > 0
              ? options.num_threads
              : std::min(4, ThreadPool::HardwareThreads()),
          /*nested_parallelism=*/true)) {
  if (shared_cache != nullptr) {
    cache_ = shared_cache;
    if (options.plan_cache_bytes > 0) cache_->SetByteBudget(options.plan_cache_bytes);
  } else {
    const int64_t budget = options.plan_cache_bytes > 0 ? options.plan_cache_bytes
                                                        : DefaultPlanCacheByteBudget();
    owned_cache_ = std::make_unique<PlanCache>(budget);
    cache_ = owned_cache_.get();
  }
}

Runtime* Runtime::Default() {
  // Shares PlanCache::Global() so plan amortization spans every Session in
  // the process. Leaked on purpose, like
  // ThreadPool::Global().
  static Runtime* runtime = new Runtime(RuntimeOptions(), PlanCache::Global());
  return runtime;
}

std::shared_ptr<Session> Runtime::OpenSession(const CsrMatrix* abar,
                                              const SessionOptions& options) {
  std::shared_ptr<Session> session(new Session(abar, options, pool_.get(), cache_));
  session->StartInit();
  return session;
}

std::shared_ptr<Session> Runtime::OpenSession(std::shared_ptr<const CsrMatrix> abar,
                                              const SessionOptions& options) {
  std::shared_ptr<Session> session(
      new Session(std::move(abar), options, pool_.get(), cache_));
  session->StartInit();
  return session;
}

}  // namespace hcspmm
