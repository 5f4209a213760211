// Measurement primitives shared by the workloads and the self-tests:
// percentile selection, output hashing, peak RSS, the in-memory span
// recorder used by traced runs, and open-loop request accounting.
//
// Nothing here reaches into the library's internals: spans are recorded
// around public calls from the benchmark's own code, and every time is host
// wall-clock (std::chrono::steady_clock). Simulated GPU time is read from
// KernelProfile / PhaseBreakdown by the workloads and always carries a
// `sim_` name.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "util/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it (p in (0, 100]). Failed operations enter
/// as +infinity, so a percentile that reaches them reads infinite rather than
/// flattering the tail. Returns 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const double exact = p / 100.0 * static_cast<double>(v.size());
  // The epsilon keeps an exact product (99 of 100) from rounding up a rank.
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

/// 64-bit multiplicative hash over the raw bits of a float buffer. Two
/// buffers that differ in any bit hash differently with overwhelming
/// probability; the timed loops compare outputs through it so they need not
/// keep a second copy of every result.
inline uint64_t HashFloats(const float* data, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  const size_t nbytes = n * sizeof(float);
  size_t i = 0;
  for (; i + 8 <= nbytes; i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < nbytes; ++i) h = (h ^ bytes[i]) * 0x100000001b3ULL;
  return h;
}

/// Peak resident set size of this process, from getrusage (kilobytes on
/// Linux), in MiB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Spans. A traced run records one span per public call the benchmark makes
// (name, layer, start, end, parent span, request id). Spans live in memory
// and are written out after the run; per-layer self time is computed from
// them. A disabled tracer records nothing and Begin returns -1.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t Begin(const char* name, const char* layer, int64_t parent = -1,
                int64_t request = -1, Clock::time_point start = Clock::now()) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{name, layer, start, start, parent, request, false});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id, Clock::time_point end = Clock::now()) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[static_cast<size_t>(id)].end = end;
    spans_[static_cast<size_t>(id)].closed = true;
  }

  /// Times `fn()` as one span and returns its wall time in milliseconds
  /// (measured whether or not tracing is on).
  template <typename Fn>
  double Time(const char* name, const char* layer, int64_t parent, Fn&& fn) {
    const int64_t id = Begin(name, layer, parent);
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    End(id, t1);
    return MsBetween(t0, t1);
  }

  /// Self time per layer, in ms: each closed span's duration minus the part
  /// of its interval covered by its closed children.
  std::map<std::string, double> SelfMsByLayer() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int64_t p = spans_[i].parent;
      if (spans_[i].closed && p >= 0) children[static_cast<size_t>(p)].push_back(i);
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (!s.closed) continue;
      std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
      for (size_t c : children[i]) {
        const auto b = std::max(spans_[c].start, s.start);
        const auto e = std::min(spans_[c].end, s.end);
        if (b < e) cover.emplace_back(b, e);
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0;
      Clock::time_point run_b{}, run_e{};
      bool open = false;
      for (const auto& [b, e] : cover) {
        if (open && b <= run_e) {
          run_e = std::max(run_e, e);
          continue;
        }
        if (open) covered += MsBetween(run_b, run_e);
        run_b = b;
        run_e = e;
        open = true;
      }
      if (open) covered += MsBetween(run_b, run_e);
      self[s.layer] += std::max(0.0, MsBetween(s.start, s.end) - covered);
    }
    return self;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// One JSON object per line; times in microseconds from tracer creation.
  bool WriteJsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %lld, \"request\": %lld}\n",
                   i, s.name, s.layer, MsBetween(origin_, s.start) * 1e3,
                   MsBetween(origin_, s.closed ? s.end : s.start) * 1e3,
                   static_cast<long long>(s.parent), static_cast<long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;   // string literals only
    const char* layer;  // string literals only
    Clock::time_point start;
    Clock::time_point end;
    int64_t parent;
    int64_t request;
    bool closed;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Open-loop accounting. Requests are due on a seeded Poisson schedule and are
// timed from their due time, not from when the generator got round to
// sending them: a stall in the generator or in a synchronous submit then
// shows up in the latency of every request that was due during it, instead
// of silently thinning the offered load (coordinated omission).

/// Arrival offsets (seconds from the phase start) of a Poisson process at
/// `rate` per second over `seconds`.
inline std::vector<double> PoissonOffsets(double rate, double seconds, hcspmm::Pcg32* rng) {
  std::vector<double> out;
  double t = 0.0;
  while (true) {
    const double u = rng->NextDouble();
    t += -std::log(1.0 - u) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

class OpenLoop {
 public:
  OpenLoop(Clock::time_point start, const std::vector<double>& offsets)
      : slots_(offsets.size()) {
    for (size_t i = 0; i < offsets.size(); ++i) {
      slots_[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(offsets[i]));
    }
  }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  size_t size() const { return slots_.size(); }
  Clock::time_point Due(size_t i) const { return slots_[i].due; }

  /// Set the due time of a request whose due time is only known at run
  /// time (before it is sent).
  void Reschedule(size_t i, Clock::time_point due) { slots_[i].due = due; }

  /// Block the generator until request `i` is due, running `idle()` while it
  /// returns true (bounded background chores such as output checks), then
  /// record how late the generator is.
  template <typename Idle>
  void WaitUntilDue(size_t i, Idle&& idle) {
    const Clock::time_point due = slots_[i].due;
    while (Clock::now() < due && idle()) {
    }
    std::this_thread::sleep_until(due);
    lag_ms_max_ = std::max(lag_ms_max_, MsSince(due));
  }
  void WaitUntilDue(size_t i) {
    WaitUntilDue(i, [] { return false; });
  }

  /// Mark request `i` sent (generator thread, before the call that submits
  /// it can complete it).
  void Sent(size_t i) {
    std::lock_guard<std::mutex> lk(mu_);
    slots_[i].sent = true;
    ++sent_;
  }

  /// Resolve request `i` now; callable from any thread (Future::OnReady).
  void Complete(size_t i, bool ok) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    slots_[i].done = now;
    slots_[i].ok = ok;
    slots_[i].completed = true;
    if (!ok) ++failed_;
    if (++completed_ == sent_) cv_.notify_all();
  }

  /// Block until every sent request has completed.
  void WaitAll() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return completed_ == sent_; });
  }

  /// Due-to-resolved latency of every sent request in [begin, end), in ms;
  /// failed requests read +infinity. Call after WaitAll.
  std::vector<double> LatenciesMs(size_t begin = 0,
                                  size_t end = std::numeric_limits<size_t>::max()) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (size_t i = begin; i < std::min(end, slots_.size()); ++i) {
      const Slot& s = slots_[i];
      if (!s.sent || !s.completed) continue;
      out.push_back(s.ok ? MsBetween(s.due, s.done)
                         : std::numeric_limits<double>::infinity());
    }
    return out;
  }

  double LatencyMs(size_t i) const {
    std::lock_guard<std::mutex> lk(mu_);
    return MsBetween(slots_[i].due, slots_[i].done);
  }

  int64_t sent() const {
    std::lock_guard<std::mutex> lk(mu_);
    return sent_;
  }
  int64_t completed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return completed_;
  }
  int64_t failed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return failed_;
  }
  /// How late the generator ran at worst, in ms.
  double lag_ms_max() const { return lag_ms_max_; }

 private:
  struct Slot {
    Clock::time_point due;
    Clock::time_point done;
    bool sent = false;
    bool completed = false;
    bool ok = false;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  int64_t sent_ = 0;
  int64_t completed_ = 0;
  int64_t failed_ = 0;
  double lag_ms_max_ = 0.0;  // generator thread only
};

}  // namespace perfbench
