// Self-tests of the benchmark's measurement code: percentile selection,
// span self time, and open-loop accounting against deliberately stalled
// fake targets (timing from the due time must count the stall; timing from
// the send time would hide it). Exits non-zero on any failed check.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Clock;

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void TestPercentile() {
  using perfbench::Percentile;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(101 - i);  // unsorted on purpose
  EXPECT(Percentile(hundred, 50) == 50);
  EXPECT(Percentile(hundred, 90) == 90);
  EXPECT(Percentile(hundred, 99) == 99);
  EXPECT(Percentile(hundred, 100) == 100);
  EXPECT(Percentile(hundred, 1) == 1);
  EXPECT(Percentile(hundred, 0.5) == 1);
  EXPECT(Percentile({3, 1, 2, 4}, 50) == 2);
  EXPECT(Percentile({3, 1, 2, 4}, 75) == 3);
  EXPECT(Percentile({3, 1, 2, 4}, 90) == 4);
  EXPECT(Percentile({7}, 99) == 7);
  EXPECT(Percentile({}, 50) == 0);
  // Nine samples: p90 is the 9th (ceil(8.1)), not the 8th.
  EXPECT(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9}, 90) == 9);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT(Percentile({1, 2, inf}, 50) == 2);
  EXPECT(Percentile({1, 2, inf}, 99) == inf);
  EXPECT(perfbench::Median({4, 1, 3}) == 3);
}

void TestSelfTime() {
  perfbench::Tracer tr(true);
  const Clock::time_point t0 = Clock::now();
  auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const int64_t root = tr.Begin("op", "bench", -1, 1, at(0));
  const int64_t a = tr.Begin("a", "kernels", root, 1, at(2));
  tr.End(a, at(5));
  const int64_t b = tr.Begin("b", "kernels", root, 1, at(4));
  tr.End(b, at(8));
  const int64_t c = tr.Begin("c", "core", b, 1, at(6));
  tr.End(c, at(7));
  tr.End(root, at(10));
  const auto self = tr.SelfMsByLayer();
  // root covers [0,10], children cover [2,8] -> 4 ms; kernels: a 3 + b (4-1)
  // = 6 ms; core 1 ms.
  EXPECT(std::abs(self.at("bench") - 4.0) < 1e-6);
  EXPECT(std::abs(self.at("kernels") - 6.0) < 1e-6);
  EXPECT(std::abs(self.at("core") - 1.0) < 1e-6);
  perfbench::Tracer off(false);
  EXPECT(off.Begin("x", "bench") == -1);
  EXPECT(off.size() == 0);
}

std::vector<double> EveryMs(int n) {
  std::vector<double> offsets;
  for (int i = 0; i < n; ++i) offsets.push_back(i * 1e-3);
  return offsets;
}

// A target whose submit call blocks the generator once for 100 ms and
// otherwise answers at once.
void TestStalledSynchronousTarget() {
  constexpr int kN = 300;
  constexpr int kStallAt = 50;
  perfbench::OpenLoop loop(Clock::now() + std::chrono::milliseconds(2), EveryMs(kN));
  std::vector<Clock::time_point> sent_at(kN);
  for (int i = 0; i < kN; ++i) {
    loop.WaitUntilDue(i);
    loop.Sent(i);
    sent_at[i] = Clock::now();
    if (i == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    loop.Complete(i, true);
  }
  loop.WaitAll();
  int slow_from_due = 0, slow_from_send = 0;
  for (int i = 0; i < kN; ++i) {
    if (loop.LatencyMs(i) > 20.0) ++slow_from_due;
    if (perfbench::MsBetween(sent_at[i], loop.Due(i)) + loop.LatencyMs(i) > 20.0) {
      ++slow_from_send;  // due + latency - sent = time from send to done
    }
  }
  // ~100 requests were due during the stall (1 per ms); timed from their
  // due time, most of them waited > 20 ms. Timed from when they were sent
  // only the stalled request itself was slow.
  EXPECT(slow_from_due >= 60);
  EXPECT(slow_from_send <= 2);
  EXPECT(loop.lag_ms_max() >= 90.0);
  EXPECT(perfbench::Percentile(loop.LatenciesMs(), 90) > 20.0);
}

// An asynchronous target: a worker thread serves requests FIFO and stalls
// once for 100 ms; completions arrive on the worker thread, as they do
// through Future::OnReady. The generator itself never falls behind.
void TestStalledAsynchronousTarget() {
  constexpr int kN = 300;
  constexpr int kStallAt = 50;
  perfbench::OpenLoop loop(Clock::now() + std::chrono::milliseconds(2), EveryMs(kN));
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> queue;
  bool stop = false;
  std::thread worker([&] {
    while (true) {
      int i = 0;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return stop || !queue.empty(); });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      if (i == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      loop.Complete(i, i != kN - 1);  // the last request fails
    }
  });
  for (int i = 0; i < kN; ++i) {
    loop.WaitUntilDue(i);
    loop.Sent(i);
    {
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back(i);
    }
    cv.notify_one();
  }
  loop.WaitAll();
  {
    std::lock_guard<std::mutex> lk(mu);
    stop = true;
  }
  cv.notify_one();
  worker.join();
  const std::vector<double> lat = loop.LatenciesMs();
  EXPECT(static_cast<int>(lat.size()) == kN);
  EXPECT(loop.failed() == 1);
  EXPECT(perfbench::Percentile(lat, 100) == std::numeric_limits<double>::infinity());
  EXPECT(perfbench::Percentile(lat, 90) > 20.0);
  EXPECT(loop.lag_ms_max() < 50.0);
}

void TestPoissonOffsets() {
  hcspmm::Pcg32 a(7, 1), b(7, 1);
  const std::vector<double> x = perfbench::PoissonOffsets(1000.0, 2.0, &a);
  const std::vector<double> y = perfbench::PoissonOffsets(1000.0, 2.0, &b);
  EXPECT(x == y);  // same seed, same schedule
  EXPECT(x.size() > 1800 && x.size() < 2200);
  for (size_t i = 1; i < x.size(); ++i) EXPECT(x[i] > x[i - 1]);
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestPoissonOffsets();
  TestStalledSynchronousTarget();
  TestStalledAsynchronousTarget();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
