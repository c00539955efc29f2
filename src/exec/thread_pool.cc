#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "safety/failpoint.h"

namespace regal {
namespace exec {

namespace {

// The pool's metric handles, resolved once: Registry::Default() is never
// cleared (only tests' local registries are), so held handles never dangle.
struct PoolMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* tasks;
  obs::Counter* steals;
  obs::Gauge* active_lanes;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Default();
    return PoolMetrics{registry.GetGauge("regal_exec_queue_depth"),
                       registry.GetCounter("regal_exec_tasks_total"),
                       registry.GetCounter("regal_exec_steals_total"),
                       registry.GetGauge("regal_exec_active_lanes")};
  }();
  return metrics;
}

// Dispatch bookkeeping happens on the calling thread only.
void RecordDispatch(size_t queue_depth, int64_t tasks, int64_t steals) {
  const PoolMetrics& m = Metrics();
  m.queue_depth->Set(static_cast<double>(queue_depth));
  if (tasks > 0) m.tasks->Increment(tasks);
  if (steals > 0) m.steals->Increment(steals);
}

// Up-down gauge of lanes currently executing pool work — the utilization
// numerator against the regal_exec_threads denominator. Two atomic adds per
// lane *participation* (one lane's share of a ParallelFor), not per claimed
// index, from whichever lane runs the work.
class ActiveLaneScope {
 public:
  ActiveLaneScope() { Metrics().active_lanes->Add(1); }
  ~ActiveLaneScope() { Metrics().active_lanes->Add(-1); }
  ActiveLaneScope(const ActiveLaneScope&) = delete;
  ActiveLaneScope& operator=(const ActiveLaneScope&) = delete;
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool(DefaultNumThreads());
    obs::Registry::Default().GetGauge("regal_exec_threads")
        ->Set(static_cast<double>(p->num_threads()));
    return p;
  }();
  return *pool;
}

int ThreadPool::ParseThreads(const char* value, int fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') return fallback;
  if (parsed < 1 || parsed > 512) return fallback;
  return static_cast<int>(parsed);
}

int ThreadPool::DefaultNumThreads() {
  static int threads = [] {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw < 1) hw = 1;
    return ParseThreads(std::getenv("REGAL_THREADS"), hw);
  }();
  return threads;
}

size_t ThreadPool::ApproxQueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool ThreadPool::Saturated() const {
  if (safety::FailpointFires("exec.pool.saturated")) return true;
  // Two queued tasks per lane means every lane is busy and has a full
  // backlog behind it; adding parallel work then only grows the queue.
  return ApproxQueueDepth() >
         static_cast<size_t>(2 * num_threads());
}

void ThreadPool::Enqueue(std::function<void()> job) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    depth = queue_.size();
  }
  work_cv_.notify_one();
  RecordDispatch(depth, 0, 0);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

/// Shared state of one ParallelFor: indices are claimed via `next`, and the
/// caller waits until `done` reaches `n`. Queued helper jobs that find no
/// index left exit immediately, so stale helpers are harmless.
struct ThreadPool::ForState {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::atomic<int64_t> stolen{0};
  std::mutex mu;
  std::condition_variable cv;

  void Drive(bool on_worker) {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*fn)(i);
      // Tally the steal before the done increment that may release the
      // waiter, so the caller's metric read sees it.
      if (on_worker) stolen.fetch_add(1, std::memory_order_relaxed);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        {
          std::lock_guard<std::mutex> lock(mu);  // Pairs with the waiter.
        }
        cv.notify_all();
      }
    }
  }
};

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    RecordDispatch(0, static_cast<int64_t>(n), 0);
    return;
  }
  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;
  size_t helpers = workers_.size() < n - 1 ? workers_.size() : n - 1;
  for (size_t i = 0; i < helpers; ++i) {
    Enqueue([state] {
      ActiveLaneScope active;
      state->Drive(/*on_worker=*/true);
    });
  }
  {
    ActiveLaneScope active;
    state->Drive(/*on_worker=*/false);
  }
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->n;
    });
  }
  RecordDispatch(0, static_cast<int64_t>(n),
                 state->stolen.load(std::memory_order_relaxed));
}

}  // namespace exec
}  // namespace regal
