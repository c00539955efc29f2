#ifndef REGAL_EXEC_THREAD_POOL_H_
#define REGAL_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace regal {
namespace exec {

/// Fixed-size thread pool shared by the parallel operator kernels and the
/// index builders. Its one entry point is ParallelFor: the evaluator walks
/// a plan on the calling thread, and an operator large enough to partition
/// fans its chunks out here.
///
/// A pool of `num_threads` *lanes* runs `num_threads - 1` worker threads:
/// the thread calling ParallelFor is always the extra lane and claims
/// indices alongside the workers. This caller-runs discipline makes nested
/// parallelism (a chunk that itself calls ParallelFor) deadlock-free — a
/// caller never waits on an index that no thread has claimed — and makes
/// `ThreadPool(1)` exactly the sequential path (zero workers).
///
/// The process-wide Default() pool is created lazily on first use and sized
/// by the REGAL_THREADS environment variable (falling back to
/// std::thread::hardware_concurrency).
///
/// Observability (obs::Registry::Default(), updated from the calling
/// thread only so metric pointers are never cached across Registry::Clear):
///   regal_exec_threads            gauge    lanes of the default pool
///   regal_exec_queue_depth        gauge    queue length sampled at enqueue
///   regal_exec_tasks_total        counter  ParallelFor index executions
///   regal_exec_steals_total       counter  indices run by a worker (i.e.
///                                          taken off the caller's lane)
class ThreadPool {
 public:
  /// `num_threads` lanes (>= 1): num_threads - 1 workers plus the caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The lazily-started process-wide pool, sized by REGAL_THREADS.
  static ThreadPool& Default();

  /// Lanes of Default(): REGAL_THREADS if set and valid, else
  /// hardware_concurrency (minimum 1). Stable after first call.
  static int DefaultNumThreads();

  /// Parses a REGAL_THREADS-style value; returns `fallback` when null,
  /// empty, non-numeric or out of [1, 512]. Exposed for tests.
  static int ParseThreads(const char* value, int fallback);

  /// Total lanes (workers + caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(0) .. fn(n - 1), distributing indices over the workers with
  /// the caller participating; returns when all n calls completed. Indices
  /// are claimed dynamically, so chunk sizes self-balance. `fn` must not
  /// throw and must tolerate concurrent invocation on distinct indices.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Queue length at this instant (helper jobs queued but not yet claimed).
  size_t ApproxQueueDepth() const;

  /// Admission signal for graceful degradation: true when the backlog
  /// exceeds a small multiple of the lane count (every lane busy plus a
  /// full round of queued work), or when the "exec.pool.saturated"
  /// failpoint fires. The engine answers saturation by evaluating
  /// sequentially instead of queueing more parallel work — see
  /// DESIGN.md "Resource governance".
  bool Saturated() const;

 private:
  struct ForState;

  void WorkerLoop();
  void Enqueue(std::function<void()> job);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace regal

#endif  // REGAL_EXEC_THREAD_POOL_H_
