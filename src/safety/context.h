#ifndef REGAL_SAFETY_CONTEXT_H_
#define REGAL_SAFETY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "core/expr.h"
#include "util/status.h"

namespace regal {
namespace safety {

/// Cooperative cancellation flag, shared between the caller (who cancels)
/// and the execution stack (which polls at operator boundaries and between
/// kernel chunks). Cancellation is a request, not preemption: the query
/// returns Status::Cancelled at the next checkpoint, leaving the engine
/// unchanged.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query resource limits. Default-constructed limits enforce nothing
/// (Any() == false), and the engine then skips governance entirely — the
/// zero-cost-when-idle contract measured by bench_safety.
///
/// The limits follow the paper's own budgeting discipline: the emptiness
/// checker already bounds its search (EmptinessOptions::eval_budget,
/// Theorems 3.4/4.1); QueryLimits extends the same idea to every query —
/// no search or evaluation runs unbudgeted when a limit is set.
struct QueryLimits {
  /// Wall-clock deadline measured from QueryContext construction; <= 0
  /// means none. Exceeding it returns Status::DeadlineExceeded within one
  /// checkpoint interval (one operator node, or one kernel chunk).
  double deadline_ms = 0;
  /// Bytes of region data the query may materialize (memoized intermediate
  /// results, one Region = 2 offsets); <= 0 means unlimited. Exceeding it
  /// returns Status::ResourceExhausted.
  int64_t memory_limit_bytes = 0;
  /// Admission cap on distinct expression nodes (a DAG node counts once,
  /// matching what evaluation actually executes); <= 0 means unlimited.
  int64_t max_expr_nodes = 0;
  /// Admission cap on expression nesting depth; <= 0 means unlimited.
  int max_expr_depth = 0;
  /// Cooperative cancellation; null means not cancellable.
  std::shared_ptr<CancelToken> cancel;

  bool Any() const {
    return deadline_ms > 0 || memory_limit_bytes > 0 || max_expr_nodes > 0 ||
           max_expr_depth > 0 || cancel != nullptr;
  }
};

/// One query's governance state: the deadline resolved to a time point, the
/// byte account, and the cancel token. Threaded through the evaluator, the
/// partitioned kernels and the emptiness search; every layer calls Check()
/// (full status, for paths that can return one) or ShouldAbort() (bool, for
/// kernel chunk loops that bail and let the caller surface Check()).
///
/// Thread-safe: the partitioned kernels' chunks poll the context from pool
/// threads while the evaluator charges it.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  explicit QueryContext(const QueryLimits& limits);

  /// OK, or the first violated limit: Cancelled, DeadlineExceeded, or
  /// ResourceExhausted (memory). Cheap when the corresponding limits are
  /// unset — cancellation is one atomic load, the deadline one clock read.
  Status Check() const;

  /// Lock-free variant for kernel chunk loops: true once any limit has been
  /// violated. Callers abandon their chunk; the evaluator surfaces the
  /// precise Status at the next operator boundary.
  bool ShouldAbort() const;

  /// Accounts `bytes` of materialized region data against the budget.
  /// Returns ResourceExhausted when the account exceeds the limit (the
  /// charge stays recorded, so subsequent Check()s keep failing). Charges
  /// are cumulative for the query's lifetime — memoized sets live until the
  /// answer is returned, so the running total is the live footprint and the
  /// peak equals the total at completion.
  Status ChargeMemory(int64_t bytes);

  /// High-water mark of charged bytes.
  int64_t peak_memory_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  const QueryLimits& limits() const { return limits_; }

 private:
  QueryLimits limits_;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::atomic<int64_t> charged_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<bool> over_budget_{false};
};

/// Size/depth of an expression DAG: `nodes` counts distinct nodes (shared
/// subtrees once — what memoized evaluation executes), `depth` the longest
/// root-to-leaf chain.
struct ExprComplexity {
  int64_t nodes = 0;
  int depth = 0;
};

ExprComplexity MeasureExpr(const ExprPtr& expr);

/// Admission control: ResourceExhausted when `expr` exceeds the node or
/// depth caps in `limits`, OK otherwise (including when no caps are set).
Status AdmitExpr(const ExprPtr& expr, const QueryLimits& limits);

}  // namespace safety
}  // namespace regal

#endif  // REGAL_SAFETY_CONTEXT_H_
