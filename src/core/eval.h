#ifndef REGAL_CORE_EVAL_H_
#define REGAL_CORE_EVAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>

#include "cache/result_cache.h"
#include "core/expr.h"
#include "core/instance.h"
#include "core/region_set.h"
#include "exec/parallel_algebra.h"
#include "obs/trace.h"
#include "safety/context.h"
#include "util/status.h"

namespace regal {

/// Controls the evaluator's use of the exec thread pool. The engine installs
/// a policy only when the optimizer's EstimateCost for the whole plan
/// exceeds its threshold (see QueryEngine::set_parallel_cost_threshold);
/// with no policy every operator runs its sequential implementation.
///
/// The evaluator always walks the plan on the calling thread; the policy
/// only lets a large operator partition its work across the pool. The
/// partitioned kernels preserve document order per chunk, so parallel and
/// sequential evaluation return bit-identical RegionSets.
struct ParallelEvalPolicy {
  /// Pool for the partitioned kernels; nullptr means ThreadPool::Default().
  exec::ThreadPool* pool = nullptr;
  /// Combined operand rows before an operator dispatches to the partitioned
  /// kernels (below this the sequential operator is cheaper).
  size_t min_rows = 1u << 14;
};

/// Knobs for Evaluator. `use_naive` switches every operator to the O(n*m)
/// reference implementation (the oracle used by property tests and the
/// baseline in bench_operators). `bindings`, when set, resolves region
/// names before the instance does — the mechanism behind materialized
/// views (dynamically constructed region sets, footnote 1 of the paper).
/// `tracer`, when set, records one span per expression node (operator,
/// input/output cardinalities, operator work counters, wall time) — the
/// machinery behind `explain analyze`. Null tracer = no tracing work at
/// all beyond one branch per node. `parallel`, when set, dispatches large
/// operators to the partitioned kernels of exec/parallel_algebra.h.
/// `context`, when set, is the query's governance state (deadline,
/// cancellation, memory budget): the evaluator checks it once per
/// expression node and charges every materialized result against the
/// budget, so a violated limit surfaces as a clean non-OK Status within one
/// operator boundary. Null context = no governance work at all (one branch
/// per node).
struct EvalOptions {
  bool use_naive = false;
  const std::map<std::string, RegionSet>* bindings = nullptr;
  obs::Tracer* tracer = nullptr;
  const ParallelEvalPolicy* parallel = nullptr;
  safety::QueryContext* context = nullptr;
  /// Per-query count of parallel kernels that degraded to their sequential
  /// twins, forwarded to every kernel dispatch; nullptr means untracked.
  std::atomic<int64_t>* kernel_fallbacks = nullptr;
  /// Cross-query result cache (see cache/result_cache.h), keyed by the
  /// instance's (id, epoch) and each subtree's canonical fingerprint. When
  /// set (and use_naive is off — the naive oracle stays pure), the first
  /// visit to every non-scan node probes the cache and seeds the memo on
  /// a hit, so the subtree short-circuits without re-execution; computed
  /// results are published back unless the query's context has already
  /// tripped (a kernel may have bailed mid-chunk, and a truncated set must
  /// never become visible to other queries). Cache-seeded sets are charged
  /// against `context` exactly like computed ones.
  cache::ResultCache* result_cache = nullptr;
  /// Per-query cache activity for the `explain analyze` cache envelope;
  /// nullptr means untracked.
  cache::CacheQueryStats* cache_stats = nullptr;
};

/// Counters accumulated across Evaluate calls; the optimizer benches read
/// them to show that RIG-based rewrites execute fewer operator evaluations.
/// Identical with and without a ParallelEvalPolicy: the plan walk is the
/// same, only the operators' inner loops are partitioned.
struct EvalStats {
  int64_t operator_evals = 0;  // Operator nodes executed (memoized hits excluded).
  int64_t rows_scanned = 0;    // Sum of operand sizes over executed operators.
  int64_t rows_produced = 0;   // Sum of result sizes over executed operators.
};

/// Evaluates region algebra expressions against one Instance
/// (e(I) of Definition 2.3 plus the extended operators), walking the plan
/// on the calling thread.
///
/// Shared subtrees (the expression is a DAG of shared_ptr nodes) are
/// evaluated once per Evaluate call via pointer-keyed memoization — the
/// bounded expansions of Props 5.2/5.4 rely on this. Memoized results are
/// handed around as shared_ptr<const RegionSet>, so a memo hit (and a leaf
/// scan of an instance set) never copies region data.
class Evaluator {
 public:
  explicit Evaluator(const Instance* instance, EvalOptions options = {})
      : instance_(instance), options_(options) {}

  /// e(I). Errors if e mentions a region name not defined in the instance.
  Result<RegionSet> Evaluate(const ExprPtr& e);

  /// True when evaluating `e` needs no operator work at its root: a name
  /// scan (borrowed from the instance, never cached) or a subtree whose
  /// result the cross-query cache holds for the instance's current epoch.
  /// Makes the same cache probe Evaluate makes at each node; never
  /// evaluates.
  bool Resident(const ExprPtr& e);

  const EvalStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EvalStats(); }

 private:
  using SharedSet = std::shared_ptr<const RegionSet>;

  /// Memoizing wrapper: a node's first visit probes the result cache, then
  /// computes via EvalNode; later visits return the memoized set.
  Result<SharedSet> Eval(const ExprPtr& e);
  /// Computes one node (children evaluated via Eval). `rows_in` receives the
  /// sum of operand cardinalities (0 for leaves) for the node's span.
  Result<SharedSet> EvalNode(const ExprPtr& e, int64_t* rows_in);
  /// Whether `e` takes part in the cross-query cache.
  bool Cacheable(const Expr& e) const;
  /// Looks `e` up in the result cache, filling the key and canonical form
  /// a later Insert of the computed set needs.
  SharedSet ProbeCache(const ExprPtr& e, cache::ResultCache::Key* key,
                       ExprPtr* canonical);

  const Instance* instance_;
  EvalOptions options_;
  EvalStats stats_;
  std::unordered_map<const Expr*, SharedSet> memo_;
  // Cross-query cache plumbing: the canonicalizer memoizes fingerprints
  // per node, and the epoch is snapshotted at Evaluate entry so one call
  // never mixes epochs.
  ExprCanonicalizer canonicalizer_;
  uint64_t cache_epoch_ = 0;
};

/// One-shot convenience wrapper.
Result<RegionSet> Evaluate(const Instance& instance, const ExprPtr& e,
                           EvalOptions options = {});

/// Span naming used by the evaluator's tracer, shared with the engine's
/// EXPLAIN plan builder so that estimated and executed plans render alike:
/// operator nodes use their query keyword; leaves become "scan"/"word" with
/// the operand in the detail.
const char* ExprSpanName(const Expr& e);
std::string ExprSpanDetail(const Expr& e);

}  // namespace regal

#endif  // REGAL_CORE_EVAL_H_
