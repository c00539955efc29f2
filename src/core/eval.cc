#include "core/eval.h"

#include <utility>

#include "core/algebra.h"
#include "core/extended.h"
#include "safety/failpoint.h"

namespace regal {

namespace {

/// Non-owning view of a set owned by the instance or the bindings map (both
/// outlive the evaluation): the aliasing constructor with an empty owner
/// yields a shared_ptr that never copies or frees the set.
std::shared_ptr<const RegionSet> Borrow(const RegionSet* set) {
  return std::shared_ptr<const RegionSet>(std::shared_ptr<const RegionSet>(),
                                          set);
}

std::shared_ptr<const RegionSet> Adopt(RegionSet set) {
  return std::make_shared<const RegionSet>(std::move(set));
}

}  // namespace

const char* ExprSpanName(const Expr& e) {
  switch (e.kind()) {
    case OpKind::kName:
      return "scan";
    case OpKind::kUnion:
      return "union";
    case OpKind::kIntersect:
      return "intersect";
    case OpKind::kDifference:
      return "difference";
    default:
      return OpKindToken(e.kind());
  }
}

std::string ExprSpanDetail(const Expr& e) {
  switch (e.kind()) {
    case OpKind::kName:
      return e.name();
    case OpKind::kSelect:
    case OpKind::kWordMatch:
      return "\"" + e.pattern().body() + "\"";
    default:
      return "";
  }
}

Result<RegionSet> Evaluator::Evaluate(const ExprPtr& e) {
  memo_.clear();
  cache_epoch_ = instance_->epoch();
  REGAL_ASSIGN_OR_RETURN(SharedSet result, Eval(e));
  // A partitioned kernel whose chunks saw ShouldAbort() bails and leaves a
  // truncated set; under the ROOT operator there is no later operator
  // boundary to surface the violation. Abort conditions are monotone, so
  // one final Check() here turns any such partial result into the proper
  // non-OK Status instead of a silently wrong answer.
  if (options_.context != nullptr) {
    REGAL_RETURN_NOT_OK(options_.context->Check());
  }
  return *result;
}

bool Evaluator::Resident(const ExprPtr& e) {
  if (e->kind() == OpKind::kName) return true;
  if (!Cacheable(*e)) return false;
  cache_epoch_ = instance_->epoch();
  cache::ResultCache::Key key;
  ExprPtr canonical;
  return ProbeCache(e, &key, &canonical) != nullptr;
}

bool Evaluator::Cacheable(const Expr& e) const {
  // Name scans are borrowed from the instance for free and the naive
  // oracle must stay a pure re-execution, so neither participates.
  return options_.result_cache != nullptr && !options_.use_naive &&
         e.kind() != OpKind::kName;
}

Evaluator::SharedSet Evaluator::ProbeCache(const ExprPtr& e,
                                           cache::ResultCache::Key* key,
                                           ExprPtr* canonical) {
  *canonical = canonicalizer_.Canonical(e);
  *key = cache::ResultCache::Key{instance_->id(), cache_epoch_,
                                 canonicalizer_.Hash(e)};
  return options_.result_cache->Lookup(*key, *canonical,
                                       options_.cache_stats);
}

Result<Evaluator::SharedSet> Evaluator::Eval(const ExprPtr& e) {
  obs::SpanScope span(options_.tracer, ExprSpanName(*e),
                      options_.tracer != nullptr ? ExprSpanDetail(*e) : "");
  auto memoized = memo_.find(e.get());
  if (memoized != memo_.end()) {
    span.MarkCached();
    span.SetRows(0, static_cast<int64_t>(memoized->second->size()));
    return memoized->second;
  }

  // Cross-query cache probe, once per node per query (the memo answers
  // every later visit).
  const bool cacheable = Cacheable(*e);
  cache::ResultCache::Key cache_key;
  ExprPtr canonical;
  if (cacheable) {
    SharedSet hit = ProbeCache(e, &cache_key, &canonical);
    if (hit != nullptr) {
      // Charge the set against the budget — it is part of this query's
      // live footprint whether computed or recalled — and seed the memo so
      // every further mention short-circuits.
      if (options_.context != nullptr) {
        REGAL_RETURN_NOT_OK(options_.context->ChargeMemory(
            static_cast<int64_t>(hit->size() * sizeof(Region))));
      }
      memo_.emplace(e.get(), hit);
      span.MarkCached();
      span.SetRows(0, static_cast<int64_t>(hit->size()));
      return hit;
    }
  }

  int64_t rows_in = 0;
  REGAL_ASSIGN_OR_RETURN(SharedSet result, EvalNode(e, &rows_in));
  // Charge materialized results (leaf name scans are borrowed from the
  // instance, not new memory) so a runaway intermediate trips the budget at
  // the node that produced it.
  if (options_.context != nullptr && e->kind() != OpKind::kName) {
    REGAL_RETURN_NOT_OK(options_.context->ChargeMemory(
        static_cast<int64_t>(result->size() * sizeof(Region))));
  }
  memo_.emplace(e.get(), result);
  stats_.rows_produced += static_cast<int64_t>(result->size());
  span.SetRows(rows_in, static_cast<int64_t>(result->size()));
  // Publish to the shared cache — but never from a query whose context has
  // tripped: abort conditions are monotone and a partitioned kernel that
  // saw ShouldAbort() mid-chunk leaves a truncated set, which must not
  // outlive this (failing) query.
  if (cacheable &&
      (options_.context == nullptr || !options_.context->ShouldAbort())) {
    options_.result_cache->Insert(cache_key, canonical, result,
                                  options_.cache_stats);
  }
  return result;
}

Result<Evaluator::SharedSet> Evaluator::EvalNode(const ExprPtr& e,
                                                 int64_t* rows_in) {
  // Operator-boundary checkpoint: cancellation, deadline and budget are
  // polled once per executed node, bounding the time from a violated limit
  // to a clean non-OK return by one operator's work.
  if (options_.context != nullptr) {
    REGAL_RETURN_NOT_OK(options_.context->Check());
  }
  REGAL_RETURN_NOT_OK(safety::CheckFailpoint("eval.node"));
  switch (e->kind()) {
    case OpKind::kName: {
      if (options_.bindings != nullptr) {
        auto it = options_.bindings->find(e->name());
        if (it != options_.bindings->end()) return Borrow(&it->second);
      }
      REGAL_ASSIGN_OR_RETURN(const RegionSet* set, instance_->Get(e->name()));
      return Borrow(set);
    }
    case OpKind::kWordMatch: {
      if (instance_->word_index() == nullptr) {
        return Status::FailedPrecondition(
            "'word' queries need a text-backed instance");
      }
      std::vector<Token> matches = instance_->word_index()->Matches(e->pattern());
      std::vector<Region> tokens;
      tokens.reserve(matches.size());
      for (const Token& t : matches) tokens.push_back(Region{t.left, t.right});
      ++stats_.operator_evals;
      // Matches() returns disjoint tokens in document order.
      return Adopt(RegionSet::FromSortedUnique(std::move(tokens)));
    }
    case OpKind::kSelect: {
      REGAL_ASSIGN_OR_RETURN(SharedSet child, Eval(e->child(0)));
      *rows_in = static_cast<int64_t>(child->size());
      ++stats_.operator_evals;
      stats_.rows_scanned += *rows_in;
      const ParallelEvalPolicy* pp = options_.parallel;
      if (pp != nullptr && instance_->word_index() != nullptr &&
          !options_.use_naive) {
        REGAL_RETURN_NOT_OK(safety::CheckFailpoint("exec.kernel.fault"));
        exec::ParallelConfig cfg{pp->pool, pp->min_rows, 0, options_.context,
                                 options_.kernel_fallbacks};
        return Adopt(exec::ParallelSelectByTokens(
            *child, instance_->word_index()->Matches(e->pattern()), cfg));
      }
      return Adopt(instance_->Select(*child, e->pattern()));
    }
    case OpKind::kBothIncluded: {
      REGAL_ASSIGN_OR_RETURN(SharedSet r, Eval(e->child(0)));
      REGAL_ASSIGN_OR_RETURN(SharedSet s, Eval(e->child(1)));
      REGAL_ASSIGN_OR_RETURN(SharedSet t, Eval(e->child(2)));
      *rows_in = static_cast<int64_t>(r->size() + s->size() + t->size());
      ++stats_.operator_evals;
      stats_.rows_scanned += *rows_in;
      return Adopt(options_.use_naive ? naive::BothIncluded(*r, *s, *t)
                                      : BothIncluded(*r, *s, *t));
    }
    default: {
      REGAL_ASSIGN_OR_RETURN(SharedSet sa, Eval(e->child(0)));
      REGAL_ASSIGN_OR_RETURN(SharedSet sb, Eval(e->child(1)));
      const RegionSet& a = *sa;
      const RegionSet& b = *sb;
      *rows_in = static_cast<int64_t>(a.size() + b.size());
      ++stats_.operator_evals;
      stats_.rows_scanned += *rows_in;
      const bool naive_mode = options_.use_naive;
      const ParallelEvalPolicy* pp = naive_mode ? nullptr : options_.parallel;
      exec::ParallelConfig cfg;
      if (pp != nullptr) {
        REGAL_RETURN_NOT_OK(safety::CheckFailpoint("exec.kernel.fault"));
        cfg = exec::ParallelConfig{pp->pool, pp->min_rows, 0, options_.context,
                                   options_.kernel_fallbacks};
      }
      RegionSet result;
      switch (e->kind()) {
        case OpKind::kUnion:
          result = naive_mode ? naive::Union(a, b)
                   : pp != nullptr ? exec::ParallelUnion(a, b, cfg)
                                   : Union(a, b);
          break;
        case OpKind::kIntersect:
          result = naive_mode ? naive::Intersect(a, b)
                   : pp != nullptr ? exec::ParallelIntersect(a, b, cfg)
                                   : Intersect(a, b);
          break;
        case OpKind::kDifference:
          result = naive_mode ? naive::Difference(a, b)
                   : pp != nullptr ? exec::ParallelDifference(a, b, cfg)
                                   : Difference(a, b);
          break;
        case OpKind::kIncluding:
          result = naive_mode ? naive::Including(a, b)
                   : pp != nullptr ? exec::ParallelIncluding(a, b, cfg)
                                   : Including(a, b);
          break;
        case OpKind::kIncluded:
          result = naive_mode ? naive::Included(a, b)
                   : pp != nullptr ? exec::ParallelIncluded(a, b, cfg)
                                   : Included(a, b);
          break;
        case OpKind::kPrecedes:
          result = naive_mode ? naive::Precedes(a, b)
                   : pp != nullptr ? exec::ParallelPrecedes(a, b, cfg)
                                   : Precedes(a, b);
          break;
        case OpKind::kFollows:
          result = naive_mode ? naive::Follows(a, b)
                   : pp != nullptr ? exec::ParallelFollows(a, b, cfg)
                                   : Follows(a, b);
          break;
        case OpKind::kDirectIncluding:
          result = naive_mode ? naive::DirectIncluding(*instance_, a, b)
                              : DirectIncluding(*instance_, a, b);
          break;
        case OpKind::kDirectIncluded:
          result = naive_mode ? naive::DirectIncluded(*instance_, a, b)
                              : DirectIncluded(*instance_, a, b);
          break;
        default:
          return Status::Internal("unexpected operator kind in Eval");
      }
      return Adopt(std::move(result));
    }
  }
}

Result<RegionSet> Evaluate(const Instance& instance, const ExprPtr& e,
                           EvalOptions options) {
  Evaluator evaluator(&instance, options);
  return evaluator.Evaluate(e);
}

}  // namespace regal
