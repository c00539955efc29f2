#include "exec/parallel_algebra.h"

#include <algorithm>

#include "core/algebra.h"
#include "core/algebra_kernels.h"
#include "obs/metrics.h"
#include "safety/failpoint.h"

namespace regal {
namespace exec {

namespace {

// Chunks smaller than this are not worth a task dispatch.
constexpr size_t kMinChunkRows = 2048;

ThreadPool& PoolOf(const ParallelConfig& cfg) {
  return cfg.pool != nullptr ? *cfg.pool : ThreadPool::Default();
}

int PartitionCount(const ParallelConfig& cfg, size_t rows) {
  int lanes = cfg.max_partitions > 0 ? cfg.max_partitions
                                     : PoolOf(cfg).num_threads();
  size_t by_rows = rows / kMinChunkRows;
  if (by_rows < 1) by_rows = 1;
  return static_cast<int>(
      std::min(static_cast<size_t>(lanes), by_rows));
}

// The series of regal_exec_parallel_ops_total for one operator. Each
// operator resolves its handle once into a function-local static: the op
// label set is fixed, and Registry::Default() is never cleared (only tests'
// local registries are), so a held handle never dangles.
obs::Counter* ParallelOpsCounter(const char* op) {
  return obs::Registry::Default().GetCounter("regal_exec_parallel_ops_total",
                                             {{"op", op}});
}

// Degradation failpoint shared by every kernel: when "exec.kernel.degrade"
// fires, the kernel runs its sequential twin instead of partitioning —
// same answer (the kernels are bit-identical to the sequential operators),
// recorded so the fallback is observable.
bool DegradeKernel(const char* op, const ParallelConfig& cfg) {
  if (!safety::FailpointFires("exec.kernel.degrade")) return false;
  obs::Registry::Default()
      .GetCounter("regal_safety_kernel_fallbacks_total", {{"op", op}})
      ->Increment();
  // The per-query tally feeds the explain-analyze profile; the labeled
  // global counter above is fleet metrics only.
  if (cfg.fallbacks != nullptr) {
    cfg.fallbacks->fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::vector<Region> Concatenate(std::vector<std::vector<Region>>* chunks) {
  size_t total = 0;
  for (const auto& c : *chunks) total += c.size();
  std::vector<Region> out;
  out.reserve(total);
  for (auto& c : *chunks) out.insert(out.end(), c.begin(), c.end());
  return out;
}

using MergeKernel = void (*)(const Region*, const Region*, const Region*,
                             const Region*, std::vector<Region>*,
                             obs::OpCounters*);

// Splits R at index boundaries, binary-searches the matching value window of
// S for every chunk (chunk k owns the endpoint interval
// [R[cut_k], R[cut_{k+1}})), and runs `kernel` per chunk on the pool. Chunk
// outputs cover disjoint, increasing endpoint intervals, so concatenation is
// the full sorted merge.
RegionSet PartitionedMerge(obs::Counter* ops, const RegionSet& r,
                           const RegionSet& s, MergeKernel kernel,
                           const ParallelConfig& cfg) {
  const Region* rd = r.regions().data();
  const Region* sd = s.regions().data();
  const int parts = PartitionCount(cfg, r.size());
  if (parts <= 1) {
    std::vector<Region> out;
    out.reserve(r.size() + s.size());
    obs::OpCounters c;
    kernel(rd, rd + r.size(), sd, sd + s.size(), &out, &c);
    kernels::FlushCounters(c);
    return RegionSet::FromSortedUnique(std::move(out));
  }
  const size_t np = static_cast<size_t>(parts);
  std::vector<size_t> rcut(np + 1), scut(np + 1);
  RegionDocumentOrder less;
  rcut[0] = 0;
  scut[0] = 0;
  rcut[np] = r.size();
  scut[np] = s.size();
  for (size_t k = 1; k < np; ++k) {
    rcut[k] = k * r.size() / np;
    scut[k] = static_cast<size_t>(
        std::lower_bound(sd, sd + s.size(), rd[rcut[k]], less) - sd);
  }
  std::vector<std::vector<Region>> outs(np);
  std::vector<obs::OpCounters> counters(np);
  PoolOf(cfg).ParallelFor(np, [&](size_t k) {
    // Chunk-granularity checkpoint: a cancelled/over-deadline query skips
    // the remaining chunks. The evaluator re-checks the context at the next
    // operator boundary — and once more before Evaluate() returns, which
    // covers a kernel running under the root operator — and discards this
    // (partial) result.
    if (cfg.ctx != nullptr && cfg.ctx->ShouldAbort()) return;
    outs[k].reserve((rcut[k + 1] - rcut[k]) + (scut[k + 1] - scut[k]));
    kernel(rd + rcut[k], rd + rcut[k + 1], sd + scut[k], sd + scut[k + 1],
           &outs[k], &counters[k]);
  });
  obs::OpCounters total;
  for (const obs::OpCounters& c : counters) total.Add(c);
  kernels::FlushCounters(total);
  ops->Increment();
  return RegionSet::FromSortedUnique(Concatenate(&outs));
}

// Analytic counter charge of a partitioned filter over R: `per_element`
// per probed element (matching the sequential operators) plus `fixed` per
// call. The charge is independent of how R is chunked, so sequential and
// partitioned runs report identical counters.
obs::OpCounters FilterCharge(size_t rows, const obs::OpCounters& per_element,
                             const obs::OpCounters& fixed) {
  obs::OpCounters total = fixed;
  total.comparisons += per_element.comparisons * static_cast<int64_t>(rows);
  total.merge_steps += per_element.merge_steps * static_cast<int64_t>(rows);
  total.index_probes += per_element.index_probes * static_cast<int64_t>(rows);
  return total;
}

// Partitioned order-preserving filter of R: chunk k runs
// `filter(begin, end, out)` over R[cut_k, cut_{k+1}) straight into its own
// output vector, and the chunk outputs concatenate to the full filtered set.
// The semi-join walks start each chunk with one binary search for its first
// left endpoint; the endpoint filters behind Precedes/Follows are stateless.
// Either way chunking never changes a per-element answer.
template <typename Filter>
RegionSet PartitionedFilter(obs::Counter* ops, const RegionSet& r,
                            Filter filter, const obs::OpCounters& per_element,
                            const obs::OpCounters& fixed,
                            const ParallelConfig& cfg) {
  const Region* rd = r.regions().data();
  const obs::OpCounters total = FilterCharge(r.size(), per_element, fixed);
  const int parts = PartitionCount(cfg, r.size());
  if (parts <= 1) {
    std::vector<Region> out;
    filter(rd, rd + r.size(), &out);
    kernels::FlushCounters(total);
    return RegionSet::FromSortedUnique(std::move(out));
  }
  const size_t np = static_cast<size_t>(parts);
  std::vector<std::vector<Region>> outs(np);
  PoolOf(cfg).ParallelFor(np, [&](size_t k) {
    if (cfg.ctx != nullptr && cfg.ctx->ShouldAbort()) return;
    filter(rd + k * r.size() / np, rd + (k + 1) * r.size() / np, &outs[k]);
  });
  kernels::FlushCounters(total);
  ops->Increment();
  return RegionSet::FromSortedUnique(Concatenate(&outs));
}

// Partitioned structural semi-join: runs one of the ContainmentIndex walks
// per chunk, charged like the sequential operators (obs/counters.h): one
// comparison and merge step per element of R and of S, one probe per
// element of R.
RegionSet PartitionedSemiJoin(obs::Counter* ops, const RegionSet& r,
                              size_t s_rows, const ContainmentIndex& index,
                              void (ContainmentIndex::*walk)(
                                  const Region*, const Region*,
                                  std::vector<Region>*) const,
                              const ParallelConfig& cfg) {
  const auto s = static_cast<int64_t>(s_rows);
  return PartitionedFilter(
      ops, r,
      [&](const Region* b, const Region* e, std::vector<Region>* out) {
        (index.*walk)(b, e, out);
      },
      obs::OpCounters{1, 1, 1}, obs::OpCounters{s, s, 0}, cfg);
}

bool BelowGate(const ParallelConfig& cfg, size_t rows) {
  return rows < cfg.min_rows;
}

}  // namespace

RegionSet ParallelUnion(const RegionSet& r, const RegionSet& s,
                        const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Union(r, s);
  if (DegradeKernel("union", cfg)) return Union(r, s);
  static obs::Counter* const ops = ParallelOpsCounter("union");
  // Union is symmetric; partition the longer operand for balance.
  const RegionSet& a = r.size() >= s.size() ? r : s;
  const RegionSet& b = r.size() >= s.size() ? s : r;
  return PartitionedMerge(ops, a, b, &kernels::UnionSpan, cfg);
}

RegionSet ParallelIntersect(const RegionSet& r, const RegionSet& s,
                            const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Intersect(r, s);
  if (DegradeKernel("intersect", cfg)) return Intersect(r, s);
  static obs::Counter* const ops = ParallelOpsCounter("intersect");
  const RegionSet& a = r.size() >= s.size() ? r : s;
  const RegionSet& b = r.size() >= s.size() ? s : r;
  return PartitionedMerge(ops, a, b, &kernels::IntersectSpan, cfg);
}

RegionSet ParallelDifference(const RegionSet& r, const RegionSet& s,
                             const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Difference(r, s);
  if (DegradeKernel("difference", cfg)) return Difference(r, s);
  static obs::Counter* const ops = ParallelOpsCounter("difference");
  return PartitionedMerge(ops, r, s, &kernels::DifferenceSpan, cfg);
}

RegionSet ParallelIncluding(const RegionSet& r, const RegionSet& s,
                            const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Including(r, s);
  if (DegradeKernel("including", cfg)) return Including(r, s);
  static obs::Counter* const ops = ParallelOpsCounter("including");
  const ContainmentIndex index(s, ContainmentIndex::kSuffixMin);
  return PartitionedSemiJoin(ops, r, s.size(), index,
                             &ContainmentIndex::WalkIncluding, cfg);
}

RegionSet ParallelIncluded(const RegionSet& r, const RegionSet& s,
                           const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Included(r, s);
  if (DegradeKernel("included", cfg)) return Included(r, s);
  static obs::Counter* const ops = ParallelOpsCounter("included");
  const ContainmentIndex index(s, ContainmentIndex::kPrefixMax);
  return PartitionedSemiJoin(ops, r, s.size(), index,
                             &ContainmentIndex::WalkIncluded, cfg);
}

RegionSet ParallelPrecedes(const RegionSet& r, const RegionSet& s,
                           const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Precedes(r, s);
  if (DegradeKernel("precedes", cfg)) return Precedes(r, s);
  if (s.empty()) {
    kernels::FlushCounters(
        obs::OpCounters{static_cast<int64_t>(r.size()),
                        static_cast<int64_t>(r.size()), 0});
    return RegionSet();
  }
  static obs::Counter* const ops = ParallelOpsCounter("precedes");
  const Offset max_left = s[s.size() - 1].left;
  return PartitionedFilter(
      ops, r,
      [max_left](const Region* b, const Region* e, std::vector<Region>* out) {
        kernels::FilterRightBefore(b, static_cast<size_t>(e - b), max_left,
                                   out);
      },
      obs::OpCounters{1, 1, 0}, obs::OpCounters{0, 1, 0}, cfg);
}

RegionSet ParallelFollows(const RegionSet& r, const RegionSet& s,
                          const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + s.size())) return Follows(r, s);
  if (DegradeKernel("follows", cfg)) return Follows(r, s);
  if (s.empty()) {
    kernels::FlushCounters(
        obs::OpCounters{static_cast<int64_t>(r.size()),
                        static_cast<int64_t>(r.size() + s.size()), 0});
    return RegionSet();
  }
  static obs::Counter* const ops = ParallelOpsCounter("follows");
  const Offset min_right = kernels::MinRightEndpoint(s.regions().data(), s.size());
  return PartitionedFilter(
      ops, r,
      [min_right](const Region* b, const Region* e, std::vector<Region>* out) {
        kernels::FilterLeftAfter(b, static_cast<size_t>(e - b), min_right, out);
      },
      obs::OpCounters{1, 1, 0},
      obs::OpCounters{0, static_cast<int64_t>(s.size()), 0}, cfg);
}

RegionSet ParallelSelectByTokens(const RegionSet& r,
                                 const std::vector<Token>& tokens,
                                 const ParallelConfig& cfg) {
  if (BelowGate(cfg, r.size() + tokens.size())) {
    return SelectByTokens(r, tokens);
  }
  if (DegradeKernel("select", cfg)) return SelectByTokens(r, tokens);
  static obs::Counter* const ops = ParallelOpsCounter("select");
  const ContainmentIndex index(tokens);
  return PartitionedSemiJoin(ops, r, tokens.size(), index,
                             &ContainmentIndex::WalkContaining, cfg);
}

}  // namespace exec
}  // namespace regal
