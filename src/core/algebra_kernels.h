#ifndef REGAL_CORE_ALGEBRA_KERNELS_H_
#define REGAL_CORE_ALGEBRA_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/region.h"
#include "obs/counters.h"

namespace regal {
namespace kernels {

/// Span-level merge kernels behind the set operators. The sequential
/// operators in core/algebra.cc run them over the full operands; the
/// partitioned parallel kernels in exec/parallel_algebra.cc run them per
/// contiguous chunk. Sharing the loop bodies is what makes the parallel
/// results bit-identical to the sequential ones by construction.
///
/// Inputs are document-ordered, duplicate-free ranges; output is appended to
/// `out` in document order. Work is tallied into `counters` (never into the
/// thread-local obs sink — chunks run on pool workers, and the coordinating
/// thread flushes the summed counters once via FlushCounters).
///
/// When one side is at least kGallopRatio times longer than the other, the
/// merges switch to galloping (exponential search + bulk append) so skewed
/// set operations cost O(small * log(large)) instead of O(small + large).
inline constexpr ptrdiff_t kGallopRatio = 16;

/// Every function below dispatches once per call to the active SIMD kernel
/// set (core/simd), selected from the CPU's capabilities and the REGAL_SIMD
/// environment override. All variants are bit-identical in output and exact
/// in counters, so callers — sequential and partitioned alike — see the same
/// results on every tier; only throughput differs.

void UnionSpan(const Region* rb, const Region* re, const Region* sb,
               const Region* se, std::vector<Region>* out,
               obs::OpCounters* counters);

void IntersectSpan(const Region* rb, const Region* re, const Region* sb,
                   const Region* se, std::vector<Region>* out,
                   obs::OpCounters* counters);

/// R - S restricted to the given spans.
void DifferenceSpan(const Region* rb, const Region* re, const Region* sb,
                    const Region* se, std::vector<Region>* out,
                    obs::OpCounters* counters);

/// Smallest position in [first, last) not ordered before `v` (lower bound by
/// document order), found by exponential search from `first`. The exponential
/// probes charge one comparison each; the binary phase then charges the
/// deterministic ceil(log2(window)) for the window it narrowed to, so the
/// charge is a pure function of the inputs and identical across ISA tiers.
const Region* GallopLowerBound(const Region* first, const Region* last,
                               const Region& v, int64_t* comparisons);

/// Order-preserving endpoint filters behind the ordering joins: append to
/// `out` every x in [b, b+n) with x.right < bound (FilterRightBefore), resp.
/// x.left > bound (FilterLeftAfter). No counter tallying — the join
/// operators charge analytically per element scanned.
void FilterRightBefore(const Region* b, size_t n, Offset bound,
                       std::vector<Region>* out);
void FilterLeftAfter(const Region* b, size_t n, Offset bound,
                     std::vector<Region>* out);

/// Minimum right endpoint over [b, b+n); n must be > 0.
Offset MinRightEndpoint(const Region* b, size_t n);

/// Adds `counters` to the calling thread's obs sink, if one is installed —
/// the flush half of the tally-locally/flush-once discipline of
/// core/algebra.cc, exposed here so the parallel kernels follow it too.
void FlushCounters(const obs::OpCounters& counters);

}  // namespace kernels
}  // namespace regal

#endif  // REGAL_CORE_ALGEBRA_KERNELS_H_
