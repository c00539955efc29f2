// Dispatching facade over the per-ISA kernel variants in core/simd. The
// merge/search loop bodies that used to live here moved to
// core/simd/kernels_body.inc, where one shared source is compiled per
// instruction set; these wrappers resolve the active table once and forward.
// Each dispatch bumps regal_exec_kernel_dispatch_total{isa=...} so operators
// can be attributed to the tier that actually ran them.

#include "core/algebra_kernels.h"

#include "core/simd/simd_kernels.h"
#include "obs/metrics.h"

namespace regal {
namespace kernels {

namespace {

// The active table and its dispatch counter never change after startup;
// resolve both once so the per-call cost is a load and a relaxed fetch_add.
const simd::KernelTable& Active() {
  static const simd::KernelTable& table = simd::ActiveKernels();
  return table;
}

obs::Counter* DispatchCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "regal_exec_kernel_dispatch_total", {{"isa", Active().name}});
  return counter;
}

}  // namespace

const Region* GallopLowerBound(const Region* first, const Region* last,
                               const Region& v, int64_t* comparisons) {
  DispatchCounter()->Increment();
  return Active().gallop_lower_bound(first, last, v, comparisons);
}

void UnionSpan(const Region* rb, const Region* re, const Region* sb,
               const Region* se, std::vector<Region>* out,
               obs::OpCounters* counters) {
  DispatchCounter()->Increment();
  Active().union_span(rb, re, sb, se, out, counters);
}

void IntersectSpan(const Region* rb, const Region* re, const Region* sb,
                   const Region* se, std::vector<Region>* out,
                   obs::OpCounters* counters) {
  DispatchCounter()->Increment();
  Active().intersect_span(rb, re, sb, se, out, counters);
}

void DifferenceSpan(const Region* rb, const Region* re, const Region* sb,
                    const Region* se, std::vector<Region>* out,
                    obs::OpCounters* counters) {
  DispatchCounter()->Increment();
  Active().difference_span(rb, re, sb, se, out, counters);
}

void FilterRightBefore(const Region* b, size_t n, Offset bound,
                       std::vector<Region>* out) {
  DispatchCounter()->Increment();
  Active().filter_right_before(b, n, bound, out);
}

void FilterLeftAfter(const Region* b, size_t n, Offset bound,
                     std::vector<Region>* out) {
  DispatchCounter()->Increment();
  Active().filter_left_after(b, n, bound, out);
}

Offset MinRightEndpoint(const Region* b, size_t n) {
  DispatchCounter()->Increment();
  return Active().min_right(b, n);
}

void FlushCounters(const obs::OpCounters& counters) {
  if (obs::OpCounters* sink = obs::CountersSink()) sink->Add(counters);
}

}  // namespace kernels
}  // namespace regal
