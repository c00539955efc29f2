#ifndef REGAL_OBS_COUNTERS_H_
#define REGAL_OBS_COUNTERS_H_

#include <cstdint>

namespace regal {
namespace obs {

/// Low-level work counters reported by the hot operator implementations
/// (core/algebra, core/extended, index/word_index). Semantics per field:
///
///  * `comparisons`  — region/region or token/pattern comparisons. Linear
///    merges count one per consumed element (a bulk-appended run of c
///    elements charges c, so the SIMD and scalar kernel tiers agree
///    exactly); gallop/binary-search phases charge the deterministic
///    worst-case depth of the probed range (⌈log2⌉-style, not the
///    data-dependent early-exit count), so the counter stays exact-shape
///    without instrumenting std::lower_bound and is identical across ISA
///    tiers; naive oracles count their inner-loop iterations, so the
///    quadratic/linear gap of E8 is directly visible in this counter.
///  * `merge_steps`  — input elements consumed by linear sweeps (set
///    operations, order and structural semi-joins, token merges).
///  * `index_probes` — point lookups against an index structure: one per
///    region of R tested by a structural semi-join and one per
///    suffix-array slot, vocabulary entry or hash lookup in the word index.
///
/// The structural semi-joins (⊃, ⊂, σ_p) are charged analytically: a walk
/// over R and S charges |R| + |S| comparisons, |R| + |S| merge steps and
/// |R| index probes (|S| is the token count for σ_p). The charge is the same
/// however the partitioned kernels chunk R, so sequential and parallel runs
/// report identical counters.
///
/// Collection is opt-in via a thread-local sink: operators tally into stack
/// locals (free — they live in registers) and flush once per call *only*
/// when a sink is installed. With no sink (the default) the cost is a single
/// thread-local load + branch per operator call, which is what keeps tracing
/// zero-cost when disabled (verified by bench_operators).
struct OpCounters {
  int64_t comparisons = 0;
  int64_t merge_steps = 0;
  int64_t index_probes = 0;

  void Add(const OpCounters& other) {
    comparisons += other.comparisons;
    merge_steps += other.merge_steps;
    index_probes += other.index_probes;
  }

  OpCounters Since(const OpCounters& earlier) const {
    return OpCounters{comparisons - earlier.comparisons,
                      merge_steps - earlier.merge_steps,
                      index_probes - earlier.index_probes};
  }

  int64_t Total() const { return comparisons + merge_steps + index_probes; }
};

/// The calling thread's counter sink, or nullptr when collection is off.
OpCounters* CountersSink();

/// Installs `sink` for the calling thread and returns the previous sink so
/// scopes can nest (the span Tracer installs itself this way).
OpCounters* SwapCountersSink(OpCounters* sink);

}  // namespace obs
}  // namespace regal

#endif  // REGAL_OBS_COUNTERS_H_
