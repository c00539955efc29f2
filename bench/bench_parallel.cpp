// Experiment: scaling of the exec/ parallel execution layer. Sweeps thread
// counts over the partitioned operator kernels and the parallel index
// builds; each configuration is compared against the sequential operators
// (threads = 1 uses a one-lane pool, which is exactly the sequential path).
// Interpret speedups against the "num_cpus" recorded in the JSON context —
// thread counts beyond the physical cores measure oversubscription, not
// scaling.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_report.h"
#include "core/algebra.h"
#include "doc/dictionary.h"
#include "doc/synthetic.h"
#include "exec/parallel_algebra.h"
#include "exec/thread_pool.h"
#include "index/word_index.h"
#include "text/text.h"
#include "util/random.h"

namespace regal {
namespace {

struct Inputs {
  RegionSet r;
  RegionSet s;
};

Inputs MakeInputs(int64_t n) {
  Rng rng(42);
  RandomInstanceOptions options;
  options.num_regions = static_cast<int>(2 * n);
  options.max_depth = 12;
  options.max_names = 2;
  Instance instance = RandomLaminarInstance(rng, options);
  return Inputs{**instance.Get("R0"), **instance.Get("R1")};
}

// One pool per thread count, reused across iterations (pool startup is not
// the quantity under test).
exec::ThreadPool& PoolFor(int threads) {
  static exec::ThreadPool* pools[] = {
      new exec::ThreadPool(1), new exec::ThreadPool(2),
      new exec::ThreadPool(4), new exec::ThreadPool(8)};
  switch (threads) {
    case 1: return *pools[0];
    case 2: return *pools[1];
    case 4: return *pools[2];
    default: return *pools[3];
  }
}

exec::ParallelConfig ConfigFor(int threads) {
  exec::ParallelConfig cfg;
  cfg.pool = &PoolFor(threads);
  cfg.min_rows = 0;  // Always take the partitioned path, even at size 2^8.
  return cfg;
}

void BM_ParallelIncluding(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0));
  exec::ParallelConfig cfg = ConfigFor(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::ParallelIncluding(in.r, in.s, cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.r.size() + in.s.size()));
}

void BM_ParallelUnion(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0));
  exec::ParallelConfig cfg = ConfigFor(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::ParallelUnion(in.r, in.s, cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.r.size() + in.s.size()));
}

void BM_ParallelDifference(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0));
  exec::ParallelConfig cfg = ConfigFor(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::ParallelDifference(in.r, in.s, cfg));
  }
}

void BM_ParallelPrecedes(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0));
  exec::ParallelConfig cfg = ConfigFor(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::ParallelPrecedes(in.r, in.s, cfg));
  }
}

// Sequential baselines at the same sizes, for the speedup denominator.
void BM_SequentialIncluding(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Including(in.r, in.s));
  }
}

void BM_SequentialUnion(benchmark::State& state) {
  Inputs in = MakeInputs(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Union(in.r, in.s));
  }
}

std::string IndexSource(int entries) {
  DictionaryGeneratorOptions options;
  options.entries = entries;
  return GenerateDictionarySource(options);
}

void BM_IndexBuild(benchmark::State& state) {
  Text text(IndexSource(static_cast<int>(state.range(0))));
  exec::ThreadPool& pool = PoolFor(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    SuffixArrayWordIndex index(&text, &pool);
    benchmark::DoNotOptimize(index.NumTokens());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.content().size()));
}

void BM_IndexBuildSequential(benchmark::State& state) {
  Text text(IndexSource(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    SuffixArrayWordIndex index(&text, /*pool=*/nullptr);
    benchmark::DoNotOptimize(index.NumTokens());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.content().size()));
}

const std::vector<int64_t> kSizes = {1 << 14, 1 << 16, 1 << 18};
const std::vector<int64_t> kThreads = {1, 2, 4, 8};

BENCHMARK(BM_ParallelIncluding)->ArgsProduct({kSizes, kThreads});
BENCHMARK(BM_ParallelUnion)->ArgsProduct({kSizes, kThreads});
BENCHMARK(BM_ParallelDifference)->ArgsProduct({kSizes, kThreads});
BENCHMARK(BM_ParallelPrecedes)->ArgsProduct({kSizes, kThreads});
BENCHMARK(BM_SequentialIncluding)->Arg(1 << 18);
BENCHMARK(BM_SequentialUnion)->Arg(1 << 18);
BENCHMARK(BM_IndexBuild)->ArgsProduct({{256, 1024}, kThreads});
BENCHMARK(BM_IndexBuildSequential)->Arg(1024);

}  // namespace
}  // namespace regal

int main(int argc, char** argv) {
  return regal::RunBenchmarksWithJson(argc, argv, "BENCH_parallel.json");
}
