// Experiment E9: the PAT substrate [Gon87, Ope93]. Suffix-array
// construction and pattern search throughput over synthetic corpora, plus
// the σ_p word-index path: its build over two adversarial corpora and its
// exact and prefix lookups. Establishes that the selection operator runs
// against a real index.

#include <benchmark/benchmark.h>

#include "doc/sgml.h"
#include "index/suffix_array.h"
#include "index/word_index.h"
#include "util/random.h"

namespace regal {
namespace {

std::string MakeCorpus(int64_t target_bytes) {
  PlayGeneratorOptions options;
  options.acts = 1;
  options.scenes_per_act = 1;
  options.speeches_per_scene = static_cast<int>(target_bytes / 400 + 1);
  options.lines_per_speech = 3;
  options.vocabulary = 200;
  return GeneratePlaySource(options);
}

void BM_SuffixArrayBuild(benchmark::State& state) {
  std::string corpus = MakeCorpus(state.range(0));
  for (auto _ : state) {
    SuffixArray sa(corpus);
    benchmark::DoNotOptimize(sa.sa().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size()));
}

void BM_SuffixArraySearch(benchmark::State& state) {
  std::string corpus = MakeCorpus(state.range(0));
  SuffixArray sa(corpus);
  Rng rng(1);
  for (auto _ : state) {
    std::string needle = "word" + std::to_string(rng.Below(200));
    benchmark::DoNotOptimize(sa.EqualRange(needle));
  }
}

// 1,500-byte runs of one letter: few distinct spellings, each one long.
std::string RunsCorpus(size_t target_bytes) {
  std::string out;
  while (out.size() < target_bytes) out += std::string(1500, 'x') + ' ';
  return out;
}

// Distinct words only: the vocabulary is as large as the text allows.
std::string DistinctWordsCorpus(size_t target_bytes) {
  std::string out;
  for (int i = 0; out.size() < target_bytes; ++i) {
    out += "w" + std::to_string(i) + ' ';
  }
  return out;
}

// Sequential builds over the two corpora. Long runs of one byte are the
// worst case for suffix sorting (ties survive many doubling rounds), and a
// large vocabulary is the worst case for interning; neither may dominate.
void BM_WordIndexBuildRuns(benchmark::State& state) {
  Text text(RunsCorpus(452000));
  for (auto _ : state) {
    SuffixArrayWordIndex index(&text, /*pool=*/nullptr);
    benchmark::DoNotOptimize(index.NumTokens());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.content().size()));
}

void BM_WordIndexBuildWords(benchmark::State& state) {
  Text text(DistinctWordsCorpus(306000));
  for (auto _ : state) {
    SuffixArrayWordIndex index(&text, /*pool=*/nullptr);
    benchmark::DoNotOptimize(index.NumTokens());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.content().size()));
}

void BM_WordIndexExact(benchmark::State& state) {
  Text text(MakeCorpus(state.range(0)));
  SuffixArrayWordIndex index(&text);
  Pattern p = *Pattern::Parse("word42");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Matches(p));
  }
}

void BM_WordIndexPrefix(benchmark::State& state) {
  Text text(MakeCorpus(state.range(0)));
  SuffixArrayWordIndex index(&text);
  Pattern p = *Pattern::Parse("word1*");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Matches(p));
  }
}

BENCHMARK(BM_SuffixArrayBuild)->Range(1 << 12, 1 << 20);
BENCHMARK(BM_SuffixArraySearch)->Range(1 << 12, 1 << 20);
BENCHMARK(BM_WordIndexBuildRuns)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WordIndexBuildWords)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WordIndexExact)->Range(1 << 12, 1 << 18);
BENCHMARK(BM_WordIndexPrefix)->Range(1 << 12, 1 << 18);

}  // namespace
}  // namespace regal

BENCHMARK_MAIN();
