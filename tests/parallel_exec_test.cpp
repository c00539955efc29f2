// Differential suite for the exec/ parallel execution layer: every parallel
// kernel, index build and evaluator mode must be *bit-identical* to its
// sequential counterpart, for every thread count, on random and adversarial
// inputs. Built as its own ctest binary with label `parallel` so a TSAN
// configuration (-DREGAL_SANITIZE=thread) can run exactly this suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/algebra.h"
#include "core/eval.h"
#include "core/extended.h"
#include "doc/dictionary.h"
#include "doc/synthetic.h"
#include "exec/parallel_algebra.h"
#include "exec/parallel_text.h"
#include "exec/thread_pool.h"
#include "index/word_index.h"
#include "obs/counters.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "text/text.h"
#include "util/random.h"

namespace regal {
namespace {

using exec::ParallelConfig;
using exec::ThreadPool;

const int kThreadCounts[] = {1, 2, 4, 8};

// ---------------------------------------------------------------------------
// Thread pool.

TEST(ThreadPoolTest, ParseThreads) {
  EXPECT_EQ(ThreadPool::ParseThreads(nullptr, 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("abc", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("4abc", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("0", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("-2", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("513", 3), 3);
  EXPECT_EQ(ThreadPool::ParseThreads("1", 3), 1);
  EXPECT_EQ(ThreadPool::ParseThreads("8", 3), 8);
  EXPECT_EQ(ThreadPool::ParseThreads("512", 3), 512);
}

TEST(ThreadPoolTest, NumThreadsCountsCallerLane) {
  for (int n : kThreadCounts) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int n : kThreadCounts) {
    ThreadPool pool(n);
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(count);
      pool.ParallelFor(count, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  for (int n : kThreadCounts) {
    ThreadPool pool(n);
    std::atomic<int> total{0};
    pool.ParallelFor(8, [&](size_t) {
      pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
  }
}

// ---------------------------------------------------------------------------
// Operator kernels: parallel == sequential, bit for bit.

RegionSet RandomSet(Rng& rng, size_t n, Offset span) {
  std::vector<Region> regions;
  regions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Offset left = static_cast<Offset>(rng.Below(static_cast<uint64_t>(span)));
    Offset len = static_cast<Offset>(rng.Below(64));
    regions.push_back(Region{left, left + len});
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

// Fully nested chain [i, 2n-i]: every region includes all later ones — the
// worst case for containment windows.
RegionSet NestedChain(int n) {
  std::vector<Region> regions;
  for (int i = 0; i < n; ++i) {
    regions.push_back(Region{i, 2 * n - i});
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

// All regions share one left endpoint (ties broken by right DESC in document
// order), stressing the partition boundary search on equal keys.
RegionSet EqualLefts(int n) {
  std::vector<Region> regions;
  for (int i = 0; i < n; ++i) {
    regions.push_back(Region{100, 101 + i});
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

void ExpectAllOperatorsMatch(const RegionSet& r, const RegionSet& s,
                             const ParallelConfig& cfg, const char* what) {
  EXPECT_EQ(exec::ParallelUnion(r, s, cfg), Union(r, s)) << what;
  EXPECT_EQ(exec::ParallelIntersect(r, s, cfg), Intersect(r, s)) << what;
  EXPECT_EQ(exec::ParallelDifference(r, s, cfg), Difference(r, s)) << what;
  EXPECT_EQ(exec::ParallelIncluding(r, s, cfg), Including(r, s)) << what;
  EXPECT_EQ(exec::ParallelIncluded(r, s, cfg), Included(r, s)) << what;
  EXPECT_EQ(exec::ParallelPrecedes(r, s, cfg), Precedes(r, s)) << what;
  EXPECT_EQ(exec::ParallelFollows(r, s, cfg), Follows(r, s)) << what;
}

class ParallelKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelKernelTest, MatchesSequentialOnRandomSets) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(7 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    RegionSet r = RandomSet(rng, 1 + rng.Below(4000), 5000);
    RegionSet s = RandomSet(rng, 1 + rng.Below(4000), 5000);
    ExpectAllOperatorsMatch(r, s, cfg, "random");
  }
}

TEST_P(ParallelKernelTest, MatchesSequentialOnAdversarialSets) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(11);
  RegionSet empty;
  RegionSet random = RandomSet(rng, 3000, 4000);
  RegionSet nested = NestedChain(3000);
  RegionSet equal_lefts = EqualLefts(3000);
  RegionSet tiny = RandomSet(rng, 3, 4000);  // Skew: gallop-heavy merges.
  const RegionSet* sets[] = {&empty, &random, &nested, &equal_lefts, &tiny};
  for (const RegionSet* r : sets) {
    for (const RegionSet* s : sets) {
      ExpectAllOperatorsMatch(*r, *s, cfg, "adversarial");
    }
  }
}

TEST_P(ParallelKernelTest, MatchesSequentialOnLaminarInstances) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(23 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 10; ++trial) {
    RandomInstanceOptions options;
    options.num_regions = 400;
    options.max_names = 2;
    Instance instance = RandomLaminarInstance(rng, options);
    auto r = instance.Get("R0");
    auto s = instance.Get("R1");
    ASSERT_TRUE(r.ok() && s.ok());
    ExpectAllOperatorsMatch(**r, **s, cfg, "laminar");
  }
}

TEST_P(ParallelKernelTest, SelectByTokensMatchesSequential) {
  ThreadPool pool(GetParam());
  ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    RegionSet r = RandomSet(rng, 2000, 5000);
    std::vector<Token> tokens;
    size_t n = rng.Below(500);
    for (size_t i = 0; i < n; ++i) {
      Offset left = static_cast<Offset>(rng.Below(5000));
      tokens.push_back(Token{left, left + static_cast<Offset>(rng.Below(8))});
    }
    std::sort(tokens.begin(), tokens.end(), [](const Token& a, const Token& b) {
      return a.left != b.left ? a.left < b.left : a.right < b.right;
    });
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    EXPECT_EQ(exec::ParallelSelectByTokens(r, tokens, cfg),
              SelectByTokens(r, tokens));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelKernelTest,
                         ::testing::ValuesIn(kThreadCounts));

// ---------------------------------------------------------------------------
// The structural semi-joins' forward walk (core/algebra.cc ContainmentIndex)
// against the naive oracles on arbitrary, non-laminar sets: every case runs
// sequentially and partitioned on a 4-lane pool with min_rows forced to 0,
// and the two must agree bit for bit, with identical analytic counters.

constexpr Offset kMaxOffset = std::numeric_limits<Offset>::max();

// Arbitrary regions in runs of up to `run` equal left endpoints with
// different rights, mixed with one-point regions and regions ending at the
// Offset maximum. Lefts are drawn from [base, base + span).
RegionSet WalkStressSet(Rng& rng, size_t n, Offset base, Offset span,
                        size_t run) {
  std::vector<Region> regions;
  while (regions.size() < n) {
    const Offset left =
        base + static_cast<Offset>(rng.Below(static_cast<uint64_t>(span)));
    const size_t len = 1 + rng.Below(run);
    for (size_t i = 0; i < len; ++i) {
      const int64_t right = left + static_cast<int64_t>(rng.Below(40));
      switch (rng.Below(8)) {
        case 0:
          regions.push_back(Region{left, left});
          break;
        case 1:
          regions.push_back(Region{left, kMaxOffset});
          break;
        default:
          regions.push_back(Region{
              left, static_cast<Offset>(std::min<int64_t>(right, kMaxOffset))});
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(regions));
}

// S's regions as a token list, in S's (left-ascending) order.
std::vector<Token> AsTokens(const RegionSet& s) {
  std::vector<Token> tokens;
  for (const Region& x : s) tokens.push_back(Token{x.left, x.right});
  return tokens;
}

// Runs `op` under a fresh counter sink and returns its result and counters.
template <typename Op>
std::pair<RegionSet, obs::OpCounters> Counted(Op op) {
  obs::OpCounters counters;
  obs::OpCounters* previous = obs::SwapCountersSink(&counters);
  RegionSet out = op();
  obs::SwapCountersSink(previous);
  return {std::move(out), counters};
}

void ExpectCountersEqual(const obs::OpCounters& want,
                         const obs::OpCounters& got, const std::string& what) {
  EXPECT_EQ(want.comparisons, got.comparisons) << what;
  EXPECT_EQ(want.merge_steps, got.merge_steps) << what;
  EXPECT_EQ(want.index_probes, got.index_probes) << what;
}

// One semi-join, three ways: the naive oracle, the sequential walk and the
// partitioned walk. The walks must equal the oracle, and each other in
// output and counters; both charge |R| + |S| comparisons and merge steps
// and |R| probes, however R is chunked.
template <typename Naive, typename Seq, typename Par>
void ExpectSemiJoin(const std::string& what, size_t r_rows, size_t s_rows,
                    Naive naive_op, Seq seq_op, Par par_op) {
  const RegionSet want = naive_op();
  const auto [seq, seq_c] = Counted(seq_op);
  const auto [par, par_c] = Counted(par_op);
  EXPECT_EQ(want, seq) << what << " sequential";
  EXPECT_EQ(seq.regions(), par.regions()) << what << " partitioned";
  const auto both = static_cast<int64_t>(r_rows + s_rows);
  ExpectCountersEqual(obs::OpCounters{both, both, static_cast<int64_t>(r_rows)},
                      seq_c, what + " sequential counters");
  ExpectCountersEqual(seq_c, par_c, what + " partitioned counters");
}

void ExpectWalksMatchNaive(const RegionSet& r, const RegionSet& s,
                           const std::string& what) {
  ThreadPool pool(4);
  const ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
  const std::vector<Token> tokens = AsTokens(s);
  ExpectSemiJoin(
      what + " including", r.size(), s.size(),
      [&] { return naive::Including(r, s); }, [&] { return Including(r, s); },
      [&] { return exec::ParallelIncluding(r, s, cfg); });
  ExpectSemiJoin(
      what + " included", r.size(), s.size(),
      [&] { return naive::Included(r, s); }, [&] { return Included(r, s); },
      [&] { return exec::ParallelIncluded(r, s, cfg); });
  ExpectSemiJoin(
      what + " select", r.size(), tokens.size(),
      [&] { return naive::SelectByTokens(r, tokens); },
      [&] { return SelectByTokens(r, tokens); },
      [&] { return exec::ParallelSelectByTokens(r, tokens, cfg); });
}

void ExpectBothIncludedMatchesNaive(const RegionSet& r, const RegionSet& s,
                                    const RegionSet& t,
                                    const std::string& what) {
  EXPECT_EQ(BothIncluded(r, s, t), naive::BothIncluded(r, s, t)) << what;
  EXPECT_EQ(BothIncluded(r, t, s), naive::BothIncluded(r, t, s)) << what;
}

TEST(SemiJoinWalkTest, ChunkCutsInsideRunsOfEqualLefts) {
  Rng rng(2024);
  for (int round = 0; round < 3; ++round) {
    // 8192+ rows give the 4-lane pool four chunks (2048 rows minimum each).
    const RegionSet r = WalkStressSet(rng, 12000, 0, 1500, 24);
    const RegionSet s = WalkStressSet(rng, 400, 0, 1500, 6);
    ASSERT_GE(r.size(), 8192u);
    // At least one chunk cut splits a run of equal left endpoints.
    bool cut_inside_run = false;
    for (size_t k = 1; k < 4; ++k) {
      const size_t cut = k * r.size() / 4;
      cut_inside_run |= r[cut - 1].left == r[cut].left;
    }
    EXPECT_TRUE(cut_inside_run);
    ExpectWalksMatchNaive(r, s, "runs");
    // S and R swapped: the large operand is now the indexed one.
    ExpectWalksMatchNaive(s, r, "runs swapped");
  }
}

TEST(SemiJoinWalkTest, ArbitrarySetsIncludingRIsS) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const RegionSet r = WalkStressSet(rng, 1 + rng.Below(120), 0, 60, 5);
    const RegionSet s = WalkStressSet(rng, 1 + rng.Below(120), 0, 60, 5);
    const RegionSet t = WalkStressSet(rng, 1 + rng.Below(60), 0, 60, 3);
    ExpectWalksMatchNaive(r, s, "random");
    ExpectWalksMatchNaive(r, r, "R == S");
    ExpectBothIncludedMatchesNaive(r, s, t, "random");
    ExpectBothIncludedMatchesNaive(r, r, r, "R == S == T");
  }
}

TEST(SemiJoinWalkTest, OnePointRegions) {
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    std::vector<Region> points;
    for (int i = 0; i < 50; ++i) {
      const auto x = static_cast<Offset>(rng.Below(40));
      points.push_back(Region{x, x});
    }
    const RegionSet p = RegionSet::FromUnsorted(std::move(points));
    const RegionSet mixed = WalkStressSet(rng, 80, 0, 40, 4);
    ExpectWalksMatchNaive(p, p, "points vs points");
    ExpectWalksMatchNaive(p, mixed, "points vs mixed");
    ExpectWalksMatchNaive(mixed, p, "mixed vs points");
    ExpectBothIncludedMatchesNaive(mixed, p, p, "points");
  }
}

TEST(SemiJoinWalkTest, RegionsEndingAtTheOffsetMaximum) {
  Rng rng(13);
  for (int round = 0; round < 10; ++round) {
    // Lefts in the last 100 offsets, so most rights clamp to the maximum.
    const RegionSet r = WalkStressSet(rng, 150, kMaxOffset - 100, 100, 4);
    const RegionSet s = WalkStressSet(rng, 150, kMaxOffset - 100, 100, 4);
    const RegionSet top{Region{0, kMaxOffset}, Region{kMaxOffset, kMaxOffset}};
    ExpectWalksMatchNaive(r, s, "top");
    ExpectWalksMatchNaive(top, r, "whole range vs top");
    ExpectWalksMatchNaive(r, top, "top vs whole range");
    ExpectWalksMatchNaive(top, top, "whole range");
    ExpectBothIncludedMatchesNaive(top, r, s, "top");
  }
}

TEST(SemiJoinWalkTest, EmptyOperands) {
  Rng rng(17);
  const RegionSet some = WalkStressSet(rng, 100, 0, 50, 4);
  const RegionSet none;
  ExpectWalksMatchNaive(some, none, "empty S");
  ExpectWalksMatchNaive(none, some, "empty R");
  ExpectWalksMatchNaive(none, none, "both empty");
  ExpectBothIncludedMatchesNaive(some, none, some, "empty S or T");
  ExpectBothIncludedMatchesNaive(none, some, some, "empty R");
}

TEST(SemiJoinWalkTest, PartitionedCallsAreCountedAndLanesReturnToZero) {
  obs::Counter* ops = obs::Registry::Default().GetCounter(
      "regal_exec_parallel_ops_total", {{"op", "including"}});
  obs::Gauge* lanes =
      obs::Registry::Default().GetGauge("regal_exec_active_lanes");
  Rng rng(19);
  const RegionSet r = RandomSet(rng, 16384, 1 << 16);
  const RegionSet s = RandomSet(rng, 4096, 1 << 16);
  const int64_t before = ops->value();
  constexpr int kCalls = 5;
  {
    ThreadPool pool(4);
    const ParallelConfig cfg{&pool, /*min_rows=*/0, /*max_partitions=*/0};
    for (int i = 0; i < kCalls; ++i) {
      EXPECT_EQ(exec::ParallelIncluding(r, s, cfg), Including(r, s));
    }
  }  // The pool's destructor runs every queued helper job before returning.
  EXPECT_EQ(ops->value() - before, kCalls);
  EXPECT_EQ(lanes->value(), 0);
}

// ---------------------------------------------------------------------------
// Index builds: identical structures for every thread count.

class ParallelIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelIndexTest, SuffixArrayWordIndexIsThreadCountInvariant) {
  DictionaryGeneratorOptions options;
  options.entries = 24;
  Text text(GenerateDictionarySource(options));
  SuffixArrayWordIndex sequential(&text, /*pool=*/nullptr);
  ThreadPool pool(GetParam());
  SuffixArrayWordIndex parallel(&text, &pool);
  // The vocabulary (ids in order of first occurrence) and its suffix array.
  EXPECT_EQ(parallel.suffix_array().text(), sequential.suffix_array().text());
  EXPECT_EQ(parallel.suffix_array().sa(), sequential.suffix_array().sa());
  EXPECT_EQ(parallel.VocabularySize(), sequential.VocabularySize());
  EXPECT_EQ(parallel.NumTokens(), sequential.NumTokens());
  for (const char* body : {"term1*", "sense", "TERM2", "?erm3?", "*ens*"}) {
    for (bool ci : {false, true}) {
      Pattern p = *Pattern::Parse(body, ci);
      EXPECT_EQ(parallel.Matches(p), sequential.Matches(p)) << body;
    }
  }
}

TEST_P(ParallelIndexTest, LongRunsCorpusGivesCorrectAnswers) {
  // 452 KB of 1,500-byte runs of one letter, the suffix sort's worst case.
  // Only the answers are checked here; bench_index times the build.
  std::string source;
  while (source.size() < 452000) {
    source += std::string(1500, 'x') + (source.size() % 3 == 0 ? " " : "\n");
  }
  source += "xx x";
  Text text(source);
  ThreadPool pool(GetParam());
  SuffixArrayWordIndex index(&text, &pool);
  const std::vector<Token> tokens = Tokenize(source);
  EXPECT_EQ(index.NumTokens(), static_cast<int64_t>(tokens.size()));
  EXPECT_EQ(index.VocabularySize(), 3);
  for (const char* body : {"xx", "x", "x*", "*xx", "?x*", "*xxx*"}) {
    Pattern p = *Pattern::Parse(body);
    std::vector<Token> want;
    for (const Token& t : tokens) {
      if (p.MatchesToken(TokenText(source, t))) want.push_back(t);
    }
    EXPECT_EQ(index.Matches(p), want) << body;
  }
}

TEST_P(ParallelIndexTest, ParallelTokenizeIsThreadCountInvariant) {
  DictionaryGeneratorOptions options;
  options.entries = 24;
  std::string source = GenerateDictionarySource(options);
  ThreadPool pool(GetParam());
  EXPECT_EQ(exec::ParallelTokenize(source, &pool, /*min_bytes=*/64),
            exec::ParallelTokenize(source, nullptr));
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelIndexTest,
                         ::testing::ValuesIn(kThreadCounts));

// ---------------------------------------------------------------------------
// Evaluator and engine: parallel answers and stats match sequential ones.

class ParallelEvalTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEvalTest, EvaluatorMatchesSequentialOnRandomDags) {
  ThreadPool pool(GetParam());
  ParallelEvalPolicy policy;
  policy.pool = &pool;
  policy.min_rows = 0;
  Rng rng(41 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 15; ++trial) {
    RandomInstanceOptions options;
    options.num_regions = 120;
    Instance instance = RandomLaminarInstance(rng, options);
    // A DAG with a shared subtree: (R0 | R1) appears under both operands.
    ExprPtr shared =
        Expr::Binary(OpKind::kUnion, Expr::Name("R0"), Expr::Name("R1"));
    ExprPtr left = Expr::Binary(OpKind::kIncluding, shared, Expr::Name("R2"));
    ExprPtr right = Expr::Binary(OpKind::kIncluded, Expr::Name("R2"), shared);
    ExprPtr e = Expr::Binary(OpKind::kDifference, left, right);

    Evaluator sequential(&instance);
    auto expected = sequential.Evaluate(e);
    ASSERT_TRUE(expected.ok());

    EvalOptions parallel_options;
    parallel_options.parallel = &policy;
    Evaluator parallel(&instance, parallel_options);
    auto actual = parallel.Evaluate(e);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(*actual, *expected);
    // Memoization runs every node exactly once in both modes, so the stats
    // are deterministic and identical.
    EXPECT_EQ(parallel.stats().operator_evals,
              sequential.stats().operator_evals);
    EXPECT_EQ(parallel.stats().rows_scanned, sequential.stats().rows_scanned);
    EXPECT_EQ(parallel.stats().rows_produced,
              sequential.stats().rows_produced);
  }
}

TEST_P(ParallelEvalTest, EngineAnswersMatchWithParallelForcedOnAndOff) {
  DictionaryGeneratorOptions options;
  options.entries = 30;
  auto engine = QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
  ASSERT_TRUE(engine.ok());
  // The sequential/parallel comparison needs both runs to actually execute;
  // the result cache would answer the second run without evaluating.
  engine->set_result_cache_enabled(false);
  ThreadPool pool(GetParam());

  const char* queries[] = {
      "sense within entry within dictionary",
      "(quote within sense) | (def within sense)",
      "entry including (headword matching \"term*\")",
  };
  for (const char* query : queries) {
    engine->set_parallel_enabled(false);
    auto sequential = engine->Run(query);
    ASSERT_TRUE(sequential.ok()) << query;

    engine->set_parallel_enabled(true);
    engine->set_parallel_cost_threshold(0);  // Force the parallel path.
    engine->mutable_parallel_policy()->pool = &pool;
    engine->mutable_parallel_policy()->min_rows = 0;
    auto parallel = engine->Run(query);
    ASSERT_TRUE(parallel.ok()) << query;

    EXPECT_EQ(parallel->regions, sequential->regions) << query;
    EXPECT_EQ(parallel->eval_stats.operator_evals,
              sequential->eval_stats.operator_evals)
        << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelEvalTest,
                         ::testing::ValuesIn(kThreadCounts));

TEST(ParallelEvalTest, ExplainAnalyzeStillWorksOnTheParallelPath) {
  // Large enough that the operator splits into several chunks.
  DictionaryGeneratorOptions options;
  options.entries = 2000;
  auto engine = QueryEngine::FromSgmlSource(GenerateDictionarySource(options));
  ASSERT_TRUE(engine.ok());
  ThreadPool pool(4);
  engine->set_parallel_cost_threshold(0);
  engine->mutable_parallel_policy()->pool = &pool;
  engine->mutable_parallel_policy()->min_rows = 0;
  // The traced run must still dispatch its operator to the partitioned
  // kernels: every chunk the pool executes is counted.
  obs::Counter* pool_tasks =
      obs::Registry::Default().GetCounter("regal_exec_tasks_total");
  const int64_t tasks_before = pool_tasks->value();
  auto answer = engine->Run("explain analyze sense within entry");
  ASSERT_TRUE(answer.ok());
  EXPECT_GT(pool_tasks->value(), tasks_before);
  ASSERT_TRUE(answer->profile.has_value());
  EXPECT_TRUE(answer->profile->analyzed);
  EXPECT_FALSE(answer->profile->degraded);
  EXPECT_EQ(answer->profile->plan.rows_out,
            static_cast<int64_t>(answer->regions.size()));
  ASSERT_EQ(answer->profile->plan.children.size(), 2u);
  EXPECT_GT(answer->profile->counters.Total(), 0);
}

// ---------------------------------------------------------------------------
// Lock-free telemetry primitives. These hammers live in the parallel suite
// so the TSAN configuration (-DREGAL_SANITIZE=thread) validates the relaxed
// atomics in obs/metrics.h and the flight-recorder ring.

TEST(ObsHammerTest, HistogramObserveIsExactUnderConcurrency) {
  obs::Registry registry;
  obs::Histogram* h = registry.GetHistogram(
      "hammer_ms", {}, std::vector<double>{1.0, 8.0, 64.0});
  obs::Gauge* inflight = registry.GetGauge("hammer_inflight");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Observe((t * kPerThread + i) % 100);
        inflight->Add(1);
        inflight->Add(-1);
      }
    });
  }
  // Concurrent scrapes while writers hammer: each snapshot must be
  // internally sane (cumulative buckets monotone, count within range) even
  // though it may interleave with in-flight observations.
  for (int scrape = 0; scrape < 50; ++scrape) {
    std::vector<int64_t> cumulative = h->CumulativeBucketCounts();
    ASSERT_EQ(cumulative.size(), 4u);
    for (size_t i = 1; i < cumulative.size(); ++i) {
      EXPECT_LE(cumulative[i - 1], cumulative[i]);
    }
    EXPECT_LE(h->count(), int64_t{kThreads} * kPerThread);
  }
  for (std::thread& t : threads) t.join();

  // Quiesced totals are exact: every fetch_add landed, the CAS-loop double
  // sum lost no update (integer values stay exactly representable).
  EXPECT_EQ(h->count(), int64_t{kThreads} * kPerThread);
  // Sum of k % 100 over k = 0..159999: 1600 full cycles of 0+..+99.
  EXPECT_DOUBLE_EQ(h->sum(), 1600.0 * 4950.0);
  std::vector<int64_t> cumulative = h->CumulativeBucketCounts();
  ASSERT_EQ(cumulative.size(), 4u);
  EXPECT_EQ(cumulative[0], 1600 * 2);    // values 0, 1
  EXPECT_EQ(cumulative[1], 1600 * 9);    // values 0..8
  EXPECT_EQ(cumulative[2], 1600 * 65);   // values 0..64
  EXPECT_EQ(cumulative[3], int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(inflight->value(), 0.0);
}

TEST(ObsHammerTest, FlightRecorderConcurrentRecordScrapeAndRetune) {
  // Every record is "slow" (threshold 0), so route the slow-query log to a
  // capture sink instead of spamming stderr for 8000 records.
  obs::EventLog quiet_log(std::make_shared<obs::CaptureSink>());
  obs::FlightRecorderOptions options;
  options.capacity = 64;
  options.slow_threshold_ms = 0;  // Keep everything: maximal ring churn.
  options.sample_period = 0;
  options.log = &quiet_log;
  obs::FlightRecorder recorder(options);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerWriter; ++i) {
        obs::QueryRecord record;
        record.query_id = recorder.NextQueryId();
        record.ts_ms = 1;  // Skip the wall-clock stamp in the hot loop.
        record.elapsed_ms = static_cast<double>(i % 7);
        recorder.Record(std::move(record));
      }
    });
  }
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::vector<obs::QueryRecord> snapshot = recorder.Snapshot();
      EXPECT_LE(snapshot.size(), 64u);
      // The tunables race with in-flight keep decisions by design; the
      // atomics just keep that race benign.
      recorder.set_slow_threshold_ms(snapshot.size() % 2 == 0 ? 0.0 : -1.0);
      recorder.set_sample_period(static_cast<uint32_t>(snapshot.size() % 3));
    }
  });
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(recorder.entries(), 64u);
  EXPECT_EQ(recorder.last_query_id(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

}  // namespace
}  // namespace regal
