// Experiment: durability must not price mutations out of use. Every engine
// mutation now writes a CRC-framed record to the write-ahead log before
// touching the catalog, and recovery replays the log tail over the last
// snapshot on open. This bench quantifies both sides of that bargain:
//
//   BM_ApplyNoWal          the in-memory baseline (no durable store)
//   BM_ApplyWalNever       + WAL framing and buffered appends, no fsync
//   BM_ApplyWalInterval    + the background flusher fsyncing on its time
//                            cadence (the default policy, and the
//                            production recommendation: the mutator never
//                            waits on the device)
//   BM_ApplyWalAlways      + one fsync per record (zero acked loss)
//   BM_ApplyBatchWalAlways   group commit: 32 mutations, ONE fsync
//   BM_EncodeWalRecord     serialization alone, no filesystem
//   BM_WalReplay           decode + apply throughput (items_per_second is
//                            records/s; the recovery bar is >= 100k/s)
//   BM_RecoveryOpen        full DurableStore::Open against a WAL tail of
//                            N records (arg), snapshot present
//   BM_Checkpoint          snapshot + manifest + WAL reset round-trip
//
// Acceptance bars from the recovery work: BM_ApplyWalInterval within ~15%
// of BM_ApplyNoWal, and BM_WalReplay >= 100k records/s. Sync::always is
// expected to cost whatever an fsync costs on the device — that is the
// point of offering the policy knob rather than picking for the user.
//
// On a single-CPU box the flusher time-slices with the mutator, so run-to-
// run drift swamps a sub-15% margin unless repetitions are interleaved:
//   bench_recovery --benchmark_repetitions=5 \
//       --benchmark_enable_random_interleaving=true \
//       --benchmark_report_aggregates_only=true
// and compare medians (the committed BENCH_recovery.json is such a run).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_report.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "query/engine.h"
#include "recovery/durable.h"
#include "recovery/wal.h"
#include "storage/env.h"

namespace regal {
namespace {

// The same production-sized catalog the other benches mutate against: a
// 2000-entry dictionary (~1 MB of text, several hundred thousand regions).
// Overhead percentages are only meaningful against a mutation that does
// real work on a real catalog.
Instance MakeCorpus() {
  DictionaryGeneratorOptions options;
  options.entries = 2000;
  auto instance = ParseSgml(GenerateDictionarySource(options));
  if (!instance.ok()) std::abort();
  return std::move(*instance);
}

std::string BenchDir(const char* name) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string dir =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// The mutation workload: replace one of 8 named region sets with 32 fresh
// regions — the steady-state shape of a live catalog under edits (text
// rebinds are dominated by rebuilding the word index, not by the WAL).
recovery::Mutation WorkloadMutation(int64_t i) {
  std::vector<Region> regions;
  regions.reserve(32);
  Offset left = static_cast<Offset>(i % 97);
  for (int r = 0; r < 32; ++r) {
    left += 11;
    regions.push_back(Region{left, left + 7});
  }
  return recovery::Mutation::ReplaceRegions(
      "set" + std::to_string(i % 8), RegionSet::FromUnsorted(std::move(regions)));
}

// The corpus as a mutation batch, for seeding a durable engine with the
// same catalog the no-WAL baseline holds.
std::vector<recovery::Mutation> CorpusMutations(const Instance& corpus) {
  std::vector<recovery::Mutation> out;
  if (corpus.text() != nullptr) {
    out.push_back(recovery::Mutation::BindText(corpus.text()->content()));
  }
  for (const std::string& name : corpus.names()) {
    auto set = corpus.Get(name);
    if (!set.ok()) std::abort();
    out.push_back(recovery::Mutation::ReplaceRegions(name, **set));
  }
  return out;
}

recovery::DurableOptions OptionsFor(recovery::SyncPolicy sync) {
  recovery::DurableOptions options;
  options.wal.sync = sync;
  // The bench measures the journaling path, not snapshot rewrites.
  options.checkpoint_every_records = 1e12;
  return options;
}

void ApplyLoop(benchmark::State& state, QueryEngine* engine) {
  int64_t i = 0;
  for (auto _ : state) {
    if (!engine->Apply(WorkloadMutation(i++)).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ApplyNoWal(benchmark::State& state) {
  QueryEngine engine{MakeCorpus()};
  ApplyLoop(state, &engine);
}

void ApplyWithPolicy(benchmark::State& state, recovery::SyncPolicy sync,
                     const char* name) {
  auto engine = QueryEngine::OpenDurable(BenchDir(name), OptionsFor(sync));
  if (!engine.ok()) std::abort();
  if (!engine->ApplyBatch(CorpusMutations(MakeCorpus())).ok()) std::abort();
  if (!engine->Checkpoint().ok()) std::abort();
  ApplyLoop(state, &*engine);
}

void BM_ApplyWalNever(benchmark::State& state) {
  ApplyWithPolicy(state, recovery::SyncPolicy::kNever, "bench_wal_never");
}

void BM_ApplyWalInterval(benchmark::State& state) {
  ApplyWithPolicy(state, recovery::SyncPolicy::kInterval,
                  "bench_wal_interval");
}

void BM_ApplyWalAlways(benchmark::State& state) {
  ApplyWithPolicy(state, recovery::SyncPolicy::kAlways, "bench_wal_always");
}

// Group commit: a 32-mutation batch is one append and one fsync, so the
// per-mutation cost under Sync::always amortizes by the batch width.
void BM_ApplyBatchWalAlways(benchmark::State& state) {
  auto engine = QueryEngine::OpenDurable(
      BenchDir("bench_wal_batch"), OptionsFor(recovery::SyncPolicy::kAlways));
  if (!engine.ok()) std::abort();
  if (!engine->ApplyBatch(CorpusMutations(MakeCorpus())).ok()) std::abort();
  if (!engine->Checkpoint().ok()) std::abort();
  int64_t i = 0;
  for (auto _ : state) {
    std::vector<recovery::Mutation> batch;
    batch.reserve(32);
    for (int b = 0; b < 32; ++b) batch.push_back(WorkloadMutation(i++));
    if (!engine->ApplyBatch(batch).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * 32);
}

void BM_EncodeWalRecord(benchmark::State& state) {
  const recovery::Mutation m = WorkloadMutation(0);
  int64_t bytes = 0;
  uint64_t lsn = 1;
  for (auto _ : state) {
    auto frame = recovery::EncodeWalRecord(lsn++, m);
    if (!frame.ok()) std::abort();
    bytes += static_cast<int64_t>(frame->size());
  }
  state.SetBytesProcessed(bytes);
}

void BM_WalReplay(benchmark::State& state) {
  const int64_t records = state.range(0);
  std::string log = recovery::WalHeader();
  for (int64_t i = 0; i < records; ++i) {
    auto frame =
        recovery::EncodeWalRecord(static_cast<uint64_t>(i + 1),
                                  WorkloadMutation(i));
    if (!frame.ok()) std::abort();
    log += *frame;
  }
  for (auto _ : state) {
    auto read = recovery::ReadWalBytes(log);
    if (!read.ok() ||
        read->records.size() != static_cast<size_t>(records)) {
      std::abort();
    }
    Instance instance;
    for (const auto& [lsn, m] : read->records) {
      if (!recovery::ApplyMutation(&instance, m).ok()) std::abort();
    }
    benchmark::DoNotOptimize(instance.NumRegions());
  }
  state.SetItemsProcessed(state.iterations() * records);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.size()));
}

void BM_RecoveryOpen(benchmark::State& state) {
  const int64_t tail = state.range(0);
  const std::string dir = BenchDir("bench_recovery_open");
  {
    auto engine = QueryEngine::OpenDurable(
        dir, OptionsFor(recovery::SyncPolicy::kNever));
    if (!engine.ok()) std::abort();
    // A checkpointed base catalog, then `tail` un-checkpointed records.
    for (int64_t i = 0; i < 8; ++i) {
      if (!engine->Apply(WorkloadMutation(i)).ok()) std::abort();
    }
    if (!engine->Checkpoint().ok()) std::abort();
    for (int64_t i = 0; i < tail; ++i) {
      if (!engine->Apply(WorkloadMutation(i)).ok()) std::abort();
    }
  }
  for (auto _ : state) {
    Instance instance;
    auto store = recovery::DurableStore::Open(storage::Env::Default(), dir,
                                              {}, &instance);
    if (!store.ok() ||
        (*store)->health().replayed_records != static_cast<uint64_t>(tail)) {
      std::abort();
    }
    benchmark::DoNotOptimize(instance.NumRegions());
  }
  state.SetItemsProcessed(state.iterations() * tail);
}

void BM_Checkpoint(benchmark::State& state) {
  auto engine = QueryEngine::OpenDurable(
      BenchDir("bench_checkpoint"), OptionsFor(recovery::SyncPolicy::kNever));
  if (!engine.ok()) std::abort();
  int64_t i = 0;
  for (auto _ : state) {
    // A few journaled records between checkpoints keeps the WAL reset on
    // the measured path.
    for (int b = 0; b < 4; ++b) {
      if (!engine->Apply(WorkloadMutation(i++)).ok()) std::abort();
    }
    if (!engine->Checkpoint().ok()) std::abort();
  }
}

BENCHMARK(BM_ApplyNoWal);
BENCHMARK(BM_ApplyWalNever);
BENCHMARK(BM_ApplyWalInterval);
BENCHMARK(BM_ApplyWalAlways);
BENCHMARK(BM_ApplyBatchWalAlways);
BENCHMARK(BM_EncodeWalRecord);
BENCHMARK(BM_WalReplay)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_RecoveryOpen)->Arg(0)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_Checkpoint);

}  // namespace
}  // namespace regal

int main(int argc, char** argv) {
  return regal::RunBenchmarksWithJson(argc, argv, "BENCH_recovery.json");
}
