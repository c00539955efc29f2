// Hosting, the measured load, answer checks and the untraced run.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/simd/simd_kernels.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "exec/thread_pool.h"
#include "recovery/wal.h"

namespace perfbench {

namespace fs = std::filesystem;
using regal::Result;
using regal::server::Client;
using regal::server::Request;
using regal::server::Response;

namespace {

std::string CorpusSource(int entries) {
  regal::DictionaryGeneratorOptions gen;
  gen.entries = entries;
  gen.seed = kCorpusSeed;
  return regal::GenerateDictionarySource(gen);
}

Request MakeRequest(int conn, int64_t id, const std::string& query) {
  Request request;
  request.tenant = conn % 2 == 0 ? "tenant-a" : "tenant-b";
  request.instance = "corpus";
  request.query = query;
  request.id = id;
  request.limit = kRowLimit;
  return request;
}

}  // namespace

std::vector<std::string> WarmupQueries(const RunConfig& config) {
  std::vector<std::string> out;
  if (config.workload == Workload::kCold) {
    // Negative indices: a query stream disjoint from the measured one.
    for (int64_t i = 1; i <= 16; ++i) {
      out.push_back(ColdQuery(config.seed, -i));
    }
  } else {
    for (const Query& q : ReadMix(config.workload)) {
      out.push_back(q.text);
    }
  }
  return out;
}

Result<Hosted> SetUp(const RunConfig& config, const Shape& shape,
                     const std::vector<std::string>& warm_mix, int rep) {
  const int64_t start = NowNs();
  Hosted h;
  h.source = CorpusSource(shape.entries);
  const int64_t parse_start = NowNs();
  Result<Instance> parsed = regal::ParseSgml(h.source);
  if (!parsed.ok()) return parsed.status();
  h.size.entries = shape.entries;
  h.size.bytes = static_cast<int64_t>(h.source.size());
  for (const std::string& name : parsed->names()) {
    h.size.regions += static_cast<int64_t>((*parsed->Get(name))->size());
  }
  h.senses = **parsed->Get("sense");
  std::optional<regal::Digraph> rig;
  if (shape.rig) rig = regal::DictionaryRig();

  std::optional<QueryEngine> engine;
  if (!shape.durable) {
    engine.emplace(std::move(parsed).value(), std::move(rig));
  } else {
    // Default DurableOptions: SyncPolicy::kAlways, an inline checkpoint
    // every 4,096 records. The corpus and the initial notes are journaled
    // as one batch and checkpointed, so the measured writes start from an
    // empty WAL.
    h.dir = config.work_dir + "/" + WorkloadName(config.workload) + "-" +
            std::to_string(getpid()) + "-" + std::to_string(rep);
    std::error_code ec;
    fs::remove_all(h.dir, ec);
    fs::create_directories(h.dir, ec);
    Result<QueryEngine> durable = QueryEngine::OpenDurable(h.dir);
    if (!durable.ok()) return durable.status();
    engine.emplace(std::move(durable).value());
    std::vector<regal::recovery::Mutation> batch;
    batch.push_back(regal::recovery::Mutation::BindText(h.source));
    for (const std::string& name : parsed->names()) {
      batch.push_back(regal::recovery::Mutation::DefineRegions(
          name, **parsed->Get(name)));
    }
    for (int k = 0; k < kNotes; ++k) {
      batch.push_back(regal::recovery::Mutation::DefineRegions(
          NoteName(k), NoteVersion(h.senses, config.seed, -k - 1)));
    }
    REGAL_RETURN_NOT_OK(engine->ApplyBatch(batch));
    REGAL_RETURN_NOT_OK(engine->Checkpoint());
  }
  h.parse_index_s = static_cast<double>(NowNs() - parse_start) / 1e9;

  regal::server::ServiceOptions options;
  options.default_row_limit = kRowLimit;
  auto service = regal::server::QueryService::Start(options);
  if (!service.ok()) return service.status();
  h.service = std::move(service).value();
  REGAL_RETURN_NOT_OK(h.service->AddInstance("corpus", std::move(*engine)));
  h.engine = h.service->engine("corpus");

  for (int c = 0; c < shape.connections; ++c) {
    Result<Client> client =
        Client::Connect("127.0.0.1", h.service->port(), 60000);
    if (!client.ok()) return client.status();
    h.clients.push_back(std::move(client).value());
  }
  for (int c = 0; c < shape.connections; ++c) {
    for (int i = 0; i < shape.warmup_requests; ++i) {
      const std::string& q = warm_mix[static_cast<size_t>(i) % warm_mix.size()];
      Result<Response> response = h.clients[c].Call(MakeRequest(c, -1, q));
      if (!response.ok()) return response.status();
      if (!response->ok) {
        return Status::Internal("warm-up query failed: " + q + ": " +
                                response->message);
      }
    }
  }
  h.setup_s = static_cast<double>(NowNs() - start) / 1e9;
  return h;
}

void TearDown(Hosted* hosted) {
  hosted->clients.clear();
  if (hosted->service != nullptr) hosted->service->Stop();
  hosted->service.reset();
  hosted->engine.reset();
}

// ---------------------------------------------------------------------------

Checker::Checker(const RunConfig& config, const Shape& shape)
    : config_(config),
      source_(CorpusSource(shape.entries)),
      mix_(ReadMix(config.workload)) {
  expected_.resize(mix_.size());
  if (config.workload == Workload::kCold) return;
  std::unique_ptr<QueryEngine> reference = MakeReference(source_);
  for (size_t q = 0; q < mix_.size(); ++q) {
    if (mix_[q].note >= 0) continue;
    Result<Answer> answer = ReferenceAnswer(reference.get(), mix_[q].text);
    if (answer.ok()) expected_[q] = *answer;
  }
}

std::vector<int64_t> Checker::Candidates(int note, int64_t acked,
                                         int64_t started) {
  // The newest write to `note` acknowledged before the read was sent (or
  // the initial set), plus every write to it still in flight.
  std::vector<int64_t> versions;
  int64_t last = acked - 1;
  while (last >= 0 && last % kNotes != note) --last;
  versions.push_back(last >= 0 ? last : -note - 1);
  for (int64_t j = acked; j < started; ++j) {
    if (j % kNotes == note) versions.push_back(j);
  }
  return versions;
}

void Checker::Verify(const std::vector<Deferred>& deferred, Outcome* out) {
  if (deferred.empty()) return;
  std::unique_ptr<QueryEngine> reference = MakeReference(source_);
  if (reference == nullptr) {
    out->Fail("oracle engine failed to build");
    return;
  }
  const RegionSet senses = **reference->instance().Get("sense");
  if (config_.workload == Workload::kMixed) {
    for (int k = 0; k < kNotes; ++k) {
      Status defined = reference->DefineRegions(
          NoteName(k), NoteVersion(senses, config_.seed, -k - 1));
      if (!defined.ok()) out->Fail("oracle: " + defined.ToString());
    }
  }
  // One oracle evaluation per distinct (query, version); annotation reads
  // are grouped by version so each note is rewritten once per version.
  struct Key {
    int64_t version;  // INT64_MIN for note-independent queries.
    std::string query;
    bool operator<(const Key& o) const {
      return version != o.version ? version < o.version : query < o.query;
    }
  };
  std::map<Key, Answer> answers;
  for (const Deferred& d : deferred) {
    if (d.versions.empty()) {
      answers.emplace(Key{INT64_MIN, d.query}, Answer{});
    }
    for (int64_t v : d.versions) answers.emplace(Key{v, d.query}, Answer{});
  }
  std::vector<std::pair<const Key, Answer>*> todo;
  for (auto& entry : answers) todo.push_back(&entry);
  std::mutex fail_mu;
  auto evaluate = [&](auto* entry) {
    Result<Answer> a = ReferenceAnswer(reference.get(), entry->first.query);
    if (a.ok()) {
      entry->second = *a;
    } else {
      std::lock_guard<std::mutex> lock(fail_mu);
      out->Fail("oracle: " + entry->first.query + ": " +
                a.status().ToString());
    }
  };
  if (config_.workload == Workload::kMixed) {
    // Sequential: each version rewrites the oracle's note first.
    int64_t current = INT64_MIN;
    for (auto* entry : todo) {
      const int64_t v = entry->first.version;
      if (v != current) {
        current = v;
        Status s = reference->ReplaceRegions(NoteName(NoteOfVersion(v)),
                                             NoteVersion(senses,
                                                         config_.seed, v));
        if (!s.ok()) out->Fail("oracle: " + s.ToString());
      }
      evaluate(entry);
    }
  } else {
    // cold's oracle evaluations are independent and sequential each; run
    // them on four threads after the measurement.
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (size_t i = next++; i < todo.size(); i = next++) {
          evaluate(todo[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  int64_t mismatches = 0;
  for (const Deferred& d : deferred) {
    bool matched = false;
    std::vector<int64_t> versions = d.versions;
    if (versions.empty()) versions.push_back(INT64_MIN);
    for (int64_t v : versions) {
      if (Matches(answers.at(Key{v, d.query}), d.got, d.full)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      ++mismatches;
      out->Fail("wrong answer: " + d.query + " (" +
                std::to_string(d.got.rows) + " rows)");
    }
  }
  out->failed += mismatches;
}

// ---------------------------------------------------------------------------

LoadResult RunLoad(const RunConfig& config, const Shape& shape,
                   Hosted* hosted, Checker* checker, Outcome* out) {
  LoadResult r;
  const std::vector<Query>& mix = checker->mix();
  r.probe_before_ms = ProbeMs();
  const CpuTimes cpu_before = ReadCpuTimes();
  const double cpu_start = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(config.seconds) * 1000000000;

  // mixed's writer publishes how far it got; readers of a note derive the
  // versions they may have seen from these.
  std::atomic<int64_t> started{0};
  std::atomic<int64_t> acked{0};
  std::atomic<int64_t> failures{0};
  std::mutex merge_mu;  // Guards `r` and `out` across the load threads.
  auto fail = [&](const std::string& why) {
    failures.fetch_add(1);
    std::lock_guard<std::mutex> lock(merge_mu);
    out->Fail(why);
  };

  // Each reader keeps its own log, sized up front and merged only after
  // peak RSS is read, so sample storage barely moves peak_rss_mb.
  struct ReaderLog {
    std::vector<float> read_ms, overhead_us;
    std::vector<int64_t> windows;  // Reads completed in each second.
    std::vector<Deferred> deferred;
    int64_t attempts = 0;
  };
  std::vector<ReaderLog> logs(shape.connections);
  const size_t max_reads = static_cast<size_t>(config.seconds) * 50000;

  auto reader = [&](int conn) {
    ReaderLog& log = logs[conn];
    log.read_ms.reserve(max_reads);
    log.overhead_us.reserve(max_reads);
    log.windows.resize(static_cast<size_t>(config.seconds));
    Client& client = hosted->clients[conn];
    ReadSequence sequence(config.workload, config.seed, conn, mix.size());
    for (int64_t i = 0; NowNs() < deadline; ++i) {
      std::string text;
      int q = -1;
      int note = -1;
      if (config.workload == Workload::kCold) {
        text = ColdQuery(config.seed, i);
      } else {
        q = sequence.Next();
        text = mix[q].text;
        note = mix[q].note;
      }
      ++log.attempts;
      const int64_t acked_before = acked.load();
      const int64_t begin = NowNs();
      Result<Response> response = client.Call(MakeRequest(conn, i, text));
      const int64_t end = NowNs();
      if (!response.ok() || !response->ok) {
        fail("read failed: " + text + ": " +
             (response.ok() ? response->code + " " + response->message
                            : response.status().ToString()));
        if (!response.ok()) break;  // The connection is gone.
        continue;
      }
      const double call_ms = static_cast<double>(end - begin) / 1e6;
      log.read_ms.push_back(static_cast<float>(call_ms));
      log.overhead_us.push_back(
          static_cast<float>((call_ms - response->elapsed_ms) * 1e3));
      const size_t window = static_cast<size_t>((end - t0) / 1000000000);
      if (window < log.windows.size()) ++log.windows[window];
      if (q >= 0 && note < 0) {
        if (!Matches(checker->Expected(q), FromWire(*response), false)) {
          fail("wrong answer: " + text);
        }
        continue;
      }
      Deferred d;
      d.query = text;
      d.got = FromWire(*response);
      if (note >= 0) {
        d.versions = Checker::Candidates(note, acked_before, started.load());
      }
      log.deferred.push_back(std::move(d));
    }
  };

  // Open loop: write j is due at t0 + j / rate whatever happened before, and
  // its latency runs from that due time, so a stall shows in every write
  // it delays.
  int64_t write_attempts = 0;
  std::vector<int64_t> write_windows(static_cast<size_t>(config.seconds));
  auto writer = [&] {
    regal::recovery::DurableStore* store = hosted->engine->durable_store();
    const double period_ns = 1e9 / shape.write_rate_hz;
    r.write_ms.reserve(static_cast<size_t>(config.seconds * shape.write_rate_hz) + 1);
    r.lag_ms.reserve(r.write_ms.capacity());
    for (int64_t j = 0;; ++j) {
      const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(j) *
                                                    period_ns);
      if (due >= deadline) break;
      regal::recovery::Mutation m = regal::recovery::Mutation::ReplaceRegions(
          NoteName(NoteOfVersion(j)),
          NoteVersion(hosted->senses, config.seed, j));
      const int64_t now = NowNs();
      if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      const uint64_t checkpoint_lsn = store->checkpoint_lsn();
      ++write_attempts;
      const int64_t begin = NowNs();
      started.store(j + 1);
      Status applied = hosted->engine->Apply(m);
      const int64_t end = NowNs();
      if (!applied.ok()) {
        fail("write failed: " + applied.ToString());
        break;
      }
      acked.store(j + 1);
      // Only this thread mutates the catalog, and it checkpoints inline.
      if (store->checkpoint_lsn() != checkpoint_lsn) ++r.checkpoints;
      const size_t window = static_cast<size_t>((end - t0) / 1000000000);
      if (window < write_windows.size()) ++write_windows[window];
      r.write_ms.push_back(static_cast<double>(end - due) / 1e6);
      r.lag_ms.push_back(static_cast<double>(begin - due) / 1e6);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < shape.connections; ++c) threads.emplace_back(reader, c);
  if (shape.write_rate_hz > 0) threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  r.cpu_s = ProcessCpuSeconds() - cpu_start;
  r.peak_rss_mb = PeakRssMb();
  r.steal_frac = StealFrac(cpu_before, ReadCpuTimes());
  r.probe_after_ms = ProbeMs();
  r.writes = static_cast<int64_t>(r.write_ms.size());
  out->attempted += write_attempts;
  r.windows = write_windows;
  for (ReaderLog& log : logs) {
    r.reads += static_cast<int64_t>(log.read_ms.size());
    r.read_ms.insert(r.read_ms.end(), log.read_ms.begin(), log.read_ms.end());
    r.overhead_us.insert(r.overhead_us.end(), log.overhead_us.begin(),
                         log.overhead_us.end());
    for (size_t w = 0; w < log.windows.size(); ++w) {
      r.windows[w] += log.windows[w];
    }
    for (Deferred& d : log.deferred) r.deferred.push_back(std::move(d));
    out->attempted += log.attempts;
  }
  out->failed += failures.load();
  const int64_t done = acked.load();
  for (int k = 0; k < kNotes; ++k) {
    r.last_version.push_back(Checker::Candidates(k, done, done).front());
  }
  return r;
}

double CheckDurability(const Hosted& hosted, uint64_t seed,
                       const std::vector<int64_t>& last_version,
                       Outcome* out) {
  const int64_t start = NowNs();
  Result<QueryEngine> reopened = QueryEngine::OpenDurable(hosted.dir);
  const double reopen_s = static_cast<double>(NowNs() - start) / 1e9;
  if (!reopened.ok()) {
    ++out->failed;
    out->Fail("reopen failed: " + reopened.status().ToString());
    return reopen_s;
  }
  for (int k = 0; k < kNotes; ++k) {
    Result<const RegionSet*> got = reopened->instance().Get(NoteName(k));
    const RegionSet want = NoteVersion(hosted.senses, seed, last_version[k]);
    if (!got.ok() || !std::equal((*got)->begin(), (*got)->end(),
                                 want.begin(), want.end(),
                                 [](const regal::Region& a,
                                    const regal::Region& b) {
                                   return a.left == b.left &&
                                          a.right == b.right;
                                 }) ||
        (*got)->size() != want.size()) {
      ++out->failed;
      out->Fail("acknowledged write lost on reopen: " + NoteName(k));
    }
  }
  return reopen_s;
}

void PrintContext(const RunConfig& config, const Shape& shape,
                  const CorpusSize& size) {
  const regal::recovery::DurableOptions durable;
  auto quoted = [](const std::string& s) { return "\"" + JsonEscape(s) + "\""; };
  PrintJsonLine(
      "context",
      {{"workload", quoted(WorkloadName(config.workload))},
       {"seed", std::to_string(config.seed)},
       {"seconds", std::to_string(config.seconds)},
       {"trace_reads", std::to_string(shape.trace_reads)},
       {"git_revision", quoted(config.revision)},
       {"src_digest", quoted(config.src_digest)},
       {"build_type", quoted(PERFBENCH_BUILD_TYPE)},
       {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
       {"simd_tier", quoted(regal::simd::ActiveKernels().name)},
       {"default_threads",
        std::to_string(regal::exec::ThreadPool::DefaultNumThreads())},
       {"result_cache_mb",
        std::to_string(regal::cache::ResultCacheOptions().max_bytes >> 20)},
       {"durable", shape.durable ? "true" : "false"},
       {"durable_sync",
        quoted(durable.wal.sync == regal::recovery::SyncPolicy::kAlways
                   ? "always"
                   : "other")},
       {"durable_checkpoint_every_records",
        std::to_string(durable.checkpoint_every_records)},
       {"durable_checkpointer", quoted("inline")},
       {"rig", shape.rig ? "true" : "false"},
       {"connections", std::to_string(shape.connections)},
       {"write_rate_hz", std::to_string(shape.write_rate_hz)},
       {"corpus_entries", std::to_string(size.entries)},
       {"corpus_bytes", std::to_string(size.bytes)},
       {"corpus_regions", std::to_string(size.regions)}});
}

// ---------------------------------------------------------------------------

namespace {

/// qps: the interquartile mean, over the timed phase's whole seconds, of
/// the operations (reads and writes) completed in each. A host slow episode
/// (steal bursts of 100-300 ms are common on a shared VM) moves a few
/// seconds, which fall outside the middle half.
double QpsOf(const LoadResult& load) {
  std::vector<int64_t> counts = load.windows;
  std::sort(counts.begin(), counts.end());
  const size_t trim = counts.size() / 4;
  double sum = 0;
  for (size_t i = trim; i < counts.size() - trim; ++i) {
    sum += static_cast<double>(counts[i]);
  }
  return sum / static_cast<double>(counts.size() - 2 * trim);
}

}  // namespace

Outcome RunTimed(const RunConfig& config) {
  Outcome out;
  const Shape shape = ShapeFor(config.workload, config.reduced);
  Checker checker(config, shape);
  const std::vector<std::string> warm = WarmupQueries(config);

  // Set up several times and report the median, so setup_s is steady; the
  // last set-up is the one measured.
  std::vector<double> setup_s;
  Hosted hosted;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    TearDown(&hosted);
    std::error_code ec;
    if (!hosted.dir.empty()) fs::remove_all(hosted.dir, ec);
    Result<Hosted> h = SetUp(config, shape, warm, rep);
    if (!h.ok()) {
      out.Fail("set-up failed: " + h.status().ToString());
      out.attempted = 1;
      out.failed = 1;
      return out;
    }
    hosted = std::move(h).value();
    setup_s.push_back(hosted.setup_s);
  }
  PrintContext(config, shape, hosted.size);

  LoadResult load = RunLoad(config, shape, &hosted, &checker, &out);
  TearDown(&hosted);
  checker.Verify(load.deferred, &out);
  if (shape.durable) {
    CheckDurability(hosted, config.seed, load.last_version, &out);
    std::error_code ec;
    fs::remove_all(hosted.dir, ec);
  }
  if (load.reads < 1000) {
    out.Fail("only " + std::to_string(load.reads) +
             " read samples; a run needs at least 1000");
  }
  const int64_t ops = std::max<int64_t>(1, load.reads + load.writes);
  PrintJsonLine(
      "host",
      {{"steal_frac", std::to_string(load.steal_frac)},
       {"probe_before_ms", std::to_string(load.probe_before_ms)},
       {"probe_after_ms", std::to_string(load.probe_after_ms)},
       {"read_samples", std::to_string(load.reads)},
       {"writes", std::to_string(load.writes)},
       {"checkpoints", std::to_string(load.checkpoints)},
       {"write_p50_ms", std::to_string(Median(load.write_ms))},
       {"write_p99_ms", std::to_string(Quantile(load.write_ms, 0.99))},
       {"write_lag_p99_ms", std::to_string(Quantile(load.lag_ms, 0.99))},
       {"read_p99_ms", std::to_string(Quantile(load.read_ms, 0.99))},
       {"setup_reps", std::to_string(setup_s.size())},
       {"window_ops", [&] {
          std::string s = "[";
          for (size_t w = 0; w < load.windows.size(); ++w) {
            s += (w ? ", " : "") + std::to_string(load.windows[w]);
          }
          return s + "]";
        }()}});
  out.metrics = {
      {"qps", QpsOf(load), "1/s"},
      {"p50_ms", Median(load.read_ms), "ms"},
      {"cpu_us_per_op", load.cpu_s * 1e6 / static_cast<double>(ops), "us"},
      {"peak_rss_mb", load.peak_rss_mb, "MB"},
      {"setup_s", Median(setup_s), "s"},
  };
  return out;
}

}  // namespace perfbench
