// Shared declarations of perfbench, the repository benchmark.
//
// One process hosts a generated corpus in a server::QueryService and drives
// it over loopback with server::Client (see NOTES.md for why each workload
// exists and what each metric is expected to move). The untraced run prints
// the end-to-end metrics; the traced run (--trace 1) replays a fixed
// operation sequence through the public functions QueryEngine::Run is built
// from and attributes the time to layers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/engine.h"
#include "server/client.h"
#include "server/service.h"
#include "util/random.h"

namespace perfbench {

using regal::Instance;
using regal::QueryAnswer;
using regal::QueryEngine;
using regal::RegionSet;
using regal::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Reporting (report.cc).

/// One metric of the final line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  // Why `correct` is false.
  std::vector<Metric> metrics;
  void Fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
};

/// Median / quantile of a sample (copies; q in [0, 1], nearest rank).
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// Process user+system CPU seconds and peak RSS (MiB), from getrusage.
double ProcessCpuSeconds();
double PeakRssMb();

/// Host noise diagnostics: steal jiffies over total from /proc/stat, and a
/// fixed CPU loop's duration.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
double StealFrac(const CpuTimes& before, const CpuTimes& after);
double ProbeMs();

std::string JsonEscape(const std::string& s);
/// Prints `{"<key>": {...}}` from ordered key / raw-JSON-value pairs.
void PrintJsonLine(
    const std::string& key,
    const std::vector<std::pair<std::string, std::string>>& fields);
void PrintResult(const Outcome& outcome);

// ---------------------------------------------------------------------------
// Workloads and their generated inputs (corpus.cc).

enum class Workload { kHot, kCold, kMixed };
const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

/// The sizes of one workload. `reduced` shrinks everything for the
/// self-test; the traced phases replay `trace_reads` reads whatever the run
/// length, so their counts repeat exactly for one seed.
struct Shape {
  int entries = 0;          // Dictionary entries in the corpus.
  bool rig = false;         // Host with DictionaryRig() (optimizer rewrites).
  bool durable = false;     // Host through QueryEngine::OpenDurable.
  int connections = 1;      // Closed-loop reader connections.
  int setup_reps = 3;       // Set-ups per run; setup_s is their median.
  int warmup_requests = 0;  // Per connection, part of set-up.
  int trace_reads = 0;      // Reads in each traced phase (mixed: each
                            // followed by a write).
  double write_rate_hz = 0;   // Untraced mixed: the open-loop writer's rate.
};
Shape ShapeFor(Workload w, bool reduced);

/// The corpus is fixed so that sizes are identical across runs; --seed
/// drives the operation order, cold's queries and mixed's written sets.
constexpr uint64_t kCorpusSeed = 31;
constexpr int kNotes = 8;  // Annotation sets note0..note7 (mixed).
constexpr int kRowLimit = 10;

std::string NoteName(int k);

/// A read the clients send. `note` >= 0 marks an annotation query whose
/// answer depends on the current version of that note.
struct Query {
  std::string text;
  int note = -1;
};

/// hot's fixed mix of structural and content queries; mixed appends
/// annotation queries over note0..note7.
std::vector<Query> ReadMix(Workload w);
/// The reads of one connection, as indices into the mix: hot cycles
/// through a seeded permutation of it; mixed draws hot's part twice as
/// often as the annotation queries.
class ReadSequence {
 public:
  ReadSequence(Workload w, uint64_t seed, int conn, size_t mix_size);
  int Next();

 private:
  Workload workload_;
  regal::Rng rng_;
  std::vector<int> cycle_;
  size_t mix_size_;
  size_t next_ = 0;
};
/// cold's `i`-th query: a fresh instance of one of the seeded templates.
std::string ColdQuery(uint64_t seed, int64_t i);

/// The region set of note version `version` (write number `version` of
/// mixed's writer; negative selects note (-version - 1)'s initial set): a
/// seeded sample of a few hundred `sense` regions.
RegionSet NoteVersion(const RegionSet& senses, uint64_t seed,
                      int64_t version);
inline int NoteOfVersion(int64_t version) {
  return version < 0 ? static_cast<int>(-version - 1)
                     : static_cast<int>(version % kNotes);
}

// ---------------------------------------------------------------------------
// Answer checking (corpus.cc).

/// What a correct answer must look like: the total row count, a hash of
/// every region's offsets, and a hash of the rows rendered at kRowLimit
/// (the part of the answer that travels on the wire).
struct Answer {
  int64_t rows = 0;
  uint64_t offsets = 0;
  uint64_t rendered = 0;
};
uint64_t HashRows(const std::vector<std::string>& rows);
Answer Fingerprint(const QueryAnswer& answer, const Instance& instance);
/// The wire-visible part of an answer (no offsets hash).
Answer FromWire(const regal::server::Response& response);
/// True when `got` matches `want`; offsets are compared only when `full`.
bool Matches(const Answer& want, const Answer& got, bool full);

/// The oracle engine: same corpus, no RIG, result cache and parallelism
/// off; ReferenceAnswer also runs without the optimizer.
std::unique_ptr<QueryEngine> MakeReference(const std::string& source);
regal::Result<Answer> ReferenceAnswer(QueryEngine* reference,
                                      const std::string& query);

// ---------------------------------------------------------------------------
// Hosting (workloads.cc).

struct CorpusSize {
  int entries = 0;
  int64_t bytes = 0;
  int64_t regions = 0;
};

/// One set-up: corpus generated, parsed and indexed, engine hosted in a
/// started service, clients connected and warmed up.
struct Hosted {
  std::string source;
  CorpusSize size;
  RegionSet senses;  // The corpus's sense regions (note versions sample them).
  double parse_index_s = 0;  // ParseSgml plus engine construction.
  std::string dir;           // Durable directory (mixed), else empty.
  std::unique_ptr<regal::server::QueryService> service;
  std::shared_ptr<QueryEngine> engine;
  std::vector<regal::server::Client> clients;
  double setup_s = 0;
};

struct RunConfig {
  Workload workload = Workload::kHot;
  uint64_t seed = 1;
  int seconds = 10;
  bool reduced = false;
  std::string work_dir;  // Working files, inside the checkout.
  std::string revision;  // Reported in the context line only.
  std::string src_digest;
};

/// Builds one hosted set-up (see Hosted). `warm_mix` is sent
/// shape.warmup_requests times per connection, cycling.
regal::Result<Hosted> SetUp(const RunConfig& config, const Shape& shape,
                            const std::vector<std::string>& warm_mix,
                            int rep);
/// Stops the service and drops the engine (closing a durable store).
void TearDown(Hosted* hosted);

/// Queries sent during set-up warm-up.
std::vector<std::string> WarmupQueries(const RunConfig& config);

// ---------------------------------------------------------------------------
// Answer checks (workloads.cc).

/// A check that waits for the oracle: an answer whose expected value was
/// not computed at set-up (cold's queries; mixed's annotation reads, whose
/// answer depends on which note version the read saw).
struct Deferred {
  std::string query;
  /// Note versions the read may have seen (annotation reads), else empty.
  std::vector<int64_t> versions;
  Answer got;
  bool full = false;  // `got` has the offsets hash (in-process answers).
};

/// Holds the expected answers of the fixed mix, computed at set-up on an
/// oracle engine, and verifies deferred answers after the measurement.
class Checker {
 public:
  Checker(const RunConfig& config, const Shape& shape);
  const std::vector<Query>& mix() const { return mix_; }
  /// Expected answer of mix entry `q` (not an annotation query).
  const Answer& Expected(int q) const { return expected_[q]; }
  /// The source of the fixed corpus.
  const std::string& source() const { return source_; }
  /// Checks every deferred answer; mismatches become failures in `out`.
  void Verify(const std::vector<Deferred>& deferred, Outcome* out);
  /// Versions an annotation read of `note` may have seen, given that
  /// writes [0, acked) were acknowledged before it was sent and writes
  /// [0, started) had begun when its answer arrived.
  static std::vector<int64_t> Candidates(int note, int64_t acked,
                                         int64_t started);

 private:
  RunConfig config_;
  std::string source_;
  std::vector<Query> mix_;
  std::vector<Answer> expected_;
};

// ---------------------------------------------------------------------------
// The measured load (workloads.cc).

/// Raw measurements of one timed phase under the workload's real load.
struct LoadResult {
  int64_t reads = 0;
  int64_t writes = 0;
  std::vector<double> read_ms;      // Client::Call per read.
  std::vector<double> overhead_us;  // Client::Call minus server elapsed_ms.
  std::vector<double> write_ms;     // Apply end minus scheduled time.
  std::vector<double> lag_ms;       // Apply start minus scheduled time.
  std::vector<int64_t> windows;     // Operations completed in each second.
  int64_t checkpoints = 0;          // Inline checkpoints the writes caused.
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double steal_frac = 0;
  double probe_before_ms = 0;
  double probe_after_ms = 0;
  std::vector<Deferred> deferred;
  /// Last acknowledged version of each note (-k-1: the initial set).
  std::vector<int64_t> last_version;
};

/// Runs the workload's load for config.seconds against `hosted`.
LoadResult RunLoad(const RunConfig& config, const Shape& shape,
                   Hosted* hosted, Checker* checker, Outcome* out);

/// mixed: reopens the durable directory (the hosted engine must be torn
/// down) and requires every note to equal its last acknowledged version.
/// Returns the reopen time in seconds.
double CheckDurability(const Hosted& hosted, uint64_t seed,
                       const std::vector<int64_t>& last_version,
                       Outcome* out);

/// The run context line: revision, build, host, engine defaults, sizes.
void PrintContext(const RunConfig& config, const Shape& shape,
                  const CorpusSize& size);

// ---------------------------------------------------------------------------
// Runs (workloads.cc, layers.cc).

/// The untraced run: end-to-end metrics (--trace 0).
Outcome RunTimed(const RunConfig& config);

/// Exact per-layer counts of a traced run: the self-test requires them to
/// repeat for one seed.
struct ExactCounts {
  int64_t operator_evals = 0;
  int64_t rows_scanned = 0;
  int64_t rows_produced = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_inserts = 0;
  int64_t cache_evictions = 0;
  int64_t rules_applied = 0;
  uint64_t wal_lsn = 0;
  int64_t checkpoints = 0;
  uint64_t sequence_hash = 0;  // Hash of the operation sequence itself.
  bool operator==(const ExactCounts&) const = default;
  std::string ToString() const;
};

/// The traced run: per-layer metrics (--trace 1). `counts` receives the
/// exact counts when non-null.
Outcome RunTraced(const RunConfig& config, ExactCounts* counts = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
