// The traced run (--trace 1): per-layer attribution.
//
// The service runs QueryEngine::Run as one call, so its stages cannot be
// timed from outside while it serves. After the untraced load (which gives
// server.overhead_us and mixed's write latencies), three phases replay one
// fixed operation sequence, each from the same cache state:
//   A  served and untraced: Client::Call per read, the server's elapsed_ms;
//   B  in-process, a span around each public function Run is built from
//      (ParseStatement, Optimize, EstimateCost, Evaluator::Evaluate,
//      QueryAnswer::Rows, the protocol codec) and around each Apply;
//   C  in-process with the evaluator's obs::Tracer, for self time per
//      operator kind and the exact counts. The tracer evaluates subtrees
//      one after the other, so cache activity repeats exactly.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "bench.h"
#include "core/eval.h"
#include "exec/thread_pool.h"
#include "opt/cost.h"
#include "opt/optimizer.h"
#include "query/parser.h"
#include "recovery/wal.h"
#include "server/protocol.h"

namespace perfbench {

namespace fs = std::filesystem;
using regal::Result;
using regal::server::Request;
using regal::server::Response;

namespace {

/// One span: a layer boundary crossed by one operation.
struct Span {
  const char* name;
  int64_t op;
  int parent;  // Index of the enclosing span, -1 for an operation.
  int64_t start_ns;
  int64_t end_ns = 0;
};

/// Spans kept in memory and written out when the run ends.
class SpanLog {
 public:
  int Open(const char* name, int64_t op, int parent) {
    spans_.push_back({name, op, parent, NowNs()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[id].end_ns = NowNs(); }
  double Us(int id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) / 1e3;
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"op\": " << s.op << ", \"name\": \""
          << s.name << "\", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// One operation of the traced sequence: a read of `query` (whose mix
/// index is `mix`, -1 for cold) or a write of note version `version`.
struct Op {
  bool write = false;
  std::string query;
  int mix = -1;
  int note = -1;
  int64_t version = 0;
};

std::vector<Op> TracedSequence(const RunConfig& config, const Shape& shape,
                               const std::vector<Query>& mix) {
  std::vector<Op> ops;
  ReadSequence sequence(config.workload, config.seed, 0, mix.size());
  int64_t next_version = 0;
  for (int i = 0; i < shape.trace_reads; ++i) {
    Op op;
    if (config.workload == Workload::kCold) {
      op.query = ColdQuery(config.seed, i);
    } else {
      op.mix = sequence.Next();
      op.query = mix[op.mix].text;
      op.note = mix[op.mix].note;
    }
    ops.push_back(std::move(op));
    if (shape.durable) {
      Op write;
      write.write = true;
      write.version = next_version++;
      write.note = NoteOfVersion(write.version);
      ops.push_back(std::move(write));
    }
  }
  return ops;
}

uint64_t SequenceHash(const std::vector<Op>& ops) {
  std::vector<std::string> parts;
  for (const Op& op : ops) {
    parts.push_back(op.write ? "w" + std::to_string(op.version) : op.query);
  }
  return HashRows(parts);
}

Request MakeTracedRequest(int64_t id, const std::string& query) {
  Request request;
  request.tenant = "tenant-a";
  request.instance = "corpus";
  request.query = query;
  request.id = id;
  request.limit = kRowLimit;
  return request;
}

/// State shared by the phases of one traced run.
struct Tracing {
  const RunConfig* config;
  const Shape* shape;
  Hosted* hosted;
  Checker* checker;
  Outcome* out;
  std::vector<Op> ops;
  std::vector<std::string> warm;
  /// Current version of each note (mixed), updated by every write.
  std::vector<int64_t> version;
  std::vector<Deferred> deferred;
};

/// Puts the hosted engine back into the state every phase starts from:
/// initial notes, a fresh checkpoint, an empty result cache, then the
/// warm-up queries.
void ResetPhase(Tracing* t) {
  QueryEngine* engine = t->hosted->engine.get();
  if (t->shape->durable) {
    for (int k = 0; k < kNotes; ++k) {
      Status s = engine->ReplaceRegions(
          NoteName(k), NoteVersion(t->hosted->senses, t->config->seed,
                                   -k - 1));
      if (!s.ok()) t->out->Fail("reset: " + s.ToString());
      t->version[k] = -k - 1;
    }
    Status s = engine->Checkpoint();
    if (!s.ok()) t->out->Fail("reset checkpoint: " + s.ToString());
  }
  engine->result_cache().Clear();
  for (const std::string& q : t->warm) {
    Result<QueryAnswer> a = engine->Run(q);
    if (!a.ok()) t->out->Fail("warm-up: " + a.status().ToString());
  }
}

Status ApplyWrite(Tracing* t, const Op& op) {
  Status s = t->hosted->engine->ReplaceRegions(
      NoteName(op.note),
      NoteVersion(t->hosted->senses, t->config->seed, op.version));
  if (s.ok()) t->version[op.note] = op.version;
  return s;
}

/// Checks an answer of the fixed mix now, or defers it to the oracle.
void CheckRead(Tracing* t, const Op& op, const Answer& got, bool full) {
  if (op.mix >= 0 && op.note < 0) {
    if (!Matches(t->checker->Expected(op.mix), got, full)) {
      ++t->out->failed;
      t->out->Fail("wrong answer: " + op.query);
    }
    return;
  }
  Deferred d;
  d.query = op.query;
  d.got = got;
  d.full = full;
  if (op.note >= 0) d.versions = {t->version[op.note]};
  t->deferred.push_back(std::move(d));
}

// --- Phase A: served, untraced ---------------------------------------------

std::vector<double> PhaseServed(Tracing* t) {
  ResetPhase(t);
  std::vector<double> elapsed_us;
  regal::server::Client& client = t->hosted->clients[0];
  for (size_t i = 0; i < t->ops.size(); ++i) {
    const Op& op = t->ops[i];
    ++t->out->attempted;
    if (op.write) {
      Status s = ApplyWrite(t, op);
      if (!s.ok()) {
        ++t->out->failed;
        t->out->Fail("write: " + s.ToString());
      }
      continue;
    }
    Result<Response> response =
        client.Call(MakeTracedRequest(static_cast<int64_t>(i), op.query));
    if (!response.ok() || !response->ok) {
      ++t->out->failed;
      t->out->Fail("served read failed: " + op.query);
      if (!response.ok()) break;
      continue;
    }
    elapsed_us.push_back(response->elapsed_ms * 1e3);
    CheckRead(t, op, FromWire(*response), /*full=*/false);
  }
  return elapsed_us;
}

// --- Phase B: in-process stage spans ---------------------------------------

struct StageTimes {
  std::vector<double> parse, optimize, estimate, eval, render, codec;
  std::vector<double> stage_frac;  // Sum of stage spans over the op span.
  double response_bytes = 0;
  int64_t reads = 0;
  int64_t parallel = 0;  // Reads that met the parallel dispatch condition.
  std::vector<double> apply, checkpoint_ms;
  int64_t writes = 0;
  int64_t checkpoints = 0;
  int64_t wal_bytes = 0;
  int64_t wal_records = 0;   // Writes whose WAL growth was measured.
  int64_t snapshot_bytes = 0;
  int64_t user_bytes = 0;
  double snapshot_mb = 0;
};

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

StageTimes PhaseStages(Tracing* t, SpanLog* log) {
  ResetPhase(t);
  StageTimes st;
  QueryEngine* engine = t->hosted->engine.get();
  regal::recovery::DurableStore* store = engine->durable_store();
  regal::exec::ThreadPool* pool =
      engine->mutable_parallel_policy()->pool != nullptr
          ? engine->mutable_parallel_policy()->pool
          : &regal::exec::ThreadPool::Default();
  regal::CatalogStats stats = regal::StatsFromInstance(engine->instance());
  for (size_t i = 0; i < t->ops.size(); ++i) {
    const Op& op = t->ops[i];
    const int64_t id = static_cast<int64_t>(i);
    ++t->out->attempted;
    if (op.write) {
      const int64_t wal_before = FileBytes(store->WalPath());
      const uint64_t checkpoint_before = store->checkpoint_lsn();
      const int root = log->Open("op.write", id, -1);
      const int apply = log->Open("recovery.apply", id, root);
      Status s = ApplyWrite(t, op);
      log->Close(apply);
      log->Close(root);
      if (!s.ok()) {
        ++t->out->failed;
        t->out->Fail("write: " + s.ToString());
        continue;
      }
      ++st.writes;
      const RegionSet& written = **engine->instance().Get(NoteName(op.note));
      st.user_bytes += static_cast<int64_t>(NoteName(op.note).size() +
                                            written.size() *
                                                sizeof(regal::Region));
      if (store->checkpoint_lsn() != checkpoint_before) {
        ++st.checkpoints;
        st.checkpoint_ms.push_back(log->Us(apply) / 1e3);
        st.snapshot_bytes += FileBytes(store->SnapshotPath());
      } else {
        st.apply.push_back(log->Us(apply));
        st.wal_bytes += FileBytes(store->WalPath()) - wal_before;
        ++st.wal_records;
      }
      stats = regal::StatsFromInstance(engine->instance());
      continue;
    }
    ++st.reads;
    const int root = log->Open("op.read", id, -1);
    int span = log->Open("query.parse", id, root);
    Result<regal::QueryStatement> statement = regal::ParseStatement(op.query);
    log->Close(span);
    if (!statement.ok()) {
      log->Close(root);
      ++t->out->failed;
      t->out->Fail("parse: " + statement.status().ToString());
      continue;
    }
    const int parse = span;
    span = log->Open("opt.optimize", id, root);
    regal::OptimizerOptions options;
    options.stats = stats;
    if (engine->rig().has_value()) options.rig = &*engine->rig();
    regal::OptimizeOutcome optimized = regal::Optimize(statement->expr, options);
    log->Close(span);
    const int optimize = span;
    span = log->Open("opt.estimate", id, root);
    const bool go_parallel =
        engine->parallel_enabled() &&
        regal::EstimateCost(optimized.expr, stats).cost >=
            engine->parallel_cost_threshold() &&
        !pool->Saturated();
    log->Close(span);
    const int estimate = span;
    span = log->Open("core.evaluate", id, root);
    regal::EvalOptions eval_options;
    regal::cache::CacheQueryStats cache_stats;
    eval_options.result_cache = &engine->result_cache();
    eval_options.cache_stats = &cache_stats;
    if (go_parallel) eval_options.parallel = engine->mutable_parallel_policy();
    regal::Evaluator evaluator(&engine->instance(), eval_options);
    Result<RegionSet> result = evaluator.Evaluate(optimized.expr);
    log->Close(span);
    const int eval = span;
    if (!result.ok()) {
      log->Close(root);
      ++t->out->failed;
      t->out->Fail("evaluate: " + result.status().ToString());
      continue;
    }
    span = log->Open("query.render", id, root);
    QueryAnswer answer;
    answer.regions = std::move(result).value();
    const int64_t row_count = static_cast<int64_t>(answer.regions.size());
    const int limit = static_cast<int>(std::min<int64_t>(kRowLimit, row_count));
    std::vector<std::string> rows;
    if (limit > 0) rows = answer.Rows(engine->instance(), limit);
    log->Close(span);
    const int render = span;
    span = log->Open("server.codec", id, root);
    const Request request = MakeTracedRequest(id, op.query);
    Result<Request> parsed_request =
        regal::server::ParseRequest(regal::server::RenderRequest(request));
    Response response;
    response.id = id;
    response.ok = true;
    response.row_count = row_count;
    response.rows = std::move(rows);
    const std::string payload = regal::server::RenderResponse(response);
    Result<Response> decoded = regal::server::ParseResponse(payload);
    log->Close(span);
    const int codec = span;
    log->Close(root);
    if (!parsed_request.ok() || !decoded.ok()) {
      ++t->out->failed;
      t->out->Fail("codec round trip failed");
      continue;
    }
    st.parse.push_back(log->Us(parse));
    st.optimize.push_back(log->Us(optimize));
    st.estimate.push_back(log->Us(estimate));
    st.eval.push_back(log->Us(eval));
    st.render.push_back(log->Us(render));
    st.codec.push_back(log->Us(codec));
    st.stage_frac.push_back((log->Us(parse) + log->Us(optimize) +
                             log->Us(estimate) + log->Us(eval) +
                             log->Us(render) + log->Us(codec)) /
                            std::max(1e-3, log->Us(root)));
    st.response_bytes += static_cast<double>(payload.size());
    if (go_parallel) ++st.parallel;
    Answer got = Fingerprint(answer, engine->instance());
    CheckRead(t, op, got, /*full=*/true);
  }
  if (store != nullptr) {
    st.snapshot_mb = static_cast<double>(FileBytes(store->SnapshotPath())) /
                     (1024.0 * 1024.0);
  }
  return st;
}

// --- Phase C: operator tracer and exact counts ------------------------------

struct OperatorTimes {
  std::map<std::string, double> self_us;  // Summed over the phase.
  int64_t reads = 0;
  int64_t root_hits = 0;
  double cache_mb = 0;
};

void AddSelfTimes(const regal::obs::Span& span,
                  std::map<std::string, double>* self_us) {
  double children = 0;
  for (const regal::obs::Span& child : span.children) {
    children += child.dur_us;
    AddSelfTimes(child, self_us);
  }
  (*self_us)[span.name] += std::max(0.0, span.dur_us - children);
}

OperatorTimes PhaseOperators(Tracing* t, ExactCounts* counts) {
  ResetPhase(t);
  OperatorTimes ot;
  QueryEngine* engine = t->hosted->engine.get();
  regal::CatalogStats stats = regal::StatsFromInstance(engine->instance());
  for (const Op& op : t->ops) {
    ++t->out->attempted;
    if (op.write) {
      Status s = ApplyWrite(t, op);
      if (!s.ok()) {
        ++t->out->failed;
        t->out->Fail("write: " + s.ToString());
      }
      stats = regal::StatsFromInstance(engine->instance());
      continue;
    }
    Result<regal::QueryStatement> statement = regal::ParseStatement(op.query);
    if (!statement.ok()) {
      ++t->out->failed;
      t->out->Fail("parse: " + statement.status().ToString());
      continue;
    }
    regal::OptimizerOptions options;
    options.stats = stats;
    if (engine->rig().has_value()) options.rig = &*engine->rig();
    regal::OptimizeOutcome optimized = regal::Optimize(statement->expr, options);
    counts->rules_applied += optimized.rules_applied;
    regal::obs::Tracer tracer;
    regal::cache::CacheQueryStats cache_stats;
    regal::EvalOptions eval_options;
    eval_options.tracer = &tracer;
    eval_options.result_cache = &engine->result_cache();
    eval_options.cache_stats = &cache_stats;
    if (engine->parallel_enabled() &&
        regal::EstimateCost(optimized.expr, stats).cost >=
            engine->parallel_cost_threshold()) {
      eval_options.parallel = engine->mutable_parallel_policy();
    }
    regal::Evaluator evaluator(&engine->instance(), eval_options);
    Result<RegionSet> result = evaluator.Evaluate(optimized.expr);
    if (!result.ok()) {
      ++t->out->failed;
      t->out->Fail("evaluate: " + result.status().ToString());
      continue;
    }
    ++ot.reads;
    AddSelfTimes(tracer.Build(), &ot.self_us);
    const regal::EvalStats& es = evaluator.stats();
    counts->operator_evals += es.operator_evals;
    counts->rows_scanned += es.rows_scanned;
    counts->rows_produced += es.rows_produced;
    counts->cache_hits += cache_stats.hits;
    counts->cache_misses += cache_stats.misses;
    counts->cache_inserts += cache_stats.inserts;
    counts->cache_evictions += cache_stats.evictions;
    if (es.operator_evals == 0 && optimized.expr->kind() != regal::OpKind::kName) {
      ++ot.root_hits;
    }
    QueryAnswer answer;
    answer.regions = std::move(result).value();
    CheckRead(t, op, Fingerprint(answer, engine->instance()), /*full=*/true);
  }
  ot.cache_mb = static_cast<double>(engine->result_cache().bytes()) /
                (1024.0 * 1024.0);
  if (engine->durable_store() != nullptr) {
    counts->wal_lsn = engine->durable_store()->last_lsn();
  }
  return ot;
}

// The operator kinds the cold and hot plans use; self time is reported for
// each (zero when a workload's plans never evaluate that kind).
const char* const kOperatorKinds[] = {"scan",      "matching", "including",
                                      "within",    "union",    "intersect",
                                      "difference"};

}  // namespace

std::string ExactCounts::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "operator_evals=%lld rows_scanned=%lld rows_produced=%lld "
                "cache_hits=%lld cache_misses=%lld cache_inserts=%lld "
                "cache_evictions=%lld rules_applied=%lld wal_lsn=%llu "
                "checkpoints=%lld sequence=%016llx",
                static_cast<long long>(operator_evals),
                static_cast<long long>(rows_scanned),
                static_cast<long long>(rows_produced),
                static_cast<long long>(cache_hits),
                static_cast<long long>(cache_misses),
                static_cast<long long>(cache_inserts),
                static_cast<long long>(cache_evictions),
                static_cast<long long>(rules_applied),
                static_cast<unsigned long long>(wal_lsn),
                static_cast<long long>(checkpoints),
                static_cast<unsigned long long>(sequence_hash));
  return buf;
}

Outcome RunTraced(const RunConfig& config, ExactCounts* counts_out) {
  Outcome out;
  const Shape shape = ShapeFor(config.workload, config.reduced);
  Checker checker(config, shape);
  Tracing t;
  t.config = &config;
  t.shape = &shape;
  t.checker = &checker;
  t.out = &out;
  t.warm = WarmupQueries(config);
  t.ops = TracedSequence(config, shape, checker.mix());
  t.version.resize(kNotes);

  Result<Hosted> set_up = SetUp(config, shape, t.warm, 0);
  if (!set_up.ok()) {
    out.Fail("set-up failed: " + set_up.status().ToString());
    out.attempted = 1;
    out.failed = 1;
    return out;
  }
  Hosted hosted = std::move(set_up).value();
  t.hosted = &hosted;
  PrintContext(config, shape, hosted.size);

  LoadResult load = RunLoad(config, shape, &hosted, &checker, &out);
  std::vector<double> served_us = PhaseServed(&t);
  SpanLog log;
  StageTimes st = PhaseStages(&t, &log);
  ExactCounts counts;
  counts.sequence_hash = SequenceHash(t.ops);
  counts.checkpoints = st.checkpoints;
  OperatorTimes ot = PhaseOperators(&t, &counts);
  TearDown(&hosted);

  std::vector<Deferred> deferred = std::move(load.deferred);
  for (Deferred& d : t.deferred) deferred.push_back(std::move(d));
  checker.Verify(deferred, &out);
  double reopen_s = 0;
  if (shape.durable) {
    reopen_s = CheckDurability(hosted, config.seed, t.version, &out);
    std::error_code ec;
    fs::remove_all(hosted.dir, ec);
  }
  const std::string spans_path = config.work_dir + "/spans-" +
                                 WorkloadName(config.workload) + "-" +
                                 std::to_string(config.seed) + ".jsonl";
  log.Write(spans_path);

  const double reads = static_cast<double>(std::max<int64_t>(1, ot.reads));
  const double overhead = Median(load.overhead_us);
  const double parse = Median(st.parse), optimize = Median(st.optimize);
  const double render = Median(st.render), codec = Median(st.codec);
  const int64_t probes = counts.cache_hits + counts.cache_misses;
  PrintJsonLine("host",
                {{"steal_frac", std::to_string(load.steal_frac)},
                 {"probe_before_ms", std::to_string(load.probe_before_ms)},
                 {"probe_after_ms", std::to_string(load.probe_after_ms)},
                 {"exact_counts", "\"" + counts.ToString() + "\""},
                 {"spans", "\"" + JsonEscape(spans_path) + "\""}});
  out.metrics = {
      {"server.overhead_us", overhead, "us"},
      {"server.wire_us", overhead - parse - optimize - render - codec, "us"},
      {"server.codec_us", codec, "us"},
      {"server.response_bytes",
       st.response_bytes / static_cast<double>(std::max<int64_t>(1, st.reads)),
       "bytes"},
      {"query.parse_us", parse, "us"},
      {"query.render_us", render, "us"},
      {"opt.optimize_us", optimize, "us"},
      {"opt.estimate_us", Median(st.estimate), "us"},
      {"opt.rules_applied", static_cast<double>(counts.rules_applied) / reads,
       "count/op"},
      {"cache.root_hit_frac", static_cast<double>(ot.root_hits) / reads,
       "frac"},
      {"cache.hit_ratio",
       probes > 0 ? static_cast<double>(counts.cache_hits) /
                        static_cast<double>(probes)
                  : 0.0,
       "frac"},
      {"cache.evictions", static_cast<double>(counts.cache_evictions),
       "count"},
      {"cache.mb", ot.cache_mb, "MB"},
      {"core.eval_us", Median(st.eval), "us"},
      {"core.operator_evals", static_cast<double>(counts.operator_evals) / reads,
       "count/op"},
      {"core.rows_scanned", static_cast<double>(counts.rows_scanned) / reads,
       "count/op"},
      {"core.rows_produced", static_cast<double>(counts.rows_produced) / reads,
       "count/op"},
  };
  for (const char* kind : kOperatorKinds) {
    auto it = ot.self_us.find(kind);
    out.metrics.push_back({std::string("core.op_us.") + kind,
                           it == ot.self_us.end() ? 0.0 : it->second / reads,
                           "us/op"});
  }
  const std::vector<Metric> rest = {
      {"exec.parallel_frac",
       static_cast<double>(st.parallel) /
           static_cast<double>(std::max<int64_t>(1, st.reads)),
       "frac"},
      {"trace.overhead_us", Median(st.eval) - Median(served_us), "us"},
      {"trace.stage_sum_frac", Median(st.stage_frac), "frac"},
      {"doc.parse_index_s", hosted.parse_index_s, "s"},
      {"p99_ms", Quantile(load.read_ms, 0.99), "ms"},
      {"write_p50_ms", Median(load.write_ms), "ms"},
      {"write_p99_ms", Quantile(load.write_ms, 0.99), "ms"},
      {"write_lag_p99_ms", Quantile(load.lag_ms, 0.99), "ms"},
      {"recovery.apply_us", Median(st.apply), "us"},
      {"recovery.wal_bytes_per_write",
       st.wal_records > 0 ? static_cast<double>(st.wal_bytes) /
                                static_cast<double>(st.wal_records)
                          : 0.0,
       "bytes"},
      {"recovery.checkpoints", static_cast<double>(st.checkpoints), "count"},
      {"recovery.checkpoint_ms", Median(st.checkpoint_ms), "ms"},
      {"recovery.reopen_s", reopen_s, "s"},
      {"storage.bytes_written_per_user_byte",
       st.user_bytes > 0 ? static_cast<double>(st.wal_bytes + st.snapshot_bytes) /
                               static_cast<double>(st.user_bytes)
                         : 0.0,
       "ratio"},
      {"storage.snapshot_mb", st.snapshot_mb, "MB"},
  };
  out.metrics.insert(out.metrics.end(), rest.begin(), rest.end());
  if (counts_out != nullptr) *counts_out = counts;
  return out;
}

}  // namespace perfbench
