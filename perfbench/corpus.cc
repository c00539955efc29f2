// Workload inputs: corpus shapes, the seeded read mixes and cold query
// templates, mixed's note versions, and the answer oracle.
#include <algorithm>

#include "bench.h"
#include "doc/sgml.h"

namespace perfbench {

using regal::Rng;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kHot:
      return "hot";
    case Workload::kCold:
      return "cold";
    case Workload::kMixed:
      return "mixed";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kHot, Workload::kCold, Workload::kMixed}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Shape ShapeFor(Workload w, bool reduced) {
  Shape s;
  switch (w) {
    case Workload::kHot:
      s.entries = reduced ? 200 : 2000;
      s.rig = true;
      s.connections = 2;
      s.warmup_requests = reduced ? 50 : 2000;
      s.trace_reads = reduced ? 400 : 20000;
      break;
    case Workload::kCold:
      s.entries = reduced ? 800 : 8000;
      s.rig = true;
      s.connections = 1;
      s.warmup_requests = reduced ? 4 : 16;
      s.trace_reads = reduced ? 40 : 1000;
      break;
    case Workload::kMixed:
      s.entries = reduced ? 200 : 2000;
      s.durable = true;
      s.connections = 1;
      s.warmup_requests = reduced ? 50 : 500;
      s.trace_reads = reduced ? 300 : 9000;
      s.write_rate_hz = 1000;
      break;
  }
  if (reduced) s.setup_reps = 1;
  return s;
}

std::string NoteName(int k) { return "note" + std::to_string(k); }

namespace {

const char* const kAuthors[] = {"CHAUCER", "SHAKESPEARE", "MILTON",
                                "JOHNSON", "AUSTEN",      "DICKENS"};

// Mixes a seed with a stream number into an independent Rng seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Every term of the generated vocabulary is equally frequent, and so is
// every author and every ten-year date prefix, so the seed changes which
// regions a query selects but hardly what it costs.
std::string Term(Rng& rng) {
  return "\"term" + std::to_string(rng.Below(120)) + "\"";
}
std::string Author(Rng& rng) {
  return std::string("\"") + kAuthors[rng.Below(6)] + "\"";
}
std::string Decade(Rng& rng) {
  return "\"1" + std::to_string(4 + rng.Below(5)) +
         std::to_string(rng.Below(10)) + "*\"";
}

}  // namespace

std::vector<Query> ReadMix(Workload w) {
  // The mix is fixed: its parameters come from a constant, so every seed
  // reads the same queries and only their order differs.
  Rng rng(StreamSeed(kCorpusSeed, 1));
  std::vector<Query> mix = {
      {"headword within entry"},
      {"def within sense within entry"},
      {"author within quote within sense within entry"},
      {"quote including (author matching " + Author(rng) + ")"},
      {"entry including (def matching " + Term(rng) + ")"},
      {"sense including (quote including (date matching " + Decade(rng) +
       "))"},
      {"qtext matching " + Term(rng)},
      {"(sense including (def matching " + Term(rng) +
       ")) & (sense including (author matching " + Author(rng) + "))"},
  };
  if (w == Workload::kMixed) {
    for (int k = 0; k < kNotes; ++k) {
      const std::string note = NoteName(k);
      mix.push_back({"def within " + note, k});
      mix.push_back({"quote within " + note, k});
      mix.push_back({note + " including (author matching " + Author(rng) +
                         ")",
                     k});
      mix.push_back({"entry including " + note, k});
    }
  }
  return mix;
}

ReadSequence::ReadSequence(Workload w, uint64_t seed, int conn,
                           size_t mix_size)
    : workload_(w),
      rng_(StreamSeed(seed, 100 + static_cast<uint64_t>(conn))),
      mix_size_(mix_size) {
  for (size_t i = 0; i < std::min<size_t>(mix_size, 8); ++i) {
    cycle_.push_back(static_cast<int>(i));
  }
  for (size_t i = cycle_.size(); i > 1; --i) {
    std::swap(cycle_[i - 1], cycle_[rng_.Below(i)]);
  }
}

int ReadSequence::Next() {
  if (workload_ == Workload::kMixed && rng_.Below(3) == 0) {
    return static_cast<int>(8 + rng_.Below(mix_size_ - 8));
  }
  int index = cycle_[next_];
  next_ = (next_ + 1) % cycle_.size();
  return index;
}

std::string ColdQuery(uint64_t seed, int64_t i) {
  Rng rng(StreamSeed(seed, 1000 + static_cast<uint64_t>(i)));
  // Bushy plans whose structural joins take whole name sets as operands.
  // Every join's other operand combines two or three content selections,
  // so its parameter space (300 to 36,000 values) keeps the join itself a
  // cache miss within one run, while single selections and subtrees such
  // as `sense within entry` recur across queries and hit.
  const std::string a = Term(rng), b = Term(rng), c = Term(rng);
  const std::string who = Author(rng), when = Decade(rng);
  switch (rng.Below(8)) {
    case 0:
      return "(sense including ((def matching " + a + ") & (def matching " +
             b + "))) | (sense including (quote including ((author matching " +
             who + ") | (date matching " + when + "))))";
    case 1:
      return "(quote within (sense including ((def matching " + a +
             ") | (def matching " + b + ")))) - (quote including (qtext "
             "matching " + c + "))";
    case 2:
      return "entry including ((sense including (def matching " + a +
             ")) & (sense including (qtext matching " + b + ")))";
    case 3:
      return "((quote within sense within entry) & (quote including ((date "
             "matching " + when + ") | (author matching " + who +
             ")))) | ((qtext within quote) & (qtext matching " + a + "))";
    case 4:
      return "(def within (sense including ((qtext matching " + a +
             ") | (qtext matching " + b + ")))) | (def within (sense "
             "including (author matching " + who + ")))";
    case 5:
      return "(headword within (entry including ((qtext matching " + a +
             ") & (date matching " + when + ")))) | (headword within (entry "
             "including (def matching " + b + ")))";
    case 6:
      return "(sense within entry) - (sense including ((def matching " + a +
             ") | (qtext matching " + b + ")))";
    default:
      return "(entry including (sense including (quote including ((author "
             "matching " + who + ") & (qtext matching " + a +
             "))))) & (entry including ((def matching " + b +
             ") | (def matching " + c + ")))";
  }
}

RegionSet NoteVersion(const RegionSet& senses, uint64_t seed,
                      int64_t version) {
  Rng rng(StreamSeed(seed, version < 0 ? 7000 + static_cast<uint64_t>(
                                                    -version)
                                       : 1000000 + static_cast<uint64_t>(
                                                       version)));
  const size_t want = std::min<size_t>(senses.size(), 200 + rng.Below(201));
  std::vector<regal::Region> picked;
  picked.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    picked.push_back(senses[rng.Below(senses.size())]);
  }
  return RegionSet::FromUnsorted(std::move(picked));
}

namespace {

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace

uint64_t HashRows(const std::vector<std::string>& rows) {
  uint64_t h = kFnvBasis;
  for (const std::string& row : rows) {
    h = Fnv(h, row.data(), row.size());
    h = Fnv(h, "\n", 1);
  }
  return h;
}

Answer FromWire(const regal::server::Response& response) {
  Answer a;
  a.rows = response.row_count;
  a.rendered = HashRows(response.rows);
  return a;
}

bool Matches(const Answer& want, const Answer& got, bool full) {
  return want.rows == got.rows && want.rendered == got.rendered &&
         (!full || want.offsets == got.offsets);
}

Answer Fingerprint(const QueryAnswer& answer, const Instance& instance) {
  Answer a;
  a.rows = static_cast<int64_t>(answer.regions.size());
  uint64_t h = kFnvBasis;
  for (const regal::Region& r : answer.regions) {
    h = Fnv(h, &r.left, sizeof(r.left));
    h = Fnv(h, &r.right, sizeof(r.right));
  }
  a.offsets = h;
  // The service renders min(limit, rows) rows, and none for an empty answer.
  const int limit = static_cast<int>(std::min<int64_t>(kRowLimit, a.rows));
  a.rendered = HashRows(limit > 0 ? answer.Rows(instance, limit)
                                  : std::vector<std::string>{});
  return a;
}

std::unique_ptr<QueryEngine> MakeReference(const std::string& source) {
  regal::Result<Instance> instance = regal::ParseSgml(source);
  if (!instance.ok()) return nullptr;
  auto engine = std::make_unique<QueryEngine>(std::move(instance).value());
  engine->set_result_cache_enabled(false);
  engine->set_parallel_enabled(false);
  engine->set_telemetry_enabled(false);
  return engine;
}

regal::Result<Answer> ReferenceAnswer(QueryEngine* reference,
                                      const std::string& query) {
  // Unoptimized as well: the oracle shares no rewrite with the served path.
  regal::Result<QueryAnswer> answer = reference->Run(query, /*optimize=*/false);
  if (!answer.ok()) return answer.status();
  return Fingerprint(*answer, reference->instance());
}

}  // namespace perfbench
