#include "index/word_index.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "exec/parallel_text.h"
#include "exec/thread_pool.h"
#include "obs/counters.h"
#include "obs/metrics.h"
#include "safety/failpoint.h"
#include "util/stringutil.h"

namespace regal {

namespace {

// Degrade failpoint for index construction: a nullptr pool is the documented
// strictly-sequential build, so firing simply reroutes there while recording
// the fallback for explain/metrics consumers.
exec::ThreadPool* MaybeDegradeBuild(exec::ThreadPool* pool) {
  if (pool == nullptr || !safety::FailpointFires("index.build.degrade")) {
    return pool;
  }
  obs::Registry::Default()
      .GetCounter("regal_safety_index_build_fallbacks_total",
                  {{"index", "suffix_array"}})
      ->Increment();
  return nullptr;
}

}  // namespace

bool WordIndex::Contains(Offset left, Offset right, const Pattern& p) const {
  // Default implementation in terms of Matches; subclasses may override
  // with early-exit variants.
  for (const Token& t : Matches(p)) {
    if (t.left >= left && t.right <= right) return true;
    if (t.left > right) break;
  }
  return false;
}

SuffixArrayWordIndex::SuffixArrayWordIndex(const Text* text)
    : SuffixArrayWordIndex(text, &exec::ThreadPool::Default()) {}

SuffixArrayWordIndex::SuffixArrayWordIndex(const Text* text,
                                           exec::ThreadPool* pool)
    : text_(text) {
  std::string_view content(text->content());
  const std::vector<Token> tokens =
      exec::ParallelTokenize(content, MaybeDegradeBuild(pool));
  // Ids in order of first occurrence, then a counting sort of the tokens by
  // id; the sort is stable, so every postings list stays in text order.
  std::vector<int32_t> token_ids(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    auto it = ids_.try_emplace(TokenText(content, tokens[i]),
                               static_cast<int32_t>(ids_.size()))
                  .first;
    token_ids[i] = it->second;
  }
  const size_t vocabulary = ids_.size();
  offsets_.assign(vocabulary + 1, 0);
  for (int32_t id : token_ids) ++offsets_[static_cast<size_t>(id) + 1];
  for (size_t k = 0; k < vocabulary; ++k) offsets_[k + 1] += offsets_[k];
  std::vector<int32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  postings_.resize(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    int32_t& next = cursor[static_cast<size_t>(token_ids[i])];
    postings_[static_cast<size_t>(next++)] = tokens[i];
  }

  // Tokens are runs of identifier bytes, so no spelling contains the space
  // that separates them: a core hit that straddles two spellings has a
  // space in the core, and verification rejects every token for it.
  std::string joined;
  starts_.reserve(vocabulary);
  for (size_t k = 0; k < vocabulary; ++k) {
    starts_.push_back(static_cast<int32_t>(joined.size()));
    joined += ToLowerAscii(Spelling(static_cast<int32_t>(k)));
    joined += ' ';
  }
  suffix_array_ = SuffixArray(std::move(joined));
}

std::span<const Token> SuffixArrayWordIndex::Postings(int32_t id) const {
  const auto k = static_cast<size_t>(id);
  return std::span<const Token>(postings_).subspan(
      static_cast<size_t>(offsets_[k]),
      static_cast<size_t>(offsets_[k + 1] - offsets_[k]));
}

std::string_view SuffixArrayWordIndex::Spelling(int32_t id) const {
  return TokenText(text_->content(), Postings(id).front());
}

std::vector<Token> SuffixArrayWordIndex::Occurrences(
    const std::vector<int32_t>& ids) const {
  size_t total = 0;
  for (int32_t id : ids) total += Postings(id).size();
  std::vector<Token> out;
  out.reserve(total);
  for (int32_t id : ids) {
    std::span<const Token> tokens = Postings(id);
    out.insert(out.end(), tokens.begin(), tokens.end());
  }
  if (ids.size() > 1) {
    // Tokens never overlap, so ordering by left is (left, right) order.
    std::sort(out.begin(), out.end(), [](const Token& a, const Token& b) {
      return a.left < b.left;
    });
  }
  return out;
}

std::vector<Token> SuffixArrayWordIndex::Matches(const Pattern& p) const {
  std::vector<int32_t> matched;
  int64_t probes = 0;
  int64_t comparisons = 0;
  const bool exact = p.anchored_front() && p.anchored_back() &&
                     !p.case_insensitive() &&
                     p.body().find('?') == std::string::npos;
  if (exact) {
    probes = 1;
    auto it = ids_.find(p.body());
    if (it != ids_.end()) matched.push_back(it->second);
  } else {
    // Candidate spellings: those containing the lower-cased literal core (a
    // suffix-array range, one slot per occurrence), or every spelling when
    // the body is all '?'.
    std::vector<int32_t> candidates;
    const std::string& core = p.LiteralCore();
    if (core.empty()) {
      candidates.resize(starts_.size());
      std::iota(candidates.begin(), candidates.end(), 0);
      probes = static_cast<int64_t>(candidates.size());
    } else {
      auto [lo, hi] = suffix_array_.EqualRange(ToLowerAscii(core));
      probes = hi - lo;
      candidates.reserve(static_cast<size_t>(hi - lo));
      for (int32_t slot = lo; slot < hi; ++slot) {
        const int32_t pos = suffix_array_.sa()[static_cast<size_t>(slot)];
        auto owner = std::upper_bound(starts_.begin(), starts_.end(), pos);
        candidates.push_back(
            static_cast<int32_t>(owner - starts_.begin() - 1));
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    }
    // Verify the full pattern once per distinct spelling, in its original
    // case.
    for (int32_t id : candidates) {
      ++comparisons;
      if (p.MatchesToken(Spelling(id))) matched.push_back(id);
    }
  }
  if (obs::OpCounters* sink = obs::CountersSink()) {
    // One probe per suffix-array slot, vocabulary entry scanned or hash
    // lookup; one comparison per full-pattern verification of a spelling.
    sink->index_probes += probes;
    sink->comparisons += comparisons;
  }
  return Occurrences(matched);
}

}  // namespace regal
