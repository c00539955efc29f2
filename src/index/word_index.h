#ifndef REGAL_INDEX_WORD_INDEX_H_
#define REGAL_INDEX_WORD_INDEX_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/suffix_array.h"
#include "text/pattern.h"
#include "text/text.h"
#include "text/tokenizer.h"

namespace regal {

/// The word index W of Definition 2.1, as an abstract interface: W(r, p)
/// holds iff some token fully contained in the inclusive byte range
/// [left, right] matches pattern p. SuffixArrayWordIndex implements it; the
/// tests check it against a naive scan of the tokens.
class WordIndex {
 public:
  virtual ~WordIndex() = default;

  /// All tokens matching `p`, sorted by (left, right). The evaluator calls
  /// this once per selection and then tests containment per region.
  virtual std::vector<Token> Matches(const Pattern& p) const = 0;

  /// W(r, p) for r = [left, right].
  virtual bool Contains(Offset left, Offset right, const Pattern& p) const;

  /// Number of token occurrences in the indexed text (for cost estimation).
  virtual int64_t NumTokens() const = 0;

  /// Number of distinct case-sensitive token spellings.
  virtual int64_t VocabularySize() const = 0;
};

namespace exec {
class ThreadPool;
}  // namespace exec

/// Word index over the vocabulary: every distinct case-sensitive spelling
/// gets an id and a postings list of its occurrences in text order, and a
/// suffix array (the PAT array of the system the paper studies) indexes the
/// lower-cased spellings joined by a separator. Since W(r, p) is about whole
/// tokens, the array need cover only the words, not the text.
///
/// An exact, case-sensitive pattern without '?' is one hash lookup. Any
/// other pattern binary-searches its literal core, verifies the full pattern
/// once per distinct spelling found, and merges the matching postings.
///
/// Construction tokenizes on the exec thread pool (see exec/parallel_text.h)
/// and builds the rest sequentially; the index is identical for every thread
/// count.
class SuffixArrayWordIndex : public WordIndex {
 public:
  /// Builds the index on the default thread pool. `text` must outlive the
  /// index.
  explicit SuffixArrayWordIndex(const Text* text);

  /// As above on `pool`; nullptr builds strictly sequentially.
  SuffixArrayWordIndex(const Text* text, exec::ThreadPool* pool);

  std::vector<Token> Matches(const Pattern& p) const override;
  int64_t NumTokens() const override {
    return static_cast<int64_t>(postings_.size());
  }
  int64_t VocabularySize() const override {
    return static_cast<int64_t>(starts_.size());
  }

  /// The suffix array over the lower-cased, separator-joined vocabulary.
  const SuffixArray& suffix_array() const { return suffix_array_; }

 private:
  /// The tokens spelled as vocabulary entry `id`, in text order.
  std::span<const Token> Postings(int32_t id) const;

  /// The case-sensitive spelling of vocabulary entry `id`.
  std::string_view Spelling(int32_t id) const;

  /// The tokens of the spellings `ids`, in text order.
  std::vector<Token> Occurrences(const std::vector<int32_t>& ids) const;

  const Text* text_;
  // Spelling -> id; the views point into text_.
  std::unordered_map<std::string_view, int32_t> ids_;
  // The tokens of id k, in text order, are postings_[offsets_[k],
  // offsets_[k + 1]); offsets_ has VocabularySize() + 1 entries.
  std::vector<Token> postings_;
  std::vector<int32_t> offsets_;
  // starts_[k] = offset of id k's spelling in suffix_array_.text().
  std::vector<int32_t> starts_;
  SuffixArray suffix_array_;
};

}  // namespace regal

#endif  // REGAL_INDEX_WORD_INDEX_H_
