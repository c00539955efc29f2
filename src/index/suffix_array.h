#ifndef REGAL_INDEX_SUFFIX_ARRAY_H_
#define REGAL_INDEX_SUFFIX_ARRAY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace regal {

/// A suffix array — the modern equivalent of the PAT array underlying the
/// Open Text PAT system [Gon87, Ope93] whose algebra the paper studies.
/// Construction is prefix doubling with counting sorts: O(n log n) in the
/// worst case, including texts that are one long run of a single byte.
/// Suffixes are distinct, so the array is unique and the build deterministic.
class SuffixArray {
 public:
  SuffixArray() = default;

  /// Builds the suffix array of `text`.
  explicit SuffixArray(std::string text);

  /// The indexed text.
  const std::string& text() const { return text_; }

  /// sa()[i] = starting offset of the i-th suffix in lexicographic order.
  const std::vector<int32_t>& sa() const { return sa_; }

  /// The half-open range [lo, hi) of suffix-array slots whose suffixes start
  /// with `prefix` (binary search, O(|prefix| log n)). Empty range if none.
  std::pair<int32_t, int32_t> EqualRange(std::string_view prefix) const;

 private:
  std::string text_;
  std::vector<int32_t> sa_;
};

}  // namespace regal

#endif  // REGAL_INDEX_SUFFIX_ARRAY_H_
