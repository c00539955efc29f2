#include "index/suffix_array.h"

#include <algorithm>

namespace regal {

SuffixArray::SuffixArray(std::string text) : text_(std::move(text)) {
  const size_t n = text_.size();
  sa_.resize(n);
  if (n == 0) return;
  auto byte = [&](size_t i) { return static_cast<unsigned char>(text_[i]); };

  // Round 0: counting sort by the first byte. rank[i] is the class of suffix
  // i by its first `len` bytes; classes are dense and ordered like the
  // prefixes they stand for.
  std::vector<int32_t> count(256, 0);
  for (size_t i = 0; i < n; ++i) ++count[byte(i)];
  for (size_t c = 1; c < count.size(); ++c) count[c] += count[c - 1];
  for (size_t i = n; i-- > 0;) {
    sa_[static_cast<size_t>(--count[byte(i)])] = static_cast<int32_t>(i);
  }
  std::vector<int32_t> rank(n);
  size_t classes = 1;
  rank[static_cast<size_t>(sa_[0])] = 0;
  for (size_t j = 1; j < n; ++j) {
    const size_t a = static_cast<size_t>(sa_[j - 1]);
    const size_t b = static_cast<size_t>(sa_[j]);
    if (byte(a) != byte(b)) ++classes;
    rank[b] = static_cast<int32_t>(classes - 1);
  }

  // Each round doubles `len` with two linear passes, so the worst case is
  // O(n log n) whatever the text; a round-based std::sort would pay another
  // log factor, and a direct sort of suffixes is quadratic on long runs.
  std::vector<int32_t> by_second(n);
  std::vector<int32_t> next(n);
  for (size_t len = 1; classes < n; len *= 2) {
    // Suffixes in order of their second key, rank[i + len]. Suffixes with
    // no second half have the empty key and come first; the rest follow the
    // current order of the suffix starting `len` later.
    size_t p = 0;
    for (size_t i = n - len; i < n; ++i) {
      by_second[p++] = static_cast<int32_t>(i);
    }
    for (size_t j = 0; j < n; ++j) {
      if (static_cast<size_t>(sa_[j]) >= len) {
        by_second[p++] = sa_[j] - static_cast<int32_t>(len);
      }
    }
    // Stable counting sort by the first key.
    count.assign(classes, 0);
    for (size_t i = 0; i < n; ++i) ++count[static_cast<size_t>(rank[i])];
    for (size_t c = 1; c < classes; ++c) count[c] += count[c - 1];
    for (size_t j = n; j-- > 0;) {
      const int32_t s = by_second[j];
      int32_t& slot = count[static_cast<size_t>(rank[static_cast<size_t>(s)])];
      sa_[static_cast<size_t>(--slot)] = s;
    }
    auto second = [&](int32_t i) {
      const size_t k = static_cast<size_t>(i) + len;
      return k < n ? rank[k] : -1;
    };
    classes = 1;
    next[static_cast<size_t>(sa_[0])] = 0;
    for (size_t j = 1; j < n; ++j) {
      const int32_t a = sa_[j - 1];
      const int32_t b = sa_[j];
      if (rank[static_cast<size_t>(a)] != rank[static_cast<size_t>(b)] ||
          second(a) != second(b)) {
        ++classes;
      }
      next[static_cast<size_t>(b)] = static_cast<int32_t>(classes - 1);
    }
    rank.swap(next);
  }
}

std::pair<int32_t, int32_t> SuffixArray::EqualRange(
    std::string_view prefix) const {
  std::string_view text(text_);
  auto starts_less = [&](int32_t suffix_start, std::string_view p) {
    return text.substr(static_cast<size_t>(suffix_start), p.size()) < p;
  };
  auto p_less = [&](std::string_view p, int32_t suffix_start) {
    return p < text.substr(static_cast<size_t>(suffix_start), p.size());
  };
  auto lo = std::lower_bound(sa_.begin(), sa_.end(), prefix, starts_less);
  auto hi = std::upper_bound(lo, sa_.end(), prefix, p_less);
  return {static_cast<int32_t>(lo - sa_.begin()),
          static_cast<int32_t>(hi - sa_.begin())};
}

}  // namespace regal
