#ifndef REGAL_TEXT_PATTERN_H_
#define REGAL_TEXT_PATTERN_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace regal {

/// A word pattern for the selection operator sigma_p. The paper makes no
/// assumption about the pattern language (it models the word index as an
/// opaque predicate W(r, p)); we provide the language actually offered by
/// PAT-era systems:
///
///   foo       exact word match
///   foo*      prefix match
///   *foo      suffix match
///   *foo*     infix (substring-of-word) match
///   f?o       `?` matches exactly one character (anywhere in the body)
///   (flag)    ASCII case-insensitive matching
///
/// A pattern matches *tokens* (words); W(r, p) holds iff some token lying
/// inside region r matches p. The word index and the tests' naive token
/// scan share this semantics so they can be cross-checked.
class Pattern {
 public:
  /// Parses the textual pattern syntax above. Errors on an empty body
  /// (e.g. "", "*", "**").
  static Result<Pattern> Parse(std::string_view spec,
                               bool case_insensitive = false);

  /// Inverse of CacheKey(): parses "s:<spec>" / "i:<spec>".
  static Result<Pattern> FromCacheKey(std::string_view key);

  /// True iff the whole token matches this pattern.
  bool MatchesToken(std::string_view token) const;

  /// The longest wildcard-free literal run of the pattern body, used by the
  /// word index's suffix array to narrow candidates before a full match.
  /// For case-insensitive patterns the core is lower-cased.
  const std::string& LiteralCore() const { return literal_core_; }

  bool anchored_front() const { return anchored_front_; }
  bool anchored_back() const { return anchored_back_; }
  bool case_insensitive() const { return case_insensitive_; }

  /// The body (pattern text without the leading/trailing '*').
  const std::string& body() const { return body_; }

  /// Canonical textual form (re-parsable).
  std::string ToString() const;

  /// Stable key used to memoize selection results and to name the monadic
  /// predicate Q_{n+j} assigned to this pattern in FMFT models.
  std::string CacheKey() const;

  bool operator==(const Pattern& other) const {
    return body_ == other.body_ && anchored_front_ == other.anchored_front_ &&
           anchored_back_ == other.anchored_back_ &&
           case_insensitive_ == other.case_insensitive_;
  }

 private:
  Pattern() = default;

  std::string body_;          // Pattern text without anchors; may contain '?'.
  std::string literal_core_;  // Longest '?'-free run of body_ (lower-cased if ci).
  bool anchored_front_ = true;  // No leading '*'.
  bool anchored_back_ = true;   // No trailing '*'.
  bool case_insensitive_ = false;
};

}  // namespace regal

#endif  // REGAL_TEXT_PATTERN_H_
