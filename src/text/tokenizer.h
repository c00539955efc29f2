#ifndef REGAL_TEXT_TOKENIZER_H_
#define REGAL_TEXT_TOKENIZER_H_

#include <string_view>
#include <vector>

#include "text/text.h"

namespace regal {

/// A word occurrence: inclusive byte range [left, right] within a Text.
/// These are the "match points" of the PAT word index, widened to carry the
/// token extent so that W(r, p) can test full containment in r.
struct Token {
  Offset left;
  Offset right;  // Inclusive offset of the last byte.

  bool operator==(const Token& other) const {
    return left == other.left && right == other.right;
  }
};

/// Splits text into tokens: maximal runs of [A-Za-z0-9_]. Deterministic and
/// locale independent. The word index and the tests' naive token scan
/// tokenize with this function so their W(r, p) predicates agree.
std::vector<Token> Tokenize(std::string_view text);

/// The token text for `t` within `text`.
std::string_view TokenText(std::string_view text, const Token& t);

}  // namespace regal

#endif  // REGAL_TEXT_TOKENIZER_H_
