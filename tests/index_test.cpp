#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "index/suffix_array.h"
#include "index/word_index.h"
#include "util/random.h"

namespace regal {
namespace {

std::vector<int32_t> NaiveOccurrences(const std::string& text,
                                      const std::string& pattern) {
  std::vector<int32_t> out;
  if (pattern.empty()) return out;
  size_t pos = 0;
  while ((pos = text.find(pattern, pos)) != std::string::npos) {
    out.push_back(static_cast<int32_t>(pos));
    ++pos;
  }
  return out;
}

// Text offsets of all occurrences of `prefix`, in text order.
std::vector<int32_t> Occurrences(const SuffixArray& sa,
                                 const std::string& prefix) {
  auto [lo, hi] = sa.EqualRange(prefix);
  std::vector<int32_t> out(sa.sa().begin() + lo, sa.sa().begin() + hi);
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSorted(const SuffixArray& sa) {
  const std::string& text = sa.text();
  ASSERT_EQ(sa.sa().size(), text.size());
  for (size_t i = 1; i < sa.sa().size(); ++i) {
    EXPECT_LT(text.compare(static_cast<size_t>(sa.sa()[i - 1]),
                           std::string::npos, text,
                           static_cast<size_t>(sa.sa()[i])),
              0)
        << "slot " << i;
  }
}

TEST(SuffixArrayTest, Banana) {
  SuffixArray sa("banana");
  EXPECT_EQ(sa.sa(), (std::vector<int32_t>{5, 3, 1, 0, 4, 2}));
  EXPECT_EQ(Occurrences(sa, "ana"), (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(Occurrences(sa, "nan"), (std::vector<int32_t>{2}));
  EXPECT_TRUE(Occurrences(sa, "xyz").empty());
}

TEST(SuffixArrayTest, SortedProperty) {
  ExpectSorted(SuffixArray("mississippi"));
  // Runs of one byte are the doubling's worst case: every round leaves
  // ties until the run length is reached.
  ExpectSorted(SuffixArray(std::string(3000, 'x')));
  ExpectSorted(SuffixArray(std::string(1500, 'x') + " " +
                           std::string(1500, 'x') + " " +
                           std::string(700, 'y')));
}

TEST(SuffixArrayTest, EmptyText) {
  SuffixArray sa("");
  EXPECT_TRUE(sa.sa().empty());
  auto [lo, hi] = sa.EqualRange("a");
  EXPECT_EQ(lo, hi);
}

TEST(SuffixArrayTest, RandomTextsMatchNaiveSearch) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::string text;
    int len = static_cast<int>(20 + rng.Below(200));
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>('a' + rng.Below(3));
    }
    SuffixArray sa(text);
    ExpectSorted(sa);
    for (int q = 0; q < 20; ++q) {
      std::string pattern;
      int plen = static_cast<int>(1 + rng.Below(4));
      for (int i = 0; i < plen; ++i) {
        pattern += static_cast<char>('a' + rng.Below(3));
      }
      EXPECT_EQ(Occurrences(sa, pattern), NaiveOccurrences(text, pattern))
          << "text=" << text << " pattern=" << pattern;
    }
  }
}

// The naive token-scan oracle for W: tokenize, then test every token.
std::vector<Token> NaiveMatches(std::string_view text, const Pattern& p) {
  std::vector<Token> out;
  for (const Token& t : Tokenize(text)) {
    if (p.MatchesToken(TokenText(text, t))) out.push_back(t);
  }
  return out;
}

// Matches(p) equals the oracle's answer and is strictly increasing.
void ExpectMatchesOracle(const WordIndex& index, std::string_view text,
                         const Pattern& p) {
  const std::vector<Token> got = index.Matches(p);
  EXPECT_EQ(got, NaiveMatches(text, p))
      << p.CacheKey() << " text=" << text.substr(0, 200);
  for (size_t i = 1; i < got.size(); ++i) {
    ASSERT_LT(got[i - 1].right, got[i].left) << p.CacheKey();
  }
}

class WordIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = std::make_unique<Text>(
        "the quick brown fox jumps over the lazy dog; "
        "the Quick fox_trot quip equip Quixote");
    sa_index_ = std::make_unique<SuffixArrayWordIndex>(text_.get());
  }

  std::unique_ptr<Text> text_;
  std::unique_ptr<SuffixArrayWordIndex> sa_index_;
};

TEST_F(WordIndexTest, ExactWord) {
  auto p = *Pattern::Parse("fox");
  auto matches = sa_index_->Matches(p);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(TokenText(text_->content(), matches[0]), "fox");
}

TEST_F(WordIndexTest, PrefixWord) {
  auto p = *Pattern::Parse("qui*");
  auto matches = sa_index_->Matches(p);
  // quick, quip (case-sensitive: Quick and Quixote excluded).
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(WordIndexTest, CaseInsensitivePrefix) {
  auto p = *Pattern::Parse("qui*", /*case_insensitive=*/true);
  EXPECT_EQ(sa_index_->Matches(p).size(), 4u);
}

TEST_F(WordIndexTest, InfixPattern) {
  auto p = *Pattern::Parse("*ui*");
  // quick, Quick(no: case-sensitive ui present: Q-u-i yes 'ui' at 1), quip,
  // equip, Quixote: all contain "ui".
  EXPECT_EQ(sa_index_->Matches(p).size(), 5u);
}

TEST_F(WordIndexTest, ImplementationsAgree) {
  // The index against the naive token scan on a fixed text.
  const char* specs[] = {"the", "qui*", "*ip", "*ui*", "q???k", "fox_trot",
                         "dog", "zebra", "f?x", "e; t", "*", "?????"};
  for (const char* spec : specs) {
    for (bool ci : {false, true}) {
      auto p = Pattern::Parse(spec, ci);
      if (!p.ok()) continue;  // "*" has an empty body.
      ExpectMatchesOracle(*sa_index_, text_->content(), *p);
    }
  }
}

TEST_F(WordIndexTest, ContainsRespectsRange) {
  auto p = *Pattern::Parse("fox");
  // First "fox" token is at offsets 16..18.
  EXPECT_TRUE(sa_index_->Contains(0, 25, p));
  EXPECT_FALSE(sa_index_->Contains(0, 15, p));
  EXPECT_FALSE(sa_index_->Contains(17, 30, p));  // Token only partially inside.
}

TEST_F(WordIndexTest, TokenCountsAgree) {
  const std::vector<Token> tokens = Tokenize(text_->content());
  std::set<std::string_view> spellings;
  for (const Token& t : tokens) {
    spellings.insert(TokenText(text_->content(), t));
  }
  EXPECT_EQ(sa_index_->NumTokens(), static_cast<int64_t>(tokens.size()));
  // "the" occurs three times; "quick" and "Quick" are distinct spellings.
  EXPECT_EQ(sa_index_->VocabularySize(),
            static_cast<int64_t>(spellings.size()));
  EXPECT_LT(sa_index_->VocabularySize(), sa_index_->NumTokens());
}

// A random text over a small alphabet so that spellings repeat: mixed-case
// spellings of one word, digits and '_', 1,500-byte runs of one byte (both
// a single long token and a long gap), markup and empty text.
std::string RandomText(Rng& rng) {
  static const char* const kWords[] = {"term1", "Term1", "TERM1", "term10",
                                       "t_1",   "_",     "9",     "a9_b",
                                       "xx",    "Ab",    "aB",    "ab"};
  static const char* const kGaps[] = {" ", "  ", "<p>", "</p>", "-", "\n",
                                      "; "};
  const int pieces = static_cast<int>(rng.Below(60));
  std::string text;
  for (int i = 0; i < pieces; ++i) {
    switch (rng.Below(10)) {
      case 0:
        text += std::string(1500, rng.Below(2) == 0 ? 'x' : 'a');
        break;
      case 1:
        text += std::string(1500, ' ');
        break;
      case 2:
      case 3:
        for (int j = static_cast<int>(1 + rng.Below(4)); j > 0; --j) {
          text += "aAbB019_"[rng.Below(8)];
        }
        break;
      default:
        text += kWords[rng.Below(std::size(kWords))];
    }
    text += kGaps[rng.Below(std::size(kGaps))];
  }
  return text;
}

// Patterns of every shape, cut from a spelling that occurs in the text (or
// from a fixed word when the text has no tokens).
std::vector<std::string> PatternSpecs(Rng& rng, std::string_view word) {
  const size_t n = word.size();
  const size_t cut = 1 + rng.Below(n);  // In [1, n].
  const size_t from = rng.Below(n);
  const size_t len = 1 + rng.Below(n - from);
  std::string wild(word);
  wild[rng.Below(n)] = '?';
  std::vector<std::string> specs = {
      std::string(word),                                   // exact
      std::string(word.substr(0, cut)) + "*",              // prefix
      "*" + std::string(word.substr(n - cut)),             // suffix
      "*" + std::string(word.substr(from, len)) + "*",     // infix
      wild,                                                // '?'
      "*" + wild + "*",                                    // '?' infix
      std::string(n, '?'),                                 // all '?'
      std::string(1 + rng.Below(3), '?') + "*",            // all '?' prefix
  };
  // A flipped-case variant, useful for both case settings.
  std::string flipped(word);
  for (char& c : flipped) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    else if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  specs.push_back(flipped);
  specs.push_back(flipped.substr(0, cut) + "*");
  return specs;
}

TEST(WordIndexRandomTest, ImplementationsAgreeOnRandomText) {
  // Seeded property test: the index against the naive token-scan oracle.
  Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    Text text(trial == 0 ? std::string() : RandomText(rng));
    SuffixArrayWordIndex index(&text);
    const std::vector<Token> tokens = Tokenize(text.content());
    for (int q = 0; q < 6; ++q) {
      std::string word =
          tokens.empty()
              ? std::string("term1")
              : std::string(TokenText(
                    text.content(), tokens[rng.Below(tokens.size())]));
      for (const std::string& spec : PatternSpecs(rng, word)) {
        for (bool ci : {false, true}) {
          ExpectMatchesOracle(index, text.content(),
                              *Pattern::Parse(spec, ci));
        }
      }
    }
  }
}

}  // namespace
}  // namespace regal
