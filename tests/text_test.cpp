#include <gtest/gtest.h>

#include "text/pattern.h"
#include "text/text.h"
#include "text/tokenizer.h"

namespace regal {
namespace {

TEST(TextTest, SliceInclusive) {
  Text t("hello world");
  EXPECT_EQ(t.Slice(0, 4), "hello");
  EXPECT_EQ(t.Slice(6, 10), "world");
  EXPECT_EQ(t.Slice(4, 6), "o w");
}

TEST(TextTest, LineAndColumn) {
  Text t("ab\ncd\nef");
  EXPECT_EQ(t.LineOf(0), 1);
  EXPECT_EQ(t.LineOf(2), 1);  // The newline belongs to line 1.
  EXPECT_EQ(t.LineOf(3), 2);
  EXPECT_EQ(t.LineOf(7), 3);
  EXPECT_EQ(t.ColumnOf(3), 1);
  EXPECT_EQ(t.ColumnOf(4), 2);
}

TEST(TextTest, SnippetEllipsizes) {
  Text t(std::string(200, 'x'));
  std::string snippet = t.Snippet(0, 199, 20);
  EXPECT_EQ(snippet.size(), 20u);
  EXPECT_TRUE(snippet.ends_with("..."));
}

TEST(TextTest, SnippetFlattensNewlines) {
  Text t("a\nb\tc");
  EXPECT_EQ(t.Snippet(0, 4), "a b c");
}

TEST(TokenizerTest, BasicWords) {
  auto tokens = Tokenize("foo bar_baz 42");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], (Token{0, 2}));
  EXPECT_EQ(tokens[1], (Token{4, 10}));
  EXPECT_EQ(tokens[2], (Token{12, 13}));
}

TEST(TokenizerTest, PunctuationSkipped) {
  auto tokens = Tokenize("a,b;(c)");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(TokenText("a,b;(c)", tokens[2]), "c");
}

TEST(TokenizerTest, EmptyAndAllPunct) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize(" .,;! ").empty());
}

TEST(PatternTest, ExactWord) {
  auto p = Pattern::Parse("foo");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("foo"));
  EXPECT_FALSE(p->MatchesToken("food"));
  EXPECT_FALSE(p->MatchesToken("Foo"));
  EXPECT_EQ(p->ToString(), "foo");
}

TEST(PatternTest, PrefixPattern) {
  auto p = Pattern::Parse("foo*");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("foo"));
  EXPECT_TRUE(p->MatchesToken("food"));
  EXPECT_FALSE(p->MatchesToken("xfoo"));
}

TEST(PatternTest, SuffixPattern) {
  auto p = Pattern::Parse("*ing");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("querying"));
  EXPECT_TRUE(p->MatchesToken("ing"));
  EXPECT_FALSE(p->MatchesToken("ingot"));
}

TEST(PatternTest, InfixPattern) {
  auto p = Pattern::Parse("*reg*");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("regions"));
  EXPECT_TRUE(p->MatchesToken("aggregate"));
  EXPECT_FALSE(p->MatchesToken("rigs"));
}

TEST(PatternTest, QuestionMarkWildcard) {
  auto p = Pattern::Parse("f?o");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("foo"));
  EXPECT_TRUE(p->MatchesToken("fio"));
  EXPECT_FALSE(p->MatchesToken("fo"));
  EXPECT_FALSE(p->MatchesToken("fooo"));
}

TEST(PatternTest, CaseInsensitive) {
  auto p = Pattern::Parse("Foo", /*case_insensitive=*/true);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->MatchesToken("foo"));
  EXPECT_TRUE(p->MatchesToken("FOO"));
  EXPECT_NE(p->CacheKey(), Pattern::Parse("Foo")->CacheKey());
}

TEST(PatternTest, LiteralCore) {
  auto p = Pattern::Parse("ab?cde?f");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->LiteralCore(), "cde");
}

TEST(PatternTest, CoreLowercasedWhenInsensitive) {
  auto p = Pattern::Parse("ABC", /*case_insensitive=*/true);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->LiteralCore(), "abc");
}

TEST(PatternTest, EmptyBodyRejected) {
  EXPECT_FALSE(Pattern::Parse("").ok());
  EXPECT_FALSE(Pattern::Parse("*").ok());
  EXPECT_FALSE(Pattern::Parse("**").ok());
}

TEST(PatternTest, InteriorStarRejected) {
  EXPECT_FALSE(Pattern::Parse("a*b").ok());
}

TEST(PatternTest, RoundTrip) {
  for (const char* spec : {"foo", "foo*", "*foo", "*f?o*", "a?c"}) {
    auto p = Pattern::Parse(spec);
    ASSERT_TRUE(p.ok()) << spec;
    EXPECT_EQ(p->ToString(), spec);
    auto reparsed = Pattern::Parse(p->ToString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_TRUE(*p == *reparsed);
  }
}

TEST(PatternTest, AllWildcardBodyHasEmptyCore) {
  auto p = Pattern::Parse("???");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->LiteralCore(), "");
  EXPECT_TRUE(p->MatchesToken("abc"));
  EXPECT_FALSE(p->MatchesToken("ab"));
}

}  // namespace
}  // namespace regal
