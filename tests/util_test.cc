#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "util/bigint.h"
#include "util/interner.h"
#include "util/rational.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace cqa {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(InternerTest, RoundTrip) {
  SymbolId a = InternSymbol("alpha");
  SymbolId b = InternSymbol("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(InternSymbol("alpha"), a);
  EXPECT_EQ(SymbolName(a), "alpha");
  EXPECT_EQ(SymbolName(b), "beta");
}

TEST(InternerTest, EmptySymbolIsZero) { EXPECT_EQ(InternSymbol(""), 0u); }

TEST(InternerTest, FailsClosedAtItsCap) {
  Interner interner(4);  // the empty symbol plus three
  SymbolId a = *interner.TryIntern("a");
  SymbolId b = *interner.TryIntern("b");
  SymbolId c = interner.Intern("c");
  EXPECT_EQ(interner.size(), 4u);
  // A new name past the cap is refused and appends nothing ...
  EXPECT_FALSE(interner.TryIntern("d").has_value());
  EXPECT_EQ(interner.size(), 4u);
  // ... while known names keep resolving, alone and in a batch.
  EXPECT_EQ(interner.TryIntern("b"), b);
  std::string_view known[] = {"c", "a", "b", "a"};
  SymbolId ids[4];
  ASSERT_TRUE(interner.InternBatch(known, 4, ids));
  EXPECT_EQ(std::vector<SymbolId>(ids, ids + 4),
            (std::vector<SymbolId>{c, a, b, a}));
  std::string_view mixed[] = {"a", "e", "c"};
  EXPECT_FALSE(interner.InternBatch(mixed, 3, ids));
  EXPECT_EQ(interner.size(), 4u);
  EXPECT_EQ(interner.stats().misses, 3u);
  // The cap moves; raising it lets growth resume.
  interner.set_max_symbols(5);
  std::optional<SymbolId> d = interner.TryIntern("d");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(interner.Lookup(*d), "d");
  // Intern cannot fail, so past the cap it stops the process.
  EXPECT_DEATH(interner.Intern("f"), "symbol space exhausted");
}

TEST(InternerTest, CapIsClampedToTheBlockDirectory) {
  Interner huge(std::numeric_limits<size_t>::max());
  EXPECT_EQ(huge.max_symbols(), size_t{1} << 24);
  Interner tiny(0);  // still holds the reserved empty symbol
  EXPECT_EQ(tiny.max_symbols(), 1u);
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_FALSE(tiny.TryIntern("x").has_value());
  EXPECT_LT(Interner::kDefaultMaxSymbols, size_t{1} << 24);
  EXPECT_EQ(GlobalInterner().max_symbols(), Interner::kDefaultMaxSymbols);
}

TEST(BigIntTest, SmallArithmetic) {
  EXPECT_EQ((BigInt(7) + BigInt(35)).ToString(), "42");
  EXPECT_EQ((BigInt(7) - BigInt(35)).ToString(), "-28");
  EXPECT_EQ((BigInt(-6) * BigInt(7)).ToString(), "-42");
  EXPECT_EQ((BigInt(100) / BigInt(7)).ToString(), "14");
  EXPECT_EQ((BigInt(100) % BigInt(7)).ToString(), "2");
}

TEST(BigIntTest, NegativeDivisionTruncates) {
  EXPECT_EQ((BigInt(-100) / BigInt(7)).ToInt64(), -14);
  EXPECT_EQ((BigInt(-100) % BigInt(7)).ToInt64(), -2);
  EXPECT_EQ((BigInt(100) / BigInt(-7)).ToInt64(), -14);
}

TEST(BigIntTest, LargeMultiplication) {
  // 2^128 computed by repeated squaring of 2^32.
  BigInt two32(int64_t{1} << 32);
  BigInt v = two32 * two32;        // 2^64
  v = v * v;                       // 2^128
  EXPECT_EQ(v.ToString(), "340282366920938463463374607431768211456");
}

TEST(BigIntTest, StringRoundTrip) {
  const std::string big = "123456789012345678901234567890";
  EXPECT_EQ(BigInt::FromString(big).ToString(), big);
  EXPECT_EQ(BigInt::FromString("-" + big).ToString(), "-" + big);
  EXPECT_EQ(BigInt::FromString("0").ToString(), "0");
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(2), BigInt(10));
  EXPECT_LT(BigInt(-10), BigInt(-2));
  EXPECT_EQ(BigInt(0), BigInt(0) * BigInt(-17));
}

TEST(BigIntTest, GcdMagnitudes) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(-18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToInt64(), 5);
}

TEST(BigIntTest, Int64Boundaries) {
  EXPECT_EQ(BigInt(INT64_MIN).ToString(), "-9223372036854775808");
  EXPECT_EQ(BigInt(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).ToInt64(), INT64_MIN);
}

TEST(RationalTest, ReducesToLowestTerms) {
  Rational r(BigInt(6), BigInt(8));
  EXPECT_EQ(r.ToString(), "3/4");
  Rational neg(BigInt(3), BigInt(-6));
  EXPECT_EQ(neg.ToString(), "-1/2");
}

TEST(RationalTest, Arithmetic) {
  Rational half(BigInt(1), BigInt(2));
  Rational third(BigInt(1), BigInt(3));
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half / third).ToString(), "3/2");
}

TEST(RationalTest, ExactComparison) {
  Rational a(BigInt(1), BigInt(3));
  Rational b(BigInt(333333333), BigInt(1000000000));
  EXPECT_LT(b, a);
  EXPECT_NE(a, b);
}

TEST(RationalTest, OneMinusProbability) {
  // 1 - 3/4 == 1/4: exactness matters for Proposition 1 checks.
  Rational p(BigInt(3), BigInt(4));
  EXPECT_EQ((Rational::One() - p).ToString(), "1/4");
  EXPECT_TRUE((p + (Rational::One() - p)).is_one());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(StripWhitespace("  x \n"), "x");
  EXPECT_TRUE(StartsWith("relation R", "relation"));
}

}  // namespace
}  // namespace cqa
