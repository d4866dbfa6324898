#include "nbtinoc/util/strings.hpp"

#include <gtest/gtest.h>

namespace nbtinoc::util {
namespace {

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\ta b\n"), "a b");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("Sensor-Wise"), "sensor-wise");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("rr-no-sensor", "rr"));
  EXPECT_FALSE(starts_with("rr", "rr-no-sensor"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Strings, ExactAndDigestDoubles) {
  EXPECT_EQ(exact_double(0.1), "0.10000000000000001");
  EXPECT_EQ(exact_double(30.0), "30");
  // Six decimals that read back keep their std::to_string bytes.
  EXPECT_EQ(digest_double(0.2), "0.200000");
  EXPECT_EQ(digest_double(0.05), "0.050000");
  EXPECT_EQ(digest_double(30.0), "30.000000");
  // Otherwise the exact spelling follows, so nearby values differ.
  EXPECT_EQ(digest_double(0.0500001), "0.050000[0.050000099999999999]");
  EXPECT_NE(digest_double(0.05), digest_double(0.0500001));
  EXPECT_NE(digest_double(1e-9), digest_double(2e-9));
}

}  // namespace
}  // namespace nbtinoc::util
