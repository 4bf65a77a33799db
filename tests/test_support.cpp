#include <gtest/gtest.h>

#include <cstdio>

#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace ac {
namespace {

TEST(Strings, SplitViewKeepsEmptyFields) {
  auto parts = split_view("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitDropsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, SplitSingleField) {
  auto parts = split_view("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, ParseI64) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_i64(" 13 "), 13);
  EXPECT_THROW(parse_i64("12x"), Error);
  EXPECT_THROW(parse_i64(""), Error);
  EXPECT_THROW(parse_i64("-"), Error);
  // The int64 range holds exactly; one past either end is an error, not a
  // saturated value.
  EXPECT_EQ(parse_i64("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
  EXPECT_THROW(parse_i64("9223372036854775808"), Error);
  EXPECT_THROW(parse_i64("-9223372036854775809"), Error);
  EXPECT_THROW(parse_i64("99999999999999999999"), Error);
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64(" 215 "), 215u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_THROW(parse_u64("18446744073709551616"), Error);
  EXPECT_THROW(parse_u64("-5"), Error);  // no sign: it would wrap
  EXPECT_THROW(parse_u64("+5"), Error);
  EXPECT_THROW(parse_u64(""), Error);
  EXPECT_THROW(parse_u64("7a"), Error);
}

TEST(Strings, ParseF64) {
  EXPECT_DOUBLE_EQ(parse_f64("44.000000"), 44.0);
  EXPECT_DOUBLE_EQ(parse_f64("-0.5"), -0.5);
  EXPECT_THROW(parse_f64("abc"), Error);
}

TEST(Strings, ParseIntArg) {
  EXPECT_EQ(parse_int_arg("--n", "7", 1), 7);
  EXPECT_EQ(parse_int_arg("--n", "0", 0), 0);
  for (const char* bad : {"", "abc", "4abc", "0", "-3", "99999999999"}) {
    try {
      parse_int_arg("--n", bad, 1);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "--n expects an integer >= 1, got '" + std::string(bad) + "'");
    }
  }
}

TEST(Strings, ParseHex) {
  EXPECT_EQ(parse_hex("0x7ffcf3f25a70"), 0x7ffcf3f25a70ull);
  EXPECT_EQ(parse_hex("0x0"), 0ull);
  EXPECT_THROW(parse_hex("1234"), Error);
  EXPECT_THROW(parse_hex("0xZZ"), Error);
  EXPECT_EQ(parse_hex("0xFFFFffffFFFFffff"), UINT64_MAX);
  EXPECT_THROW(parse_hex("0x10000000000000000"), Error);
  EXPECT_THROW(parse_hex("0x"), Error);
  EXPECT_THROW(parse_hex("0x-1"), Error);   // would wrap to 2^64-1
  EXPECT_THROW(parse_hex("0x0x5"), Error);  // a second prefix is not a digit
}

TEST(Strings, Substitute) {
  EXPECT_EQ(substitute("a[${N}] b ${N} ${M}", {{"N", "8"}, {"M", "3"}}), "a[8] b 8 3");
  EXPECT_EQ(substitute("no knobs", {{"N", "8"}}), "no knobs");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(431), "431B");
  EXPECT_EQ(human_bytes(2662ull * 1024), "2.6M");
  EXPECT_EQ(human_bytes(13ull * 1024 * 1024 * 1024), "13.0G");
}

TEST(Strings, Strf) {
  EXPECT_EQ(strf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strf("%.3f", 1.5), "1.500");
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(data.data(), data.size());
  const std::uint32_t a = crc32(data.data(), 10);
  // Incremental chaining via seed must reproduce the one-shot result.
  const std::uint32_t b = crc32(data.data() + 10, data.size() - 10, a);
  EXPECT_EQ(whole, b);
}

TEST(Crc32, DetectsCorruption) {
  std::string data = "checkpoint payload";
  const std::uint32_t before = crc32(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(before, crc32(data.data(), data.size()));
}

TEST(Rng, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBounds) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformInUnitInterval) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(File, WriteThenReadRoundTrips) {
  const std::string path = testing::TempDir() + "/ac_support_file.bin";
  const std::string bytes("a\0b\nc", 5);
  write_file(path, bytes);
  EXPECT_EQ(read_file_bytes(path), bytes);
  write_file(path, "");  // truncates
  EXPECT_EQ(read_file_bytes(path), "");
  std::remove(path.c_str());
  EXPECT_THROW(read_file_bytes(path), Error);
}

TEST(File, WriteFailuresThrow) {
  // A 15-byte write to /dev/full fits the stdio buffer; only fclose fails.
  EXPECT_THROW(write_file("/dev/full", "fifteen bytes.."), Error);
  EXPECT_THROW(write_file(testing::TempDir() + "/no_such_dir/x", "x"), Error);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Name", "Value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NE(t.render().find("| 1"), std::string::npos);
}

}  // namespace
}  // namespace ac
