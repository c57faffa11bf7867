// Strict parsing of the bench binaries' integer flags: --seed (every
// bench) and the suite's --repeats / --warmup share one parser that
// rejects malformed values with the usage text and exit status 2, like
// an unknown flag.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace digest {
namespace bench {
namespace {

BenchArgs ParseOne(const std::string& flag) {
  std::string binary = "bench_args_test";
  std::string arg = flag;
  char* argv[] = {binary.data(), arg.data()};
  return BenchArgs::Parse(2, argv);
}

uint64_t ParseSuiteFlag(const char* flag, const char* text, uint64_t min) {
  return BenchArgs::ParseUintFlag("bench_suite", flag, text, min, {});
}

TEST(BenchArgsTest, SeedAcceptsDecimal) {
  EXPECT_EQ(ParseOne("--seed=42").seed, 42u);
  EXPECT_EQ(ParseOne("--seed=0").seed, 0u);
  EXPECT_EQ(ParseOne("--seed=18446744073709551615").seed,
            18446744073709551615ull);
}

TEST(BenchArgsTest, SuiteCountFlagsAcceptDecimal) {
  EXPECT_EQ(ParseSuiteFlag("--repeats", "7", 1), 7u);
  EXPECT_EQ(ParseSuiteFlag("--warmup", "0", 0), 0u);
}

TEST(BenchArgsDeathTest, SeedRejectsMalformedValues) {
  for (const char* bad : {"--seed=", "--seed=abc", "--seed=-1", "--seed=+1",
                          "--seed= 1", "--seed=12x", "--seed=1.5",
                          "--seed=18446744073709551616"}) {
    EXPECT_EXIT(ParseOne(bad), testing::ExitedWithCode(2),
                "invalid --seed value")
        << bad;
  }
}

TEST(BenchArgsDeathTest, RepeatsRejectsMalformedAndZero) {
  for (const char* bad : {"", "abc", "-1", "3x", "0",
                          "99999999999999999999"}) {
    EXPECT_EXIT(ParseSuiteFlag("--repeats", bad, 1),
                testing::ExitedWithCode(2), "invalid --repeats value")
        << bad;
  }
}

TEST(BenchArgsDeathTest, WarmupRejectsMalformedValues) {
  for (const char* bad : {"", "abc", "-1", "1.5", "99999999999999999999"}) {
    EXPECT_EXIT(ParseSuiteFlag("--warmup", bad, 0),
                testing::ExitedWithCode(2), "invalid --warmup value")
        << bad;
  }
}

}  // namespace
}  // namespace bench
}  // namespace digest
