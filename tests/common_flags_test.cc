#include "common/flags.h"

#include <gtest/gtest.h>

namespace svt {
namespace {

// Builds a mutable argv from string literals.
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args)
      : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (auto& s : storage_) argv_.push_back(s.data());
  }
  int argc() { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> argv_;
};

TEST(FlagsTest, ParsesEqualsSyntax) {
  FlagSet flags;
  int64_t runs = 10;
  double eps = 1.0;
  std::string name = "x";
  bool verbose = false;
  flags.AddInt64("runs", &runs, "");
  flags.AddDouble("epsilon", &eps, "");
  flags.AddString("name", &name, "");
  flags.AddBool("verbose", &verbose, "");

  ArgvBuilder args({"--runs=50", "--epsilon=0.25", "--name=kosarak",
                    "--verbose=true"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(runs, 50);
  EXPECT_DOUBLE_EQ(eps, 0.25);
  EXPECT_EQ(name, "kosarak");
  EXPECT_TRUE(verbose);
}

TEST(FlagsTest, ParsesSpaceSyntax) {
  FlagSet flags;
  int64_t c = 0;
  flags.AddInt64("c", &c, "");
  ArgvBuilder args({"--c", "300"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(c, 300);
}

TEST(FlagsTest, BareBoolEnables) {
  FlagSet flags;
  bool csv = false;
  flags.AddBool("csv", &csv, "");
  ArgvBuilder args({"--csv"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(csv);
}

TEST(FlagsTest, BoolAcceptsNumericForms) {
  FlagSet flags;
  bool a = false, b = true;
  flags.AddBool("a", &a, "");
  flags.AddBool("b", &b, "");
  ArgvBuilder args({"--a=1", "--b=0"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagSet flags;
  ArgvBuilder args({"--mystery=1"});
  const Status s = flags.Parse(args.argc(), args.argv());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, BadIntFails) {
  FlagSet flags;
  int64_t x = 0;
  flags.AddInt64("x", &x, "");
  ArgvBuilder args({"--x=12abc"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagsTest, BadDoubleFails) {
  FlagSet flags;
  double x = 0;
  flags.AddDouble("x", &x, "");
  ArgvBuilder args({"--x=not-a-number"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()).ok());
}

// A subnormal is a value, not a range error: strtod flags the rounding
// with ERANGE, but 5e-324 must land on the same double as 0x1p-1074.
TEST(FlagsTest, SubnormalDoubleParses) {
  FlagSet flags;
  double decimal = 0, hex = 0;
  flags.AddDouble("decimal", &decimal, "");
  flags.AddDouble("hex", &hex, "");
  ArgvBuilder args({"--decimal=5e-324", "--hex=0x1p-1074"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(decimal, 0x1p-1074);
  EXPECT_EQ(hex, 0x1p-1074);
}

void ExpectOutOfRange(FlagSet& flags, const std::string& arg) {
  ArgvBuilder args({arg});
  const Status s = flags.Parse(args.argc(), args.argv());
  ASSERT_FALSE(s.ok()) << arg;
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << arg;
  EXPECT_NE(s.message().find("out of range"), std::string::npos)
      << arg << ": " << s.message();
}

TEST(FlagsTest, DoubleUnderflowToZeroIsOutOfRange) {
  FlagSet flags;
  double x = 1.0;
  flags.AddDouble("x", &x, "");
  ExpectOutOfRange(flags, "--x=1e-400");
  EXPECT_EQ(x, 1.0);
}

TEST(FlagsTest, DoubleOverflowIsOutOfRange) {
  FlagSet flags;
  double x = 1.0;
  flags.AddDouble("x", &x, "");
  ExpectOutOfRange(flags, "--x=1e999");
  ExpectOutOfRange(flags, "--x=-1e999");
  EXPECT_EQ(x, 1.0);
}

TEST(FlagsTest, IntOverflowIsOutOfRange) {
  FlagSet flags;
  int64_t x = 1;
  flags.AddInt64("x", &x, "");
  ExpectOutOfRange(flags, "--x=9223372036854775808");
  ExpectOutOfRange(flags, "--x=-9223372036854775809");
  EXPECT_EQ(x, 1);
}

TEST(FlagsTest, MissingValueFails) {
  FlagSet flags;
  int64_t x = 0;
  flags.AddInt64("x", &x, "");
  ArgvBuilder args({"--x"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagsTest, PositionalArgumentFails) {
  FlagSet flags;
  ArgvBuilder args({"stray"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagsTest, NegativeNumbersParse) {
  FlagSet flags;
  int64_t i = 0;
  double d = 0;
  flags.AddInt64("i", &i, "");
  flags.AddDouble("d", &d, "");
  ArgvBuilder args({"--i=-5", "--d=-2.5e-3"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(i, -5);
  EXPECT_DOUBLE_EQ(d, -2.5e-3);
}

TEST(FlagsTest, UsageListsFlagsAndDefaults) {
  FlagSet flags;
  int64_t runs = 30;
  flags.AddInt64("runs", &runs, "number of repetitions");
  const std::string usage = flags.Usage("bench");
  EXPECT_NE(usage.find("--runs"), std::string::npos);
  EXPECT_NE(usage.find("30"), std::string::npos);
  EXPECT_NE(usage.find("number of repetitions"), std::string::npos);
}

TEST(FlagsTest, DefaultsSurviveWhenNotPassed) {
  FlagSet flags;
  int64_t runs = 30;
  double eps = 0.1;
  flags.AddInt64("runs", &runs, "");
  flags.AddDouble("epsilon", &eps, "");
  ArgvBuilder args({"--runs=7"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(runs, 7);
  EXPECT_DOUBLE_EQ(eps, 0.1);
}

}  // namespace
}  // namespace svt
