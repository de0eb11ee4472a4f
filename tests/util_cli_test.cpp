#include "wmcast/util/cli.hpp"

#include <gtest/gtest.h>

#include <array>

namespace wmcast::util {
namespace {

Args make_args(std::vector<std::string> argv) {
  std::vector<char*> ptrs;
  static std::vector<std::string> storage;  // keep strings alive
  storage = std::move(argv);
  ptrs.push_back(nullptr);  // argv[0] is skipped by the parser
  for (auto& s : storage) ptrs.push_back(s.data());
  return Args(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(Args, ParsesKeyValue) {
  const Args a = make_args({"--users=400", "--rate=1.5", "--name=fig9"});
  EXPECT_EQ(a.get_int("users", 0), 400);
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0.0), 1.5);
  EXPECT_EQ(a.get("name", ""), "fig9");
}

TEST(Args, FlagsAreBooleanTrue) {
  const Args a = make_args({"--verbose"});
  EXPECT_TRUE(a.get_bool("verbose", false));
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_FALSE(a.has("quiet"));
}

TEST(Args, DefaultsWhenMissing) {
  const Args a = make_args({});
  EXPECT_EQ(a.get_int("users", 42), 42);
  EXPECT_DOUBLE_EQ(a.get_double("rate", 2.5), 2.5);
  EXPECT_EQ(a.get("name", "def"), "def");
  EXPECT_FALSE(a.get_bool("flag", false));
  EXPECT_EQ(a.get_u64("seed", 99ull), 99ull);
}

TEST(Args, BoolParsesCommonSpellings) {
  EXPECT_TRUE(make_args({"--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make_args({"--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make_args({"--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make_args({"--x=false"}).get_bool("x", true));
  EXPECT_FALSE(make_args({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(make_args({"--x=no"}).get_bool("x", true));
  // Anything else is a typo or a misplaced filename, never a silent false.
  EXPECT_THROW(make_args({"--x=chaos.json"}).get_bool("x", false), std::invalid_argument);
  EXPECT_THROW(make_args({"--x="}).get_bool("x", false), std::invalid_argument);
}

TEST(Args, RejectsPositionalArguments) {
  EXPECT_THROW(make_args({"positional"}), std::invalid_argument);
  EXPECT_THROW(make_args({"-k=v"}), std::invalid_argument);
}

TEST(Args, U64RoundTrip) {
  const Args a = make_args({"--seed=18446744073709551615"});
  EXPECT_EQ(a.get_u64("seed", 0), 18446744073709551615ull);
}

TEST(Args, RejectsEmptyFlagName) {
  EXPECT_THROW(make_args({"--"}), std::invalid_argument);
  EXPECT_THROW(make_args({"--=value"}), std::invalid_argument);
}

// Numeric values must parse in full and errors must name the offending flag.
TEST(Args, NumericErrorsNameTheFlag) {
  const auto expect_message_mentions = [](const auto& fn, const std::string& needle) {
    try {
      fn();
      FAIL() << "expected std::invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  expect_message_mentions(
      [] { make_args({"--users=12x"}).get_int("users", 0); }, "--users=12x");
  expect_message_mentions(
      [] { make_args({"--rate="}).get_double("rate", 0.0); }, "--rate=");
  expect_message_mentions(
      [] { make_args({"--seed=abc"}).get_u64("seed", 0); }, "--seed=abc");
}

TEST(Args, NumericRejectsPartialParses) {
  EXPECT_THROW(make_args({"--n=1.5"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make_args({"--n=7 "}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make_args({"--r=1.5e"}).get_double("r", 0.0), std::invalid_argument);
  EXPECT_THROW(make_args({"--n=99999999999999999999"}).get_int("n", 0),
               std::invalid_argument);
  // A flag used as a number ("--epochs" alone stores "true") must throw too.
  EXPECT_THROW(make_args({"--epochs"}).get_int("epochs", 0), std::invalid_argument);
}

TEST(Args, U64RejectsSigns) {
  EXPECT_THROW(make_args({"--seed=-1"}).get_u64("seed", 0), std::invalid_argument);
  EXPECT_THROW(make_args({"--seed=+3"}).get_u64("seed", 0), std::invalid_argument);
}

TEST(Args, RejectUnknownFlagsByList) {
  const Args a = make_args({"--users=10", "--theads=8"});
  EXPECT_NO_THROW(a.reject_unknown({"users", "theads"}));
  try {
    a.reject_unknown({"users", "threads"});
    FAIL() << "expected the typo to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--theads"), std::string::npos)
        << "message was: " << e.what();
  }
  EXPECT_NO_THROW(make_args({}).reject_unknown({}));
}

}  // namespace
}  // namespace wmcast::util
