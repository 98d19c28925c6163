#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/assert.hpp"

namespace nubb {
namespace {

/// Helper: build argv from a list of strings.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    pointers_.push_back("prog");
    for (const auto& a : storage_) pointers_.push_back(a.c_str());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  const char* const* argv() const { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<const char*> pointers_;
};

CliParser make_parser() {
  CliParser cli("test program");
  cli.add_flag("verbose", "be chatty");
  cli.add_int("reps", 100, "replications");
  cli.add_double("scale", 1.5, "scaling factor");
  cli.add_string("csv", "", "output dir");
  return cli;
}

TEST(CliTest, DefaultsApplyWithoutArguments) {
  CliParser cli = make_parser();
  Argv args({});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_FALSE(cli.flag("verbose"));
  EXPECT_EQ(cli.get_int("reps"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 1.5);
  EXPECT_EQ(cli.get_string("csv"), "");
  EXPECT_FALSE(cli.was_set("reps"));
}

TEST(CliTest, ParsesSpaceSeparatedValues) {
  CliParser cli = make_parser();
  Argv args({"--reps", "500", "--scale", "2.25", "--csv", "/tmp/x", "--verbose"});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_TRUE(cli.flag("verbose"));
  EXPECT_EQ(cli.get_int("reps"), 500);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 2.25);
  EXPECT_EQ(cli.get_string("csv"), "/tmp/x");
  EXPECT_TRUE(cli.was_set("reps"));
}

TEST(CliTest, ParsesEqualsSyntax) {
  CliParser cli = make_parser();
  Argv args({"--reps=42", "--scale=0.5"});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_EQ(cli.get_int("reps"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.5);
}

TEST(CliTest, NegativeNumbersAreAccepted) {
  CliParser cli = make_parser();
  Argv args({"--reps", "-5", "--scale", "-1.5"});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_EQ(cli.get_int("reps"), -5);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), -1.5);
}

TEST(CliTest, HelpReturnsFalse) {
  CliParser cli = make_parser();
  Argv args({"--help"});
  EXPECT_FALSE(cli.parse(args.argc(), args.argv()));
}

TEST(CliTest, HelpTextMentionsAllOptions) {
  CliParser cli = make_parser();
  const std::string help = cli.help_text();
  for (const char* name : {"verbose", "reps", "scale", "csv", "help"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}

TEST(CliTest, UnknownOptionThrows) {
  CliParser cli = make_parser();
  Argv args({"--bogus", "1"});
  EXPECT_THROW(cli.parse(args.argc(), args.argv()), std::runtime_error);
}

TEST(CliTest, MissingValueThrows) {
  CliParser cli = make_parser();
  Argv args({"--reps"});
  EXPECT_THROW(cli.parse(args.argc(), args.argv()), std::runtime_error);
}

TEST(CliTest, MalformedNumberThrows) {
  CliParser cli = make_parser();
  Argv int_args({"--reps", "abc"});
  EXPECT_THROW(cli.parse(int_args.argc(), int_args.argv()), std::runtime_error);

  CliParser cli2 = make_parser();
  Argv dbl_args({"--scale", "xyz"});
  EXPECT_THROW(cli2.parse(dbl_args.argc(), dbl_args.argv()), std::runtime_error);
}

TEST(CliTest, TrailingJunkInNumbersThrows) {
  // Regression: bare stoll/stod accept trailing garbage, so "--reps 5x"
  // used to silently parse as 5. The whole token must be consumed.
  for (const char* bad : {"5x", "1 2", "0x10", "++1"}) {
    CliParser cli = make_parser();
    Argv args({"--reps", bad});
    EXPECT_THROW(cli.parse(args.argc(), args.argv()), std::runtime_error) << bad;
  }
  for (const char* bad : {"1e3z", "1.5.5", "2.0 "}) {
    CliParser cli = make_parser();
    Argv args({"--scale", bad});
    EXPECT_THROW(cli.parse(args.argc(), args.argv()), std::runtime_error) << bad;
  }
  // Scientific notation itself stays valid for doubles.
  CliParser ok = make_parser();
  Argv good({"--scale=1e3"});
  ASSERT_TRUE(ok.parse(good.argc(), good.argv()));
  EXPECT_DOUBLE_EQ(ok.get_double("scale"), 1000.0);
}

TEST(CliTest, EmptyNumericValueThrows) {
  CliParser cli = make_parser();
  Argv int_args({"--reps="});
  EXPECT_THROW(cli.parse(int_args.argc(), int_args.argv()), std::runtime_error);

  CliParser cli2 = make_parser();
  Argv dbl_args({"--scale="});
  EXPECT_THROW(cli2.parse(dbl_args.argc(), dbl_args.argv()), std::runtime_error);
}

TEST(CliTest, FlagWithValueThrows) {
  CliParser cli = make_parser();
  Argv args({"--verbose=1"});
  EXPECT_THROW(cli.parse(args.argc(), args.argv()), std::runtime_error);
}

TEST(CliTest, PositionalArgumentThrows) {
  CliParser cli = make_parser();
  Argv args({"stray"});
  EXPECT_THROW(cli.parse(args.argc(), args.argv()), std::runtime_error);
}

TEST(CliTest, WrongTypeAccessThrows) {
  CliParser cli = make_parser();
  Argv args({});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_THROW(cli.get_int("scale"), PreconditionError);
  EXPECT_THROW(cli.flag("reps"), PreconditionError);
  EXPECT_THROW(cli.get_string("unregistered"), PreconditionError);
}

TEST(CliTest, DuplicateRegistrationThrows) {
  CliParser cli("dup");
  cli.add_int("x", 1, "first");
  EXPECT_THROW(cli.add_flag("x", "second"), PreconditionError);
}

TEST(CliTest, LastOccurrenceWins) {
  CliParser cli = make_parser();
  Argv args({"--reps", "1", "--reps", "2"});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_EQ(cli.get_int("reps"), 2);
}

CliParser make_subcommand_parser() {
  CliParser cli = make_parser();
  cli.add_subcommand("run", "run it");
  cli.add_subcommand("merge", "merge files");
  cli.allow_positionals("FILE...", "input files");
  return cli;
}

TEST(CliTest, SubcommandIsRecognised) {
  CliParser cli = make_subcommand_parser();
  Argv args({"run", "--reps", "5"});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_EQ(cli.subcommand(), "run");
  EXPECT_EQ(cli.get_int("reps"), 5);
  EXPECT_TRUE(cli.positionals().empty());
}

TEST(CliTest, OptionFirstInvocationHasEmptySubcommand) {
  CliParser cli = make_subcommand_parser();
  Argv args({"--reps", "5"});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_EQ(cli.subcommand(), "");
}

TEST(CliTest, UnknownSubcommandThrows) {
  CliParser cli = make_subcommand_parser();
  Argv args({"frobnicate"});
  EXPECT_THROW(cli.parse(args.argc(), args.argv()), std::runtime_error);
}

TEST(CliTest, PositionalsCollectAfterSubcommand) {
  CliParser cli = make_subcommand_parser();
  Argv args({"merge", "a.json", "b.json", "--verbose"});
  ASSERT_TRUE(cli.parse(args.argc(), args.argv()));
  EXPECT_EQ(cli.subcommand(), "merge");
  EXPECT_EQ(cli.positionals(), (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_TRUE(cli.flag("verbose"));
}

TEST(CliTest, PositionalsWithoutAllowanceStillThrow) {
  CliParser cli = make_parser();
  cli.add_subcommand("run", "run it");
  Argv args({"run", "stray"});
  EXPECT_THROW(cli.parse(args.argc(), args.argv()), std::runtime_error);
}

TEST(CliTest, HelpTextNamesSubcommandsAndOperands) {
  CliParser cli = make_subcommand_parser();
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("Subcommands:"), std::string::npos);
  EXPECT_NE(help.find("merge"), std::string::npos);
  EXPECT_NE(help.find("FILE..."), std::string::npos);
}

}  // namespace
}  // namespace nubb
