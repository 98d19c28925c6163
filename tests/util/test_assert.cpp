#include "util/assert.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <stdexcept>
#include <string>

namespace nubb {
namespace {

TEST(AssertTest, PassingRequireIsSilent) {
  EXPECT_NO_THROW(NUBB_REQUIRE(1 + 1 == 2));
  EXPECT_NO_THROW(NUBB_REQUIRE_MSG(true, "never shown"));
}

TEST(AssertTest, FailingRequireThrowsPreconditionError) {
  EXPECT_THROW(NUBB_REQUIRE(2 + 2 == 5), PreconditionError);
}

TEST(AssertTest, ConditionIsEvaluatedExactlyOnce) {
  int evaluations = 0;
  NUBB_REQUIRE([&] {
    ++evaluations;
    return true;
  }());
  EXPECT_EQ(evaluations, 1);
}

TEST(AssertTest, MessageCarriesExpressionFileAndDetail) {
  try {
    NUBB_REQUIRE_MSG(false, "bins must be non-empty");
    FAIL() << "NUBB_REQUIRE_MSG(false, ...) did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition failed"), std::string::npos) << what;
    EXPECT_NE(what.find("false"), std::string::npos) << what;
    EXPECT_NE(what.find("test_assert.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("bins must be non-empty"), std::string::npos) << what;
  }
}

TEST(AssertTest, PlainRequireMessageOmitsDetailSuffix) {
  try {
    NUBB_REQUIRE(false);
    FAIL() << "NUBB_REQUIRE(false) did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition failed: false"), std::string::npos) << what;
    // Without a detail message the text ends at the file:line location.
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(what.back()))) << what;
  }
}

TEST(AssertTest, ReasonIsTheMessageOrElseTheExpression) {
  // The CLI tools print reason(): never the source path or line of what().
  try {
    NUBB_REQUIRE_MSG(1 + 1 == 3, "arithmetic broke");
    FAIL() << "NUBB_REQUIRE_MSG(1 + 1 == 3, ...) did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.reason(), "arithmetic broke");
  }
  try {
    NUBB_REQUIRE(2 + 2 == 5);
    FAIL() << "NUBB_REQUIRE(2 + 2 == 5) did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.reason(), "2 + 2 == 5");
  }
}

TEST(AssertTest, PreconditionErrorIsALogicError) {
  EXPECT_THROW(NUBB_REQUIRE(false), std::logic_error);
}

TEST(AssertTest, WorksInsideExpressionStatements) {
  // The do/while(false) wrapper must compose with if/else without braces.
  const bool flag = true;
  if (flag)
    NUBB_REQUIRE(flag);
  else
    NUBB_REQUIRE(!flag);
  SUCCEED();
}

}  // namespace
}  // namespace nubb
