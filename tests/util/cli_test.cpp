#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/require.hpp"

namespace dmra {
namespace {

Cli make_cli() {
  Cli cli;
  cli.add_flag("ues", "500", "UE count");
  cli.add_flag("rho", "100.5", "rho");
  cli.add_flag("verbose", "false", "verbosity");
  cli.add_flag("list", "1,2,3", "a list");
  return cli;
}

TEST(Cli, DefaultsApplyWithoutArgs) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("ues"), 500);
  EXPECT_DOUBLE_EQ(cli.get_double("rho"), 100.5);
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, SpaceSeparatedForm) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues", "900"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("ues"), 900);
}

TEST(Cli, EqualsForm) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--rho=42.25", "--verbose=true"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("rho"), 42.25);
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagFailsWithMessage) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--nope", "1"};
  std::string error;
  EXPECT_FALSE(cli.parse(3, argv, &error));
  EXPECT_NE(error.find("nope"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues"};
  std::string error;
  EXPECT_FALSE(cli.parse(2, argv, &error));
  EXPECT_NE(error.find("missing"), std::string::npos);
}

TEST(Cli, PositionalArgumentFails) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "stray"};
  std::string error;
  EXPECT_FALSE(cli.parse(2, argv, &error));
}

TEST(Cli, HelpRequested) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.help_requested());
  const std::string help = cli.help_text("prog");
  EXPECT_NE(help.find("--ues"), std::string::npos);
  EXPECT_NE(help.find("500"), std::string::npos);
}

TEST(Cli, DoubleListParsing) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--list=400,500.5,600"};
  ASSERT_TRUE(cli.parse(2, argv));
  const std::vector<double> xs = cli.get_double_list("list");
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0], 400.0);
  EXPECT_DOUBLE_EQ(xs[1], 500.5);
  EXPECT_DOUBLE_EQ(xs[2], 600.0);
}

TEST(Cli, BadNumbersAreContractViolations) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues=abc", "--rho=x", "--verbose=maybe", "--list=1,zz"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_THROW(cli.get_int("ues"), ContractViolation);
  EXPECT_THROW(cli.get_double("rho"), ContractViolation);
  EXPECT_THROW(cli.get_bool("verbose"), ContractViolation);
  EXPECT_THROW(cli.get_double_list("list"), ContractViolation);
}

TEST(Cli, NegativeCountIsContractViolationNamingTheFlag) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues=-5"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("ues"), -5);
  try {
    (void)cli.get_count("ues");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--ues"), std::string::npos) << e.what();
  }
  Cli ok = make_cli();
  const char* zero[] = {"prog", "--ues=0"};
  ASSERT_TRUE(ok.parse(2, zero));
  EXPECT_EQ(ok.get_count("ues"), 0u);
  EXPECT_EQ(make_cli().get_count("ues"), 500u);
}

TEST(Cli, UndeclaredLookupIsContractViolation) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(cli.get_string("ghost"), ContractViolation);
}

TEST(Cli, DuplicateDeclarationIsContractViolation) {
  Cli cli;
  cli.add_flag("x", "1", "first");
  EXPECT_THROW(cli.add_flag("x", "2", "again"), ContractViolation);
}

TEST(Cli, BoolAcceptsManySpellings) {
  Cli cli;
  cli.add_flag("a", "yes", "");
  cli.add_flag("b", "0", "");
  cli.add_flag("c", "no", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_FALSE(cli.get_bool("b"));
  EXPECT_FALSE(cli.get_bool("c"));
}

TEST(Cli, ValuesSnapshotsEveryFlagWithEffectiveValue) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues=900"};
  ASSERT_TRUE(cli.parse(2, argv));
  const auto values = cli.values();
  ASSERT_EQ(values.size(), 4u);  // every declared flag, set or not
  EXPECT_EQ(values.at("ues"), "900");
  EXPECT_EQ(values.at("rho"), "100.5");  // default survives
  EXPECT_EQ(values.at("verbose"), "false");
  EXPECT_EQ(values.at("list"), "1,2,3");
}

TEST(Cli, IsSetDistinguishesExplicitFromDefault) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--ues=500"};  // explicit, equal to default
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.is_set("ues"));
  EXPECT_FALSE(cli.is_set("rho"));
  EXPECT_THROW(cli.is_set("ghost"), ContractViolation);
}

}  // namespace
}  // namespace dmra
