#include <gtest/gtest.h>

#include "conf/config.h"

namespace saex::conf {
namespace {

// Paper Table 1: the functional-parameter census.
TEST(SparkRegistry, Table1CategoryCounts) {
  const Registry& r = spark_registry();
  EXPECT_EQ(r.count(Category::kShuffle), 19u);
  EXPECT_EQ(r.count(Category::kCompressionSerialization), 16u);
  EXPECT_EQ(r.count(Category::kMemoryManagement), 14u);
  EXPECT_EQ(r.count(Category::kExecutionBehavior), 14u);
  EXPECT_EQ(r.count(Category::kNetwork), 13u);
  EXPECT_EQ(r.count(Category::kScheduling), 32u);
  EXPECT_EQ(r.count(Category::kDynamicAllocation), 9u);
  EXPECT_EQ(r.functional_count(), 117u);
}

TEST(SparkRegistry, ExtensionParamsAreNotFunctional) {
  const Registry& r = spark_registry();
  EXPECT_GT(r.count(Category::kAdaptiveExtension), 0u);
  EXPECT_EQ(r.total_count(),
            r.functional_count() + r.count(Category::kAdaptiveExtension));
}

TEST(SparkRegistry, KeyParametersExist) {
  const Registry& r = spark_registry();
  EXPECT_NE(r.find("spark.executor.cores"), nullptr);
  EXPECT_NE(r.find("spark.default.parallelism"), nullptr);
  EXPECT_NE(r.find("saex.executor.policy"), nullptr);
  EXPECT_EQ(r.find("spark.not.a.real.key"), nullptr);
}

TEST(SparkRegistry, ByCategoryReturnsOnlyThatCategory) {
  const Registry& r = spark_registry();
  for (const ParamDef* def : r.by_category(Category::kShuffle)) {
    EXPECT_EQ(def->category, Category::kShuffle);
  }
  EXPECT_EQ(r.by_category(Category::kShuffle).size(), 19u);
}

TEST(ParseBytes, SuffixesAndBare) {
  EXPECT_EQ(parse_bytes("48m"), 48 * kMiB);
  EXPECT_EQ(parse_bytes("1g"), kGiB);
  EXPECT_EQ(parse_bytes("32k"), 32 * kKiB);
  EXPECT_EQ(parse_bytes("100"), 100);
  EXPECT_EQ(parse_bytes("2gb"), 2 * kGiB);
  EXPECT_THROW(parse_bytes("12q"), ConfigError);
}

TEST(ParseDuration, SuffixesAndBare) {
  EXPECT_DOUBLE_EQ(parse_duration_seconds("120s"), 120.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("100ms"), 0.1);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("30min"), 1800.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("1h"), 3600.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("5"), 5.0);
  EXPECT_THROW(parse_duration_seconds("3y"), ConfigError);
}

// A value with no numeric prefix is reported whole, not as its empty
// prefix ("cannot parse number from ''").
TEST(ParseSuffixed, ErrorQuotesTheWholeValue) {
  const auto message = [](auto parse, std::string_view text) -> std::string {
    try {
      parse(text);
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message(parse_bytes, "abc"), "cannot parse bytes from 'abc'");
  EXPECT_EQ(message(parse_duration_seconds, "abc"),
            "cannot parse duration from 'abc'");
  EXPECT_EQ(message(parse_bytes, "1.2.3m"), "cannot parse bytes from '1.2.3m'");
  Config c;
  try {
    c.set("saex.aqe.targetPartitionBytes", "abc");
    ADD_FAILURE() << "set accepted 'abc'";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'abc'"), std::string::npos) << e.what();
  }
}

TEST(ParseBool, Variants) {
  EXPECT_TRUE(parse_bool("true"));
  EXPECT_TRUE(parse_bool("TRUE"));
  EXPECT_FALSE(parse_bool("false"));
  EXPECT_FALSE(parse_bool("0"));
  EXPECT_THROW(parse_bool("maybe"), ConfigError);
}

TEST(Config, DefaultsComeFromRegistry) {
  Config c;
  EXPECT_EQ(c.get_int("spark.executor.cores"), 32);
  EXPECT_EQ(c.get_bytes("spark.reducer.maxSizeInFlight"), 48 * kMiB);
  EXPECT_TRUE(c.get_bool("spark.shuffle.compress"));
  EXPECT_DOUBLE_EQ(c.get_double("spark.memory.fraction"), 0.6);
  EXPECT_DOUBLE_EQ(c.get_duration_seconds("spark.network.timeout"), 120.0);
}

TEST(Config, OverridesApply) {
  Config c;
  c.set("spark.executor.cores", "8");
  EXPECT_EQ(c.get_int("spark.executor.cores"), 8);
  EXPECT_TRUE(c.is_set("spark.executor.cores"));
  EXPECT_FALSE(c.is_set("spark.default.parallelism"));
}

TEST(Config, TypedSetters) {
  Config c;
  c.set_int("saex.static.ioThreads", 4);
  c.set_bool("saex.dynamic.rollback", false);
  c.set_double("saex.aqe.skewFactor", 1.25);
  EXPECT_EQ(c.get_int("saex.static.ioThreads"), 4);
  EXPECT_FALSE(c.get_bool("saex.dynamic.rollback"));
  EXPECT_DOUBLE_EQ(c.get_double("saex.aqe.skewFactor"), 1.25);
}

TEST(Config, UnknownKeyThrows) {
  Config c;
  EXPECT_THROW(c.set("spark.bogus", "1"), ConfigError);
  EXPECT_THROW((void)c.get_string("spark.bogus"), ConfigError);
}

TEST(Config, TypeValidationAtSetTime) {
  Config c;
  EXPECT_THROW(c.set("spark.executor.cores", "not-a-number"), ConfigError);
  EXPECT_THROW(c.set("spark.shuffle.compress", "sometimes"), ConfigError);
  EXPECT_NO_THROW(c.set("spark.shuffle.file.buffer", "64k"));
}

TEST(Registry, DuplicateDefinitionThrows) {
  Registry r;
  r.define({"x", Category::kShuffle, ValueType::kInt, "1", ""});
  EXPECT_THROW(r.define({"x", Category::kNetwork, ValueType::kInt, "2", ""}),
               ConfigError);
}

TEST(Registry, EveryParamHasDocAndParseableDefault) {
  const Registry& r = spark_registry();
  for (const auto& [key, def] : r.all()) {
    EXPECT_FALSE(def.doc.empty()) << key;
    switch (def.type) {
      case ValueType::kBool: EXPECT_NO_THROW(parse_bool(def.default_value)) << key; break;
      case ValueType::kBytes: EXPECT_NO_THROW(parse_bytes(def.default_value)) << key; break;
      case ValueType::kDurationSeconds:
        EXPECT_NO_THROW(parse_duration_seconds(def.default_value)) << key;
        break;
      default: break;
    }
  }
}

}  // namespace
}  // namespace saex::conf
