#include <gtest/gtest.h>

#include <cmath>

#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace saex {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.2);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  Rng parent(42);
  Rng f1 = parent.fork("alpha");
  Rng f2 = parent.fork("alpha");
  Rng f3 = parent.fork("beta");
  EXPECT_EQ(f1.next_u64(), f2.next_u64());  // same tag → same stream
  Rng f1b = parent.fork("alpha");
  EXPECT_NE(f1b.next_u64(), f3.next_u64());
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 0.5);
    all.add(i * 0.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(kMiB), "1.00 MiB");
  EXPECT_EQ(format_bytes(gib(1.5)), "1.50 GiB");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(12.34), "12.3s");
  EXPECT_EQ(format_duration(125.0), "2m05s");
  EXPECT_EQ(format_duration(3720.0), "1h02m");
}

TEST(Units, FormatRateAndPercent) {
  EXPECT_EQ(format_rate(213.4e6), "213.4 MB/s");
  EXPECT_EQ(format_percent(0.344), "34.4%");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // All lines equal width.
  size_t first_nl = out.find('\n');
  const size_t width = first_nl;
  size_t pos = 0;
  while (pos < out.size()) {
    size_t nl = out.find('\n', pos);
    if (nl == std::string::npos) break;
    EXPECT_EQ(nl - pos, width);
    pos = nl + 1;
  }
}

TEST(TextTable, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NE(t.render().find("| x "), std::string::npos);
}

TEST(AsciiBar, ScalesAndClamps) {
  EXPECT_EQ(ascii_bar(5, 10, 10), "#####");
  EXPECT_EQ(ascii_bar(20, 10, 10), "##########");
  EXPECT_EQ(ascii_bar(0, 10, 10), "");
}

TEST(Log, ParseLevel) {
  using log::Level;
  EXPECT_EQ(log::parse_level("debug"), Level::kDebug);
  EXPECT_EQ(log::parse_level("WARN"), Level::kWarn);
  EXPECT_EQ(log::parse_level("off"), Level::kOff);
  EXPECT_EQ(log::parse_level("bogus"), Level::kInfo);
}

}  // namespace
}  // namespace saex

namespace saex::strfmt {
namespace {

TEST(StrFmt, BasicPlaceholders) {
  EXPECT_EQ(format("a {} b {} c", 1, "two"), "a 1 b two c");
  EXPECT_EQ(format("{}", 3.5), "3.5");
  EXPECT_EQ(format("{}", true), "true");
  EXPECT_EQ(format("{}", std::string("s")), "s");
}

TEST(StrFmt, FloatSpecs) {
  EXPECT_EQ(format("{:.2f}", 3.14159), "3.14");
  EXPECT_EQ(format("{:.0f}", 2.7), "3");
  EXPECT_EQ(format("{:+.1f}", 12.34), "+12.3");
  EXPECT_EQ(format("{:.3g}", 0.00012345), "0.000123");
}

TEST(StrFmt, IntSpecs) {
  EXPECT_EQ(format("{:03}", 7), "007");
  EXPECT_EQ(format("{:02}", 45), "45");
  EXPECT_EQ(format("{}", uint64_t{18446744073709551615ull}),
            "18446744073709551615");
  EXPECT_EQ(format("{}", int64_t{-5}), "-5");
}

TEST(StrFmt, EscapesAndEdgeCases) {
  EXPECT_EQ(format("{{}}"), "{}");
  EXPECT_EQ(format("100%%"), "100%%");  // percent is not special
  EXPECT_EQ(format("{} {}", 1), "1 {}");          // missing argument
  EXPECT_EQ(format("{}", 1, 2), "1");             // extra argument ignored
  EXPECT_EQ(format("unterminated {", 9), "unterminated {");
  EXPECT_EQ(format("{}", static_cast<const char*>(nullptr)), "(null)");
}

}  // namespace
}  // namespace saex::strfmt
