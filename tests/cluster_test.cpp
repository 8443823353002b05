#include <gtest/gtest.h>

#include <set>

#include "hw/cluster.h"

namespace saex::hw {
namespace {

TEST(Cluster, BuildsRequestedTopology) {
  Cluster c(ClusterSpec::das5(4));
  EXPECT_EQ(c.size(), 4);
  EXPECT_EQ(c.node(0).cpu().cores(), 32);
  EXPECT_EQ(c.node(0).hostname(), "node303");
  EXPECT_EQ(c.node(3).hostname(), "node306");
}

TEST(Cluster, SsdSpecUsesSsdDisks) {
  Cluster c(ClusterSpec::das5_ssd(2));
  EXPECT_GT(c.node(0).disk().params().base_bw, 400e6);
  EXPECT_GT(c.node(0).disk().params().write_cost_factor, 1.2);
}

TEST(Cluster, HeterogeneityIsDeterministicInSeed) {
  ClusterSpec spec = ClusterSpec::das5(8);
  spec.seed = 99;
  Cluster a(spec), b(spec);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.node(i).disk_speed_factor(), b.node(i).disk_speed_factor());
  }
  spec.seed = 100;
  Cluster c(spec);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    any_diff |= a.node(i).disk_speed_factor() != c.node(i).disk_speed_factor();
  }
  EXPECT_TRUE(any_diff);
}

TEST(Cluster, DiskSpeedFactorsVaryAcrossNodes) {
  ClusterSpec spec = ClusterSpec::das5(44);  // Fig. 3 population size
  Cluster c(spec);
  std::set<double> factors;
  double lo = 1e9, hi = 0;
  for (int i = 0; i < c.size(); ++i) {
    const double f = c.node(i).disk_speed_factor();
    factors.insert(f);
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  EXPECT_GT(factors.size(), 30u);  // essentially all distinct
  EXPECT_GT(hi / lo, 1.15);        // visible spread, as in Fig. 3
}

TEST(Cluster, TotalDiskBytesAggregates) {
  Cluster c(ClusterSpec::das5(2));
  bool done = false;
  c.node(0).disk().submit(mib(3), false, [] {});
  c.node(1).disk().submit(mib(2), true, [&] { done = true; });
  c.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.total_disk_bytes(), mib(5));
}

}  // namespace
}  // namespace saex::hw
