#include "hw/cluster.h"

#include <cmath>

namespace saex::hw {

ClusterSpec ClusterSpec::das5(int nodes) {
  ClusterSpec spec;
  spec.num_nodes = nodes;
  return spec;
}

ClusterSpec ClusterSpec::das5_ssd(int nodes) {
  ClusterSpec spec;
  spec.num_nodes = nodes;
  spec.disk = DiskParams::ssd();
  return spec;
}

Cluster::Cluster(ClusterSpec spec) : spec_(spec) {
  Rng rng(spec.seed);
  Rng disk_rng = rng.fork("disk-heterogeneity");
  Rng cpu_rng = rng.fork("cpu-heterogeneity");

  nodes_.reserve(static_cast<size_t>(spec.num_nodes));
  for (int i = 0; i < spec.num_nodes; ++i) {
    double disk_factor = disk_rng.lognormal(0.0, spec.disk_sigma);
    if (disk_rng.chance(spec.slow_disk_prob)) {
      disk_factor *= spec.slow_disk_factor;
    }
    const double cpu_factor = cpu_rng.lognormal(0.0, spec.cpu_sigma);
    nodes_.push_back(std::make_unique<Node>(sim_, i, spec.cores_per_node,
                                            spec.disk, disk_factor,
                                            cpu_factor));
  }
  network_ = std::make_unique<Network>(sim_, spec.num_nodes, spec.network);
}

Bytes Cluster::total_disk_bytes() const noexcept {
  Bytes total = 0;
  for (const auto& n : nodes_) {
    total += n->disk().total_bytes_read() + n->disk().total_bytes_written();
  }
  return total;
}

}  // namespace saex::hw
