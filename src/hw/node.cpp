#include "hw/node.h"
#include "common/format.h"

namespace saex::hw {

Node::Node(sim::Simulation& sim, int id, int cores, DiskParams disk_params,
           double disk_speed_factor, double cpu_speed_factor)
    : id_(id),
      // DAS-5 naming convention from the paper's Fig. 3.
      hostname_(saex::strfmt::format("node{:03}", 303 + id)),
      cpu_(sim, cores, cpu_speed_factor),
      disk_(sim, disk_params, hostname_ + "/disk", disk_speed_factor),
      disk_speed_factor_(disk_speed_factor) {}

}  // namespace saex::hw
