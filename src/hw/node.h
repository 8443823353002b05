// A cluster node: cores + one storage device.
#pragma once

#include <memory>
#include <string>

#include "hw/cpuset.h"
#include "hw/disk.h"
#include "sim/simulation.h"

namespace saex::hw {

class Node {
 public:
  Node(sim::Simulation& sim, int id, int cores, DiskParams disk_params,
       double disk_speed_factor, double cpu_speed_factor);

  int id() const noexcept { return id_; }
  const std::string& hostname() const noexcept { return hostname_; }

  CpuSet& cpu() noexcept { return cpu_; }
  const CpuSet& cpu() const noexcept { return cpu_; }
  Disk& disk() noexcept { return disk_; }
  const Disk& disk() const noexcept { return disk_; }

  double disk_speed_factor() const noexcept { return disk_speed_factor_; }

  /// Runtime degradation hook (fault injection): rescales the disk's
  /// bandwidth, turning this node into a straggler mid-run.
  void set_disk_speed_factor(double factor) {
    disk_speed_factor_ = factor;
    disk_.set_speed_factor(factor);
  }

 private:
  int id_;
  std::string hostname_;
  CpuSet cpu_;
  Disk disk_;
  double disk_speed_factor_;
};

}  // namespace saex::hw
