#include "hw/disk.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace saex::hw {

// Calibrated against the paper's Fig. 12a per-thread-count series on the
// DAS-5 7'200 rpm SATA drives: ~110 MB/s with one outstanding request,
// peaking at ~210 MB/s around queue depth 4 (NCQ + elevator), collapsing
// toward ~100 MB/s at 32 concurrent streams (readahead fragmentation).
DiskParams DiskParams::hdd() {
  DiskParams p;
  p.base_bw = 112e6;
  p.ncq_gain = 1.0;
  p.ncq_pow = 1.3;
  p.frag_coeff = 0.05;
  p.k_sat = 7.0;  // capacity plateaus over ~4-8 streams, collapses beyond
  p.ssd_ramp = 0.0;
  p.write_cost_factor = 1.05;
  return p;
}

DiskParams DiskParams::ssd() {
  DiskParams p;
  p.base_bw = 510e6;
  p.ncq_gain = 0.0;
  p.frag_coeff = 0.0;
  p.ssd_ramp = 0.35;       // tiny ramp: a single stream nearly saturates
  p.wear_coeff = 0.012;    // erase-before-write pressure at high concurrency
  p.k_wear = 16.0;
  p.write_cost_factor = 1.7;  // ~300 MB/s effective sequential write
  p.latency = 0.00008;
  return p;
}

Disk::Disk(sim::Simulation& sim, DiskParams params, std::string name,
           double speed_factor)
    : FluidPool(sim),
      params_(params),
      name_(std::move(name)),
      speed_factor_(speed_factor) {}

void Disk::set_speed_factor(double factor) {
  assert(factor > 0.0);
  mutate([this, factor] {
    speed_factor_ = factor;
    cap_cache_.clear();  // memoized capacities embed the old factor
  });
}

double Disk::capacity_uncached(double kd) const noexcept {
  const double base = params_.base_bw * speed_factor_;
  if (params_.ssd_ramp > 0.0) {
    const double ramp = kd / (kd + params_.ssd_ramp);
    const double wear =
        1.0 + params_.wear_coeff * std::max(0.0, kd - params_.k_wear);
    return base * ramp / wear;
  }
  const double queue_gain =
      1.0 + params_.ncq_gain * (1.0 - std::pow(kd, -params_.ncq_pow));
  const double fragmentation =
      1.0 + params_.frag_coeff * std::max(0.0, kd - params_.k_sat);
  return base * queue_gain / fragmentation;
}

double Disk::capacity_eff(double kd) const noexcept {
  if (kd <= 0.0) return 0.0;
  if (kd < 1.0) kd = 1.0;  // a lone (even write-weighted) stream gets base bw
  // On the hot path kd is reads + write_stream_weight*writes — with the
  // default quarter weight, an exact multiple of 0.25 — so the std::pow in
  // the HDD curve is memoized per quarter-stream step. Off-grid arguments
  // (tests probing arbitrary k) fall through to the direct computation.
  constexpr size_t kCacheMax = 16384;  // quarter-steps: up to 4096 streams
  const double q = kd * 4.0;
  const size_t idx = static_cast<size_t>(q);
  if (static_cast<double>(idx) == q && idx < kCacheMax) {
    if (idx >= cap_cache_.size()) cap_cache_.resize(idx + 1, -1.0);
    double& slot = cap_cache_[idx];
    if (slot < 0.0) slot = capacity_uncached(kd);
    return slot;
  }
  return capacity_uncached(kd);
}

double Disk::rate_per_transfer(int reads, int writes) const noexcept {
  const int k = reads + writes;
  if (k == 0) return 0.0;
  // The effective streams are exact for the default quarter write weight:
  // both terms are dyadic, so this matches a per-transfer summation bit for
  // bit.
  const double kd = static_cast<double>(reads) +
                    params_.write_stream_weight * static_cast<double>(writes);
  return capacity_eff(kd) / static_cast<double>(k);
}

void Disk::submit(Bytes bytes, bool is_write, sim::Callback done,
                  double work_factor) {
  assert(bytes >= 0);
  assert(work_factor > 0.0);
  const double work = static_cast<double>(bytes) * work_factor *
                      (is_write ? params_.write_cost_factor : 1.0);
  // The fixed setup latency is modeled as a delay before joining the
  // processor-sharing pool (controller/syscall time; device is free).
  enqueue(params_.latency, bytes, DiskTransfer{work, is_write, std::move(done)});
}

void Disk::settle(double dt) {
  const double rate = rate_per_transfer(read_streams_, write_streams_);
  if (rate > 0.0) {
    for (auto& tr : jobs_) tr.remaining -= rate * dt;
  }
}

void Disk::retire(const DiskTransfer& tr) {
  if (tr.is_write) {
    --write_streams_;
  } else {
    --read_streams_;
  }
}

void Disk::admit(const DiskTransfer& tr, Bytes bytes) {
  if (tr.is_write) {
    ++write_streams_;
    bytes_written_ += bytes;
  } else {
    ++read_streams_;
    bytes_read_ += bytes;
  }
}

}  // namespace saex::hw
