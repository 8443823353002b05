// Storage device model.
//
// The device is a work-conserving processor-sharing server: at any instant
// the k active transfers progress at equal shares of a total capacity C(k)
// that depends on concurrency.
//
//   HDD:  C(k) = B * (1 + ncq_gain*(1 - k^-ncq_pow))
//                  / (1 + frag_coeff*max(0, k-k_sat))
//
// The numerator models command-queue/elevator gains (more pending requests →
// shorter average seeks, up to +ncq_gain); the denominator models stream
// fragmentation: with k sequential streams the effective readahead window per
// stream shrinks, so an increasing fraction of device time is positional
// (head movement) rather than transfer. This yields the unimodal
// throughput-vs-threads curve the paper measures (Fig. 5/7/12): a single
// blocked-on-CPU stream under-utilizes the device, a handful of streams
// saturate it near peak, and dozens of streams collapse throughput.
//
//   SSD:  C(k) = B * k/(k + ramp) / (1 + wear_coeff*max(0, k-k_wear))
//
// — essentially flat (full random access), with a mild penalty at very high
// concurrency that only matters for writes (erase-before-write, §6.3).
//
// Writes cost more device work per byte (write_cost_factor); a transfer's
// remaining work is tracked in *work units* = bytes × cost factor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "hw/fluid_pool.h"
#include "metrics/io_accounting.h"
#include "prof/profiler.h"
#include "sim/simulation.h"

namespace saex::hw {

struct DiskParams {
  double base_bw = 112e6;          // bytes/sec, single outstanding request
  double ncq_gain = 1.0;           // peak capacity gain from request queueing
  double ncq_pow = 1.3;            // how fast the queueing gain saturates
  double frag_coeff = 0.045;       // per-stream degradation beyond k_sat
  double k_sat = 4.0;              // streams the device handles at peak
  double ssd_ramp = 0.0;           // >0 selects the SSD capacity curve
  double wear_coeff = 0.0;         // SSD high-concurrency write penalty
  double k_wear = 16.0;            // concurrency where the wear penalty starts
  double write_cost_factor = 1.0;  // device work per written byte vs read
  // Write-back caching coalesces writes into large sequential batches, so a
  // write stream fragments readahead far less than a read stream; it counts
  // into the concurrency level k with this weight.
  double write_stream_weight = 0.25;
  double latency = 0.0004;         // fixed per-transfer setup latency (s)

  /// 7'200 rpm SATA HDD as in the paper's main testbed (§6.1).
  static DiskParams hdd();
  /// SATA SSD as in §6.3.
  static DiskParams ssd();
};

// One active transfer of a Disk.
struct DiskTransfer {
  double remaining;  // work units: bytes × cost factor
  bool is_write;
  sim::Callback done;
};

class Disk : public FluidPool<Disk, DiskTransfer, prof::Subsystem::kDisk> {
 public:
  /// `speed_factor` scales base bandwidth; models node heterogeneity (Fig. 3).
  Disk(sim::Simulation& sim, DiskParams params, std::string name,
       double speed_factor = 1.0);
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Starts a transfer of `bytes`; `done` fires when it completes. Transfers
  /// are independent streams (one per blocked task chunk). `work_factor`
  /// scales the device work per byte: scattered access patterns (many small
  /// records, e.g. hash-shuffle spill files) cost more positioning time per
  /// byte than large sequential runs.
  void submit(Bytes bytes, bool is_write, sim::Callback done,
              double work_factor = 1.0);

  // The state readers first admit the arrivals due by now (catch_up), so
  // they read what a wake-up per arrival would have left.
  int active_transfers() {
    catch_up();
    return static_cast<int>(jobs_.size());
  }

  /// Changes the bandwidth scale at runtime (fault injection: a degraded
  /// device turns the node into a straggler). In-flight transfers are
  /// settled at the old rate up to now, then continue at the new one.
  void set_speed_factor(double factor);
  double speed_factor() const noexcept { return speed_factor_; }

  /// Device capacity (bytes of read-equivalent work per second) at
  /// concurrency k; exposed for tests and calibration tools.
  double capacity_at(int k) const noexcept { return capacity_eff(static_cast<double>(k)); }
  /// Same over the effective (write-weighted, fractional) concurrency.
  double capacity_eff(double k) const noexcept;

  Bytes total_bytes_read() {
    catch_up();
    return bytes_read_;
  }
  Bytes total_bytes_written() {
    catch_up();
    return bytes_written_;
  }

  /// Window (sim seconds) of the executor sensor's disk %util reading
  /// (ExecutorRuntime::sample); the busy tracker retains exactly this much
  /// history.
  static constexpr double kUtilWindow = 5.0;

  /// Busy tracker: 1 while any transfer is active (iostat %util semantics).
  const metrics::UtilizationTracker& busy_tracker() {
    catch_up();
    return busy_;
  }

  const std::string& name() const noexcept { return name_; }
  const DiskParams& params() const noexcept { return params_; }

 private:
  friend FluidPool;

  // FluidPool hooks. Every transfer runs at the one per-transfer rate, so
  // the pool projects its next completion through pending arrivals: the
  // lookahead loads are stream counts, and one arrival is one increment.
  void settle(double dt);
  void retire(const DiskTransfer& tr);
  void admit(const DiskTransfer& tr, Bytes bytes);
  double until_next(double min_remaining) const noexcept {
    return min_remaining / rate_per_transfer(read_streams_, write_streams_);
  }
  void set_busy(bool busy, sim::Time at) {
    busy_.set_active(at, busy ? 1.0 : 0.0);
  }
  bool reset_ahead() noexcept {
    ahead_reads_ = read_streams_;
    ahead_writes_ = write_streams_;
    return true;
  }
  void admit_ahead(const DiskTransfer& tr) noexcept {
    ++(tr.is_write ? ahead_writes_ : ahead_reads_);
  }
  double ahead_rate() const noexcept {
    return rate_per_transfer(ahead_reads_, ahead_writes_);
  }

  double rate_per_transfer(int reads, int writes) const noexcept;
  double capacity_uncached(double kd) const noexcept;

  DiskParams params_;
  std::string name_;
  double speed_factor_;

  int read_streams_ = 0;   // active read transfers
  int write_streams_ = 0;  // active write transfers
  int ahead_reads_ = 0;    // the same at the projection's end
  int ahead_writes_ = 0;
  // capacity_eff(kd) memo over quarter-stream steps (kd is always
  // reads + 0.25*writes on the hot path); invalidated by set_speed_factor.
  mutable std::vector<double> cap_cache_;

  Bytes bytes_read_ = 0;
  Bytes bytes_written_ = 0;
  metrics::UtilizationTracker busy_{1.0, kUtilWindow};
};

}  // namespace saex::hw
