// Cluster interconnect model.
//
// Flows between nodes share per-node uplink/downlink capacity. A flow's rate
// is min(fair uplink share at the source, fair downlink share at the
// destination, a per-stream cap). Downlinks additionally suffer an *incast*
// goodput collapse when MANY DISTINCT SENDERS converge at HIGH request
// concurrency (synchronized bursts overflowing the switch port buffer):
//
//   penalty = 1 + coeff * max(0, senders - src_threshold)
//                       * max(0, open_requests - flow_threshold)
//
// Both factors are required: a 4-node cluster can never exceed 3 senders
// per port (no collapse at any thread count), while a 16-node cluster at
// the default 32 threads has ~15 senders x ~30 open fetches and collapses —
// the paper's Fig. 9 observation that the default configuration does not
// scale while the tuned ones do.
//
// Like the disk, the model is event-driven: rates are piecewise constant
// between flow arrivals/departures, and the settle → complete → reschedule
// pass, the setup-latency arrival FIFO and the one wake-up are the disk's
// too (hw::FluidPool). Unlike the disk, the network declines the pool's
// projection through pending arrivals: its flows run at different rates, so
// the least remaining bytes do not locate the next completion, and
// register_fetch/unregister_fetch change incast rates outside the pool. Its
// wake-up therefore stays at the earlier of the next completion and the
// FIFO front, one wake-up per arrival instant.
#pragma once

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "hw/fluid_pool.h"
#include "prof/profiler.h"
#include "sim/simulation.h"

namespace saex::hw {

struct NetworkParams {
  double up_bw = 1.25e9;    // 10 GbE per node
  double down_bw = 1.25e9;
  double incast_src_threshold = 6.0;    // distinct senders before collapse
  double incast_flow_threshold = 12.0;  // open requests before collapse
  double incast_coeff = 0.15;           // collapse slope (product form)
  // A single request-response stream cannot saturate the link (TCP windows,
  // shuffle-server round trips); it tops out here. Makes low-thread-count
  // fetch stages latency-bound, as measured in the paper's Fig. 7c.
  double per_flow_cap = 30e6;
  // Per-transfer setup cost: connection/request round trips plus the
  // shuffle server's block lookup. Significant for small chunked fetches.
  double latency = 0.02;
};

// One active flow of a Network.
struct NetworkFlow {
  int src;
  int dst;
  double remaining;  // bytes
  sim::Callback done;
};

class Network
    : public FluidPool<Network, NetworkFlow, prof::Subsystem::kNetwork> {
 public:
  using NodeId = int;

  Network(sim::Simulation& sim, int num_nodes, NetworkParams params);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Starts a flow; `done` fires at completion. The flow pays the setup
  /// latency in the arrival FIFO, then holds one fair share of the uplink
  /// and the downlink, capped at per_flow_cap. src == dst is invalid (local
  /// data never crosses the network). A shuffle fetch issues one transfer
  /// per io_chunk of a block; transfers due at one instant join in one
  /// wake-up.
  void transfer(NodeId src, NodeId dst, Bytes bytes, sim::Callback done);

  /// Fetch-connection accounting: a shuffle/remote-read request holds its
  /// connection open while the server reads the block from disk, so the
  /// congestion (incast) level of a downlink counts registered fetches, not
  /// just in-flight byte transfers. The one caller pair is the executor
  /// runtime's per-chunk remote read: register before the source disk
  /// read, unregister when the chunk's transfer completes.
  ///
  /// Both change a downlink's incast rate outside mutate(), so the active
  /// flows are not settled first and the wake-up stays where it was: the
  /// new rate applies back to the last pass. Kept as is because routing
  /// them through mutate() moves every result that has a shuffle; that fix
  /// is these two call sites plus a re-baseline of the recorded results.
  void register_fetch(NodeId src, NodeId dst);
  void unregister_fetch(NodeId src, NodeId dst);
  int fetches_to(NodeId dst) const noexcept {
    return open_count_[static_cast<size_t>(dst)];
  }
  int senders_to(NodeId dst) const noexcept {
    return open_senders_[static_cast<size_t>(dst)];
  }

  /// Active flows leaving / entering a node.
  int flows_from(NodeId n) const noexcept { return up_count_[static_cast<size_t>(n)]; }
  int flows_to(NodeId n) const noexcept { return down_count_[static_cast<size_t>(n)]; }
  int active_flows() const noexcept { return static_cast<int>(jobs_.size()); }

  Bytes bytes_sent(NodeId n) const noexcept { return sent_[static_cast<size_t>(n)]; }
  Bytes total_bytes() const noexcept { return total_bytes_; }

  /// Data-plane event accounting: transfer() calls so far.
  int64_t transfers_started() const noexcept { return transfers_started_; }
  /// Always 0: every transfer is a plain one. Kept for the repository
  /// benchmark, which still reports it as hw.net.flow_transfers.
  int64_t flow_transfers() const noexcept { return 0; }

  /// Fault-injection accounting: a shuffle fetch that was dropped before any
  /// bytes moved (saex.fault.fetchFailProb, or the source executor died).
  void record_dropped_fetch() noexcept { ++dropped_fetches_; }
  int64_t dropped_fetches() const noexcept { return dropped_fetches_; }

  /// Effective downlink capacity with `senders` distinct sources holding
  /// `open_requests` concurrent requests (for tests).
  double down_capacity_eff(int senders, int open_requests) const noexcept;

  const NetworkParams& params() const noexcept { return params_; }

 private:
  friend FluidPool;

  double flow_rate(const NetworkFlow& f) const noexcept;
  // FluidPool hooks. Each flow runs at its own flow_rate().
  void settle(double dt);
  void retire(const NetworkFlow& f);
  void admit(const NetworkFlow& f, Bytes bytes);
  double until_next(double min_remaining) const noexcept;

  static uint64_t open_key(NodeId src, NodeId dst) noexcept {
    return (static_cast<uint64_t>(static_cast<uint32_t>(dst)) << 32) |
           static_cast<uint32_t>(src);
  }
  void open_inc(NodeId src, NodeId dst) {
    if (open_[open_key(src, dst)]++ == 0) {
      ++open_senders_[static_cast<size_t>(dst)];
    }
    ++open_count_[static_cast<size_t>(dst)];
  }
  void open_dec(NodeId src, NodeId dst) {
    const auto it = open_.find(open_key(src, dst));
    // An unbalanced dec (no prior open_inc) is an invariant violation; fail
    // loudly under debug instead of dereferencing end().
    assert(it != open_.end() && it->second > 0);
    if (it == open_.end()) return;
    if (--it->second == 0) {
      --open_senders_[static_cast<size_t>(dst)];
      open_.erase(it);
    }
    --open_count_[static_cast<size_t>(dst)];
  }

  NetworkParams params_;
  // Per-node link loads: active flows leaving / entering each node.
  std::vector<int> up_count_;
  std::vector<int> down_count_;
  // open_[(dst,src)]: open requests (registered fetches + active transfers),
  // stored sparsely so a 10k-node cluster does not pay O(nodes^2) memory for
  // a matrix that is almost entirely zero. Entries are erased when they drop
  // back to zero. The per-dst rollups (total requests + distinct senders)
  // are maintained incrementally so flow_rate() is O(1), not O(nodes).
  std::unordered_map<uint64_t, int> open_;
  std::vector<int> open_count_;    // Σ_src open_[dst][src]
  std::vector<int> open_senders_;  // #{src : open_[dst][src] > 0}
  std::vector<Bytes> sent_;
  Bytes total_bytes_ = 0;
  int64_t transfers_started_ = 0;
  int64_t dropped_fetches_ = 0;
};

}  // namespace saex::hw
