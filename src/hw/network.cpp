#include "hw/network.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace saex::hw {

Network::Network(sim::Simulation& sim, int num_nodes, NetworkParams params)
    : FluidPool(sim),
      params_(params),
      up_count_(static_cast<size_t>(num_nodes), 0),
      down_count_(static_cast<size_t>(num_nodes), 0),
      open_count_(static_cast<size_t>(num_nodes), 0),
      open_senders_(static_cast<size_t>(num_nodes), 0),
      sent_(static_cast<size_t>(num_nodes), 0) {}

void Network::register_fetch(NodeId src, NodeId dst) { open_inc(src, dst); }

void Network::unregister_fetch(NodeId src, NodeId dst) { open_dec(src, dst); }

double Network::down_capacity_eff(int senders, int open_requests) const noexcept {
  const double src_excess = std::max(
      0.0, static_cast<double>(senders) - params_.incast_src_threshold);
  const double flow_excess = std::max(
      0.0, static_cast<double>(open_requests) - params_.incast_flow_threshold);
  return params_.down_bw /
         (1.0 + params_.incast_coeff * src_excess * flow_excess);
}

double Network::flow_rate(const NetworkFlow& f) const noexcept {
  const int n_up = up_count_[static_cast<size_t>(f.src)];
  const int n_down = down_count_[static_cast<size_t>(f.dst)];
  assert(n_up > 0 && n_down > 0);
  // Every flow holds one fair share on each link and carries its own rate
  // cap (per_flow_cap for a plain transfer).
  const double up_share = params_.up_bw / static_cast<double>(n_up);
  const double down_share =
      down_capacity_eff(senders_to(f.dst),
                        std::max(n_down, fetches_to(f.dst))) /
      static_cast<double>(n_down);
  return std::min({up_share, down_share, f.cap});
}

void Network::transfer(NodeId src, NodeId dst, Bytes bytes,
                       sim::Callback done) {
  start_flow(src, dst, bytes, params_.per_flow_cap, std::move(done));
}

void Network::transfer_flow(NodeId src, NodeId dst, Bytes bytes,
                            Bytes chunk_bytes, sim::Callback done) {
  ++flow_transfers_;
  // Chunked-goodput cap: a per-chunk stream pays the setup latency before
  // every chunk_bytes request, so its steady-state rate is below
  // per_flow_cap. Folding that protocol overhead into the cap keeps the
  // batched flow's finish time aligned with the per-chunk pipeline it
  // replaces.
  double cap = params_.per_flow_cap;
  if (chunk_bytes > 0 && params_.latency > 0.0) {
    cap = 1.0 / (params_.latency / static_cast<double>(chunk_bytes) +
                 1.0 / params_.per_flow_cap);
  }
  start_flow(src, dst, bytes, cap, std::move(done));
}

void Network::start_flow(NodeId src, NodeId dst, Bytes bytes, double cap,
                         sim::Callback done) {
  assert(src != dst && "local data must not cross the network");
  assert(bytes >= 0);
  ++transfers_started_;
  enqueue(params_.latency, bytes,
          NetworkFlow{src, dst, static_cast<double>(bytes), cap,
                      std::move(done)});
}

void Network::settle(double dt) {
  // Every flow settles at the rates implied by the *current* counts: the
  // completion sweep decrements them only after this loop.
  for (auto& f : jobs_) f.remaining -= flow_rate(f) * dt;
}

void Network::retire(const NetworkFlow& f) {
  --up_count_[static_cast<size_t>(f.src)];
  --down_count_[static_cast<size_t>(f.dst)];
  open_dec(f.src, f.dst);
}

void Network::admit(const NetworkFlow& f, Bytes bytes) {
  ++up_count_[static_cast<size_t>(f.src)];
  ++down_count_[static_cast<size_t>(f.dst)];
  open_inc(f.src, f.dst);
  sent_[static_cast<size_t>(f.src)] += bytes;
  total_bytes_ += bytes;
}

double Network::until_next(double /*min_remaining*/) const noexcept {
  // Flows run at different rates, so the least remaining work does not
  // locate the next completion: scan every survivor at its post-completion
  // rate.
  double min_time = std::numeric_limits<double>::infinity();
  for (const auto& f : jobs_) {
    min_time = std::min(min_time, f.remaining / flow_rate(f));
  }
  return min_time;
}

}  // namespace saex::hw
