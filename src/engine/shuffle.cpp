#include "engine/shuffle.h"

#include <cassert>
#include <cmath>

#include "prof/profiler.h"

namespace saex::engine {

std::vector<FetchShare> rotate_fetch_plan(const std::vector<Bytes>& plan,
                                          int node_id) {
  const int n = static_cast<int>(plan.size());
  std::vector<FetchShare> out;
  out.reserve(plan.size());
  for (int i = 0; i < n; ++i) {
    const int src = (node_id + i) % n;
    const Bytes bytes = plan[static_cast<size_t>(src)];
    if (bytes == 0) continue;
    out.push_back(FetchShare{src, bytes});
  }
  return out;
}

ShuffleManager::ShuffleState& ShuffleManager::state_for(int shuffle_id) {
  assert(shuffle_id >= 0);
  if (static_cast<size_t>(shuffle_id) >= shuffles_.size()) {
    shuffles_.resize(static_cast<size_t>(shuffle_id) + 1);
  }
  return shuffles_[static_cast<size_t>(shuffle_id)];
}

bool ShuffleManager::register_map_output(int shuffle_id, int node,
                                         int partition, Bytes bytes) {
  assert(node >= 0 && node < num_nodes_);
  assert(partition >= 0);
  ShuffleState& s = state_for(shuffle_id);
  if (!s.created) {
    s.created = true;
    s.per_node.assign(static_cast<size_t>(num_nodes_), 0);
  }
  if (static_cast<size_t>(partition) >= s.commit_node.size()) {
    s.commit_node.resize(static_cast<size_t>(partition) + 1, -1);
    s.commit_bytes.resize(static_cast<size_t>(partition) + 1, 0);
  }
  if (s.commit_node[static_cast<size_t>(partition)] >= 0) {
    ++duplicate_commits_;
    return false;
  }
  s.commit_node[static_cast<size_t>(partition)] = node;
  s.commit_bytes[static_cast<size_t>(partition)] = bytes;
  s.per_node[static_cast<size_t>(node)] += bytes;
  return true;
}

void ShuffleManager::set_reduce_skew(int shuffle_id, double alpha) {
  if (alpha <= 0.0) return;
  ShuffleState& s = state_for(shuffle_id);
  if (s.skew == alpha) return;
  s.skew = alpha;
  s.cum_w.clear();
}

void ShuffleManager::ensure_weights(const ShuffleState& s, int R) {
  if (static_cast<int>(s.cum_w.size()) == R + 1) return;
  s.cum_w.assign(static_cast<size_t>(R) + 1, 0.0);
  double total = 0.0;
  for (int r = 0; r < R; ++r) {
    total += std::pow(static_cast<double>(r + 1), -s.skew);
    s.cum_w[static_cast<size_t>(r) + 1] = total;
  }
  for (int r = 1; r <= R; ++r) s.cum_w[static_cast<size_t>(r)] /= total;
  s.cum_w[static_cast<size_t>(R)] = 1.0;  // exact upper end despite rounding
}

Bytes ShuffleManager::cum_share(const ShuffleState& s, Bytes total, int upto,
                                int R) {
  if (upto <= 0) return 0;
  if (upto >= R) return total;
  if (s.skew <= 0.0) {
    // Uniform: the cumulative form of the historical base+remainder split
    // (base = total/R, partitions below total%R take one extra byte).
    return static_cast<Bytes>(upto) * (total / R) +
           std::min<Bytes>(upto, total % R);
  }
  ensure_weights(s, R);
  return static_cast<Bytes>(static_cast<double>(total) *
                            s.cum_w[static_cast<size_t>(upto)]);
}

std::vector<Bytes> ShuffleManager::fetch_plan(int shuffle_id,
                                              const ReduceSlice& slice,
                                              int num_partitions) const {
  SAEX_PROF_SCOPE(kShuffle);
  const auto [first, last, split_index, num_splits] = slice;
  assert(first >= 0 && first <= last && last < num_partitions);
  assert(num_splits >= 1 && split_index >= 0 && split_index < num_splits);
  assert(num_splits == 1 || first == last);
  std::vector<Bytes> plan(static_cast<size_t>(num_nodes_), 0);
  if (!has_shuffle(shuffle_id)) return plan;
  const ShuffleState& s = shuffles_[static_cast<size_t>(shuffle_id)];
  for (int n = 0; n < num_nodes_; ++n) {
    const Bytes total = s.per_node[static_cast<size_t>(n)];
    const Bytes share = cum_share(s, total, last + 1, num_partitions) -
                        cum_share(s, total, first, num_partitions);
    if (num_splits == 1) {
      plan[static_cast<size_t>(n)] = share;
    } else {
      // Exact sub-range split of one partition's share: floor-difference
      // apportionment, so the num_splits sub-tasks sum to the share.
      const Bytes lo = share * static_cast<Bytes>(split_index) /
                       static_cast<Bytes>(num_splits);
      const Bytes hi = share * static_cast<Bytes>(split_index + 1) /
                       static_cast<Bytes>(num_splits);
      plan[static_cast<size_t>(n)] = hi - lo;
    }
  }
  return plan;
}

std::vector<Bytes> ShuffleManager::reduce_partition_bytes(
    int shuffle_id, int num_partitions) const {
  std::vector<Bytes> out(static_cast<size_t>(num_partitions), 0);
  if (!has_shuffle(shuffle_id)) return out;
  const ShuffleState& s = shuffles_[static_cast<size_t>(shuffle_id)];
  for (int n = 0; n < num_nodes_; ++n) {
    const Bytes total = s.per_node[static_cast<size_t>(n)];
    if (total == 0) continue;
    Bytes prev = 0;
    for (int r = 0; r < num_partitions; ++r) {
      const Bytes cum = cum_share(s, total, r + 1, num_partitions);
      out[static_cast<size_t>(r)] += cum - prev;
      prev = cum;
    }
  }
  return out;
}

std::vector<Bytes> ShuffleManager::map_partition_bytes(int shuffle_id) const {
  if (!has_shuffle(shuffle_id)) return {};
  return shuffles_[static_cast<size_t>(shuffle_id)].commit_bytes;
}

std::map<int, std::vector<int>> ShuffleManager::on_node_lost(int node) {
  std::map<int, std::vector<int>> lost;
  for (size_t sid = 0; sid < shuffles_.size(); ++sid) {
    ShuffleState& s = shuffles_[sid];
    if (!s.created) continue;
    std::vector<int>* partitions = nullptr;
    for (size_t p = 0; p < s.commit_node.size(); ++p) {
      if (s.commit_node[p] != node) continue;
      s.per_node[static_cast<size_t>(node)] -= s.commit_bytes[p];
      s.commit_node[p] = -1;
      s.commit_bytes[p] = 0;
      if (partitions == nullptr) partitions = &lost[static_cast<int>(sid)];
      partitions->push_back(static_cast<int>(p));
    }
    assert(s.per_node[static_cast<size_t>(node)] == 0 &&
           "per-node total out of sync with partition commits");
  }
  return lost;
}

bool ShuffleManager::partition_committed(int shuffle_id,
                                         int partition) const noexcept {
  if (!has_shuffle(shuffle_id) || partition < 0) return false;
  const ShuffleState& s = shuffles_[static_cast<size_t>(shuffle_id)];
  return static_cast<size_t>(partition) < s.commit_node.size() &&
         s.commit_node[static_cast<size_t>(partition)] >= 0;
}

Bytes ShuffleManager::total_output(int shuffle_id) const noexcept {
  if (!has_shuffle(shuffle_id)) return 0;
  const ShuffleState& s = shuffles_[static_cast<size_t>(shuffle_id)];
  Bytes total = 0;
  for (Bytes b : s.per_node) total += b;
  return total;
}

Bytes ShuffleManager::node_output(int shuffle_id, int node) const noexcept {
  if (!has_shuffle(shuffle_id)) return 0;
  const ShuffleState& s = shuffles_[static_cast<size_t>(shuffle_id)];
  return s.per_node[static_cast<size_t>(node)];
}

}  // namespace saex::engine
