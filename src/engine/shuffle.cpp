#include "engine/shuffle.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "prof/profiler.h"

namespace saex::engine {

namespace {

// First entry of a node-sorted output list whose node is >= `node`.
template <typename Outputs>
auto lower_bound_node(Outputs& outputs, int node) {
  return std::lower_bound(
      outputs.begin(), outputs.end(), node,
      [](const auto& out, int n) { return out.node < n; });
}

}  // namespace

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
  assert(partition >= 0 && bytes >= 0);
  ShuffleState& s = state_for(shuffle_id);
  s.created = true;
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
  if (bytes > 0) {
    auto it = lower_bound_node(s.outputs, node);
    if (it == s.outputs.end() || it->node != node) {
      it = s.outputs.insert(it, NodeOutput{node, 0});
    }
    it->bytes += bytes;
  }
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

std::vector<FetchShare> ShuffleManager::fetch_plan(int shuffle_id,
                                                   const ReduceSlice& slice,
                                                   int num_partitions,
                                                   int reader) const {
  SAEX_PROF_SCOPE(kShuffle);
  const auto [first, last, split_index, num_splits] = slice;
  assert(first >= 0 && first <= last && last < num_partitions);
  assert(num_splits >= 1 && split_index >= 0 && split_index < num_splits);
  assert(num_splits == 1 || first == last);
  assert(reader >= 0 && reader < num_nodes_);
  std::vector<FetchShare> plan;
  if (!has_shuffle(shuffle_id)) return plan;
  const ShuffleState& s = shuffles_[static_cast<size_t>(shuffle_id)];
  plan.reserve(s.outputs.size());
  const auto add = [&](const NodeOutput& out) {
    Bytes share = cum_share(s, out.bytes, last + 1, num_partitions) -
                  cum_share(s, out.bytes, first, num_partitions);
    if (num_splits > 1) {
      // Exact sub-range split of one partition's share: floor-difference
      // apportionment, so the num_splits sub-tasks sum to the share.
      const Bytes lo = share * static_cast<Bytes>(split_index) /
                       static_cast<Bytes>(num_splits);
      const Bytes hi = share * static_cast<Bytes>(split_index + 1) /
                       static_cast<Bytes>(num_splits);
      share = hi - lo;
    }
    if (share != 0) plan.push_back(FetchShare{out.node, share});
  };
  const auto start = lower_bound_node(s.outputs, reader);
  std::for_each(start, s.outputs.end(), add);
  std::for_each(s.outputs.begin(), start, add);
  return plan;
}

std::vector<Bytes> ShuffleManager::reduce_partition_bytes(
    int shuffle_id, int num_partitions) const {
  std::vector<Bytes> out(static_cast<size_t>(num_partitions), 0);
  if (!has_shuffle(shuffle_id)) return out;
  const ShuffleState& s = shuffles_[static_cast<size_t>(shuffle_id)];
  for (const NodeOutput& node : s.outputs) {
    Bytes prev = 0;
    for (int r = 0; r < num_partitions; ++r) {
      const Bytes cum = cum_share(s, node.bytes, r + 1, num_partitions);
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
    [[maybe_unused]] Bytes dropped = 0;
    for (size_t p = 0; p < s.commit_node.size(); ++p) {
      if (s.commit_node[p] != node) continue;
      dropped += s.commit_bytes[p];
      s.commit_node[p] = -1;
      s.commit_bytes[p] = 0;
      if (partitions == nullptr) partitions = &lost[static_cast<int>(sid)];
      partitions->push_back(static_cast<int>(p));
    }
    const auto it = lower_bound_node(s.outputs, node);
    const bool held = it != s.outputs.end() && it->node == node;
    assert((held ? it->bytes : 0) == dropped &&
           "node total out of sync with partition commits");
    if (held) s.outputs.erase(it);
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
  for (const NodeOutput& out : s.outputs) total += out.bytes;
  return total;
}

Bytes ShuffleManager::node_output(int shuffle_id, int node) const noexcept {
  if (!has_shuffle(shuffle_id)) return 0;
  const ShuffleState& s = shuffles_[static_cast<size_t>(shuffle_id)];
  const auto it = lower_bound_node(s.outputs, node);
  return it != s.outputs.end() && it->node == node ? it->bytes : 0;
}

}  // namespace saex::engine
