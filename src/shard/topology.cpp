#include "shard/topology.h"

#include "common/format.h"

namespace saex::shard {

ShardOptions ShardOptions::from_config(const conf::Config& config) {
  ShardOptions o;
  o.count = static_cast<int>(config.get_int("saex.shard.count"));
  o.workers = static_cast<int>(config.get_int("saex.shard.workers"));
  o.placement = config.get_string("saex.shard.placement");
  if (o.count < 1) {
    throw conf::ConfigError(
        strfmt::format("saex.shard.count must be >= 1 (got {})", o.count));
  }
  if (o.workers < 1) {
    throw conf::ConfigError(
        strfmt::format("saex.shard.workers must be >= 1 (got {})", o.workers));
  }
  if (o.placement != "hash" && o.placement != "least" && o.placement != "rr") {
    throw conf::ConfigError(strfmt::format(
        "saex.shard.placement '{}' (valid: hash, least, rr)", o.placement));
  }
  return o;
}

ShardTopology::ShardTopology(int total_nodes, int shard_count)
    : total_nodes_(total_nodes), shard_count_(shard_count) {
  if (shard_count < 1) {
    throw conf::ConfigError(
        strfmt::format("shard count must be >= 1 (got {})", shard_count));
  }
  if (shard_count > total_nodes) {
    throw conf::ConfigError(strfmt::format(
        "shard count {} exceeds cluster size {}", shard_count, total_nodes));
  }
  begin_.reserve(static_cast<size_t>(shard_count) + 1);
  const int base = total_nodes / shard_count;
  const int extra = total_nodes % shard_count;
  int at = 0;
  for (int s = 0; s < shard_count; ++s) {
    begin_.push_back(at);
    at += base + (s < extra ? 1 : 0);
  }
  begin_.push_back(at);
}

int ShardTopology::shard_of(int global_node) const noexcept {
  const int base = total_nodes_ / shard_count_;
  const int extra = total_nodes_ % shard_count_;
  const int fat_span = extra * (base + 1);  // first `extra` shards are larger
  if (global_node < fat_span) return global_node / (base + 1);
  return extra + (global_node - fat_span) / base;
}

}  // namespace saex::shard
