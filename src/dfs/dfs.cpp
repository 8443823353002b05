#include "dfs/dfs.h"
#include "common/format.h"

#include <algorithm>
#include <cassert>

namespace saex::dfs {

bool Block::is_local_to(int node) const noexcept {
  return std::find(replicas.begin(), replicas.end(), node) != replicas.end();
}

Dfs::Dfs(hw::Cluster& cluster, Options options)
    : options_(options),
      placement_(cluster.size(), Rng(options.seed).fork("placement")),
      read_rng_(Rng(options.seed).fork("read-source")) {}

FileInfo Dfs::make_file(std::string path, Bytes size, int replication,
                        int preferred_node, Bytes block_size) {
  if (block_size <= 0) block_size = options_.block_size;
  FileInfo info;
  info.path = std::move(path);
  info.size = size;
  Bytes remaining = size;
  while (remaining > 0) {
    Block b;
    b.size = std::min(remaining, block_size);
    b.replicas = placement_.place(replication, preferred_node);
    remaining -= b.size;
    info.blocks.push_back(std::move(b));
  }
  return info;
}

const FileInfo& Dfs::load_input(std::string path, Bytes size, int replication,
                                Bytes block_size) {
  assert(!exists(path) && "file already exists");
  FileInfo info =
      make_file(path, size, replication, /*preferred_node=*/-1, block_size);
  auto [it, inserted] = files_.emplace(info.path, std::move(info));
  assert(inserted);
  return it->second;
}

const FileInfo& Dfs::create_output(std::string path, Bytes size,
                                   int writer_node, int replication) {
  assert(!exists(path) && "file already exists");
  FileInfo info = make_file(path, size, replication, writer_node, 0);
  auto [it, inserted] = files_.emplace(info.path, std::move(info));
  assert(inserted);
  return it->second;
}

const FileInfo* Dfs::lookup(std::string_view path) const noexcept {
  const auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

void Dfs::remove(std::string_view path) {
  const auto it = files_.find(path);
  if (it != files_.end()) files_.erase(it);
}

int Dfs::choose_read_source(const Block& block, int reader_node) {
  assert(!block.replicas.empty());
  if (block.is_local_to(reader_node)) return reader_node;
  const auto idx = static_cast<size_t>(
      read_rng_.uniform_int(0, static_cast<int64_t>(block.replicas.size()) - 1));
  return block.replicas[idx];
}

}  // namespace saex::dfs
