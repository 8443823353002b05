// Block-based distributed filesystem (the engine's HDFS substitute).
//
// Files are split into fixed-size blocks with replicated placement across
// cluster nodes. The DFS owns the namespace and placement; actual byte
// movement is performed by whoever reads/writes (the engine's executor
// runtime drives disk and network transfers from the locations returned
// here). Matches the paper's setup: HDFS 2.9, 128 MB blocks, input
// replication = cluster size so read stages achieve full locality (§6.1).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "dfs/placement.h"
#include "hw/cluster.h"

namespace saex::dfs {

struct Block {
  Bytes size = 0;
  std::vector<int> replicas;  // node ids; first is the primary

  bool is_local_to(int node) const noexcept;
};

struct FileInfo {
  std::string path;
  Bytes size = 0;
  std::vector<Block> blocks;
};

class Dfs {
 public:
  struct Options {
    Bytes block_size = mib(128);
    int default_replication = 3;
    uint64_t seed = 7;
  };

  Dfs(hw::Cluster& cluster, Options options);

  /// Registers a pre-existing input file (the HiBench "prepare" step): the
  /// data is assumed on disk already, so no simulated I/O happens here.
  /// `block_size` of 0 uses the filesystem default; smaller values model
  /// inputs stored as many small files (e.g. HiBench's SQL tables).
  const FileInfo& load_input(std::string path, Bytes size, int replication,
                             Bytes block_size = 0);

  /// Registers an output file created by a writer on `writer_node`; the
  /// caller is responsible for simulating the write transfers. Returns the
  /// replica pipeline for each block.
  const FileInfo& create_output(std::string path, Bytes size, int writer_node,
                                int replication);

  const FileInfo* lookup(std::string_view path) const noexcept;
  bool exists(std::string_view path) const noexcept { return lookup(path) != nullptr; }
  void remove(std::string_view path);

  Bytes block_size() const noexcept { return options_.block_size; }

  /// Picks the source node for reading `block` from `reader_node`:
  /// the reader itself when local, otherwise a deterministic-random replica.
  int choose_read_source(const Block& block, int reader_node);

 private:
  FileInfo make_file(std::string path, Bytes size, int replication,
                     int preferred_node, Bytes block_size);

  Options options_;
  PlacementPolicy placement_;
  Rng read_rng_;
  std::map<std::string, FileInfo, std::less<>> files_;
};

}  // namespace saex::dfs
