// The FTA (File Transfer Agent) cluster topology — Figure 7 of the paper.
//
//   RoadRunner -> [two 10GigE trunks] -> 10 FTA nodes -> [FC4 SAN] ->
//   archive GPFS disk (NSD servers) + 24 LTO-4 tape drives
//
// The scratch parallel file system (Panasas stand-in) hangs off the same
// trunks.  Every component with finite bandwidth is a FlowNetwork pool:
// per-node NICs and HBAs, the two trunks, the SAN fabric, and one pool per
// NSD disk server on each file system.  Path-builder methods assemble the
// pool list a given transfer must traverse; the HSM gets its Fabric from
// here.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hsm/fabric.hpp"
#include "pfs/filesystem.hpp"
#include "simcore/flow_network.hpp"
#include "tape/drive.hpp"

namespace cpa::cluster {

using tape::NodeId;

struct ClusterConfig {
  unsigned fta_nodes = 10;
  /// Per-node 10-gigabit Ethernet NIC.
  double node_nic_bps = 1250.0 * 1e6;
  /// Site trunks between the scratch file system and the FTA cluster
  /// ("Two 10-Gigabit Ethernet links were used", Sec 5.1).
  unsigned trunk_count = 2;
  double trunk_bps = 1250.0 * 1e6;
  /// Per-node FC4 HBA ("Each of these machines has a fiber channel card
  /// (FC4)", Sec 4.3.1).
  double node_hba_bps = 400.0 * 1e6;
  /// Shared SAN fabric capacity.
  double san_bps = 8000.0 * 1e6;
  /// Per-NSD-server bandwidth on the archive file system (5 disk nodes /
  /// 100 TB of fast FC disk).
  double archive_nsd_bps = 500.0 * 1e6;
  /// Per-NSD bandwidth on the scratch file system (Panasas shelves).
  double scratch_nsd_bps = 400.0 * 1e6;
};

class Cluster {
 public:
  /// Builds pools for the given file systems.  `scratch` may equal
  /// `archive` in single-file-system setups (pools are built once per
  /// distinct file system).
  Cluster(sim::FlowNetwork& net, ClusterConfig cfg, pfs::FileSystem& archive,
          pfs::FileSystem& scratch);

  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] unsigned node_count() const { return cfg_.fta_nodes; }

  // --- raw pools -------------------------------------------------------------
  [[nodiscard]] sim::PoolId node_nic(NodeId n) const { return nics_.at(n); }
  [[nodiscard]] sim::PoolId node_hba(NodeId n) const { return hbas_.at(n); }
  [[nodiscard]] sim::PoolId trunk_for(NodeId n) const {
    return trunks_.at(n % trunks_.size());
  }
  [[nodiscard]] sim::PoolId san() const { return san_; }

  // --- path builders -----------------------------------------------------------
  /// Pools a read/write of file `fid` [offset, offset+len) on `fs`
  /// touches on the disk side (its NSD servers).  Empty when `fid` names
  /// no live regular file.
  [[nodiscard]] std::vector<sim::PathLeg> disk_path(const pfs::FileSystem& fs,
                                                   pfs::FileId fid,
                                                   std::uint64_t offset,
                                                   std::uint64_t len) const;

  /// Full path for a PFTool copy through node `n`: source NSDs -> trunk ->
  /// node NIC (network side) -> node HBA -> SAN -> destination NSDs.  The
  /// files go by the ids the copy already holds, so no path is resolved.
  [[nodiscard]] std::vector<sim::PathLeg> copy_path(
      NodeId n, const pfs::FileSystem& src_fs, pfs::FileId src,
      const pfs::FileSystem& dst_fs, pfs::FileId dst, std::uint64_t offset,
      std::uint64_t len) const;

  /// The HSM's view of this topology (archive disk + SAN/LAN legs).  Its
  /// disk legs go by file id, as the HSM holds its migrate items.
  [[nodiscard]] hsm::Fabric fabric() const;

  // --- LoadManager feed (Sec 4.1.2 item 1) -------------------------------------
  void add_load(NodeId n, double amount = 1.0);
  void remove_load(NodeId n, double amount = 1.0);
  [[nodiscard]] double load(NodeId n) const { return loads_.at(n); }
  /// Machine list sorted ascending by load (ties by node id) — "sorting
  /// available MPI machine list in ascending order based on current
  /// machine CPU workload".  Down nodes are excluded; if every node is
  /// down the full list is returned so callers always have a target.
  [[nodiscard]] std::vector<NodeId> machine_list() const;

  // --- fault injection: FTA node crashes ---------------------------------------
  /// Takes node `n` down (crash) or brings it back.  State only: killing
  /// in-flight work on the node is the listeners' job (PFTool jobs
  /// register one and abort/re-pin their workers).
  void set_node_down(NodeId n, bool down);
  [[nodiscard]] bool node_down(NodeId n) const { return down_.at(n); }
  [[nodiscard]] unsigned nodes_up() const;

  /// Registers a callback fired after every node state change.  Returns a
  /// token for remove_node_listener.  Listener order is registration
  /// order (deterministic).
  std::uint64_t add_node_listener(std::function<void(NodeId, bool down)> fn);
  void remove_node_listener(std::uint64_t token);

 private:
  [[nodiscard]] const std::vector<sim::PoolId>& nsd_pools_for(
      const pfs::FileSystem& fs) const;

  ClusterConfig cfg_;
  std::vector<sim::PoolId> nics_;
  std::vector<sim::PoolId> hbas_;
  std::vector<sim::PoolId> trunks_;
  sim::PoolId san_;
  const pfs::FileSystem* archive_;
  const pfs::FileSystem* scratch_;
  std::vector<sim::PoolId> archive_nsds_;
  std::vector<sim::PoolId> scratch_nsds_;
  std::vector<double> loads_;
  std::vector<bool> down_;
  // std::map: stable iteration order for deterministic notification.
  std::map<std::uint64_t, std::function<void(NodeId, bool)>> node_listeners_;
  std::uint64_t next_listener_token_ = 1;
};

}  // namespace cpa::cluster
