// Data-path wiring between the HSM and the cluster topology.
//
// The HSM does not know what the cluster looks like; it asks the fabric
// which bandwidth pools a given transfer must traverse.  The cluster
// module provides the production implementation (Fig. 7's two 10GigE
// trunks, FC4 SAN, NSD servers); tests provide trivial lambdas.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "pfs/common.hpp"
#include "simcore/flow_network.hpp"
#include "tape/drive.hpp"

namespace cpa::hsm {

struct Fabric {
  /// Pools on the disk side of a transfer of `len` bytes at `offset` of
  /// the archive-file-system file `fid` (the NSD servers it stripes over).
  std::function<std::vector<sim::PathLeg>(pfs::FileId fid, std::uint64_t offset,
                                         std::uint64_t len)>
      disk_path;
  /// Pools between node and SAN (HBA + FC fabric) for LAN-free movement.
  std::function<std::vector<sim::PathLeg>(tape::NodeId)> san_path;
  /// Pools between node and the archive server's network for
  /// server-routed movement (node NIC + LAN).
  std::function<std::vector<sim::PathLeg>(tape::NodeId)> lan_path;

  /// A fabric with no bandwidth constraints (unit tests).
  static Fabric unconstrained() {
    Fabric f;
    f.disk_path = [](pfs::FileId, std::uint64_t, std::uint64_t) {
      return std::vector<sim::PathLeg>{};
    };
    f.san_path = [](tape::NodeId) { return std::vector<sim::PathLeg>{}; };
    f.lan_path = [](tape::NodeId) { return std::vector<sim::PathLeg>{}; };
    return f;
  }
};

}  // namespace cpa::hsm
