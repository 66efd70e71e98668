#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace cpa::cluster {

Cluster::Cluster(sim::FlowNetwork& net, ClusterConfig cfg,
                 pfs::FileSystem& archive, pfs::FileSystem& scratch)
    : cfg_(cfg), archive_(&archive), scratch_(&scratch) {
  assert(cfg_.fta_nodes > 0 && cfg_.trunk_count > 0);
  for (unsigned n = 0; n < cfg_.fta_nodes; ++n) {
    nics_.push_back(net.add_pool("fta" + std::to_string(n) + ".nic",
                                 cfg_.node_nic_bps));
    hbas_.push_back(net.add_pool("fta" + std::to_string(n) + ".hba",
                                 cfg_.node_hba_bps));
  }
  for (unsigned t = 0; t < cfg_.trunk_count; ++t) {
    trunks_.push_back(net.add_pool("trunk" + std::to_string(t), cfg_.trunk_bps));
  }
  san_ = net.add_pool("san", cfg_.san_bps);
  for (unsigned i = 0; i < archive.total_nsds(); ++i) {
    archive_nsds_.push_back(net.add_pool(
        archive.name() + ".nsd" + std::to_string(i), cfg_.archive_nsd_bps));
  }
  if (&scratch != &archive) {
    for (unsigned i = 0; i < scratch.total_nsds(); ++i) {
      scratch_nsds_.push_back(net.add_pool(
          scratch.name() + ".nsd" + std::to_string(i), cfg_.scratch_nsd_bps));
    }
  }
  loads_.assign(cfg_.fta_nodes, 0.0);
  down_.assign(cfg_.fta_nodes, false);
}

const std::vector<sim::PoolId>& Cluster::nsd_pools_for(
    const pfs::FileSystem& fs) const {
  if (&fs == archive_) return archive_nsds_;
  assert(&fs == scratch_ && "file system not wired into this cluster");
  return scratch_nsds_.empty() ? archive_nsds_ : scratch_nsds_;
}

std::vector<sim::PathLeg> Cluster::disk_path(const pfs::FileSystem& fs,
                                             pfs::FileId fid,
                                             std::uint64_t offset,
                                             std::uint64_t len) const {
  const std::vector<unsigned> nsds = fs.stripe_nsds(fid, offset, len);
  const auto& pools = nsd_pools_for(fs);
  std::vector<sim::PathLeg> out;
  if (nsds.empty()) return out;
  // A transfer striped over N servers loads each with 1/N of its rate.
  const double weight = 1.0 / static_cast<double>(nsds.size());
  for (const unsigned nsd : nsds) {
    if (nsd < pools.size()) out.emplace_back(pools[nsd], weight);
  }
  return out;
}

std::vector<sim::PathLeg> Cluster::copy_path(
    NodeId n, const pfs::FileSystem& src_fs, pfs::FileId src,
    const pfs::FileSystem& dst_fs, pfs::FileId dst, std::uint64_t offset,
    std::uint64_t len) const {
  std::vector<sim::PathLeg> out = disk_path(src_fs, src, offset, len);
  // Network leg: the scratch file system is reached over the site trunks
  // through the node's NIC; the archive disk is SAN-attached via the HBA.
  out.emplace_back(trunk_for(n));
  out.emplace_back(node_nic(n));
  out.emplace_back(node_hba(n));
  out.emplace_back(san_);
  for (const sim::PathLeg& leg : disk_path(dst_fs, dst, offset, len)) {
    out.push_back(leg);
  }
  return out;
}

hsm::Fabric Cluster::fabric() const {
  hsm::Fabric f;
  f.disk_path = [this](pfs::FileId fid, std::uint64_t off, std::uint64_t len) {
    return disk_path(*archive_, fid, off, len);
  };
  f.san_path = [this](tape::NodeId n) {
    return std::vector<sim::PathLeg>{node_hba(n % cfg_.fta_nodes), san_};
  };
  f.lan_path = [this](tape::NodeId n) {
    return std::vector<sim::PathLeg>{node_nic(n % cfg_.fta_nodes),
                                     trunk_for(n % cfg_.fta_nodes)};
  };
  return f;
}

void Cluster::add_load(NodeId n, double amount) {
  loads_.at(n) += amount;
}

void Cluster::remove_load(NodeId n, double amount) {
  double& l = loads_.at(n);
  l = l > amount ? l - amount : 0.0;
}

std::vector<NodeId> Cluster::machine_list() const {
  std::vector<NodeId> nodes;
  nodes.reserve(loads_.size());
  for (NodeId n = 0; n < loads_.size(); ++n) {
    if (!down_[n]) nodes.push_back(n);
  }
  if (nodes.empty()) {
    // Total outage: hand back every node so callers still have a target
    // to schedule (and fail) against rather than an empty list.
    nodes.resize(loads_.size());
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
  }
  std::stable_sort(nodes.begin(), nodes.end(), [this](NodeId a, NodeId b) {
    return loads_[a] < loads_[b];
  });
  return nodes;
}

void Cluster::set_node_down(NodeId n, bool down) {
  if (down_.at(n) == down) return;
  down_[n] = down;
  if (down) loads_[n] = 0.0;  // the crash takes its workload with it
  // Copy before notifying: listeners may (de)register during the walk.
  std::vector<std::function<void(NodeId, bool)>> fns;
  fns.reserve(node_listeners_.size());
  for (const auto& [token, fn] : node_listeners_) fns.push_back(fn);
  for (const auto& fn : fns) fn(n, down);
}

unsigned Cluster::nodes_up() const {
  unsigned up = 0;
  for (const bool d : down_) {
    if (!d) ++up;
  }
  return up;
}

std::uint64_t Cluster::add_node_listener(
    std::function<void(NodeId, bool down)> fn) {
  const std::uint64_t token = next_listener_token_++;
  node_listeners_.emplace(token, std::move(fn));
  return token;
}

void Cluster::remove_node_listener(std::uint64_t token) {
  node_listeners_.erase(token);
}

}  // namespace cpa::cluster
