#include "hsm/server.hpp"

#include <algorithm>
#include <utility>

namespace cpa::hsm {

ArchiveServer::ArchiveServer(sim::Simulation& sim, sim::FlowNetwork& net,
                             std::string name, ServerConfig cfg)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      objects_([](const ArchiveObject& o) { return o.object_id; }) {
  next_object_id_ = cfg_.object_id_base;
  group_id("");
  data_pool_ = net.add_pool(name_ + ".data", cfg_.data_bandwidth_bps);
}

void ArchiveServer::metadata_batch(std::vector<std::function<void()>> ops,
                                   std::function<void()> done) {
  if (ops.empty()) {
    if (done) done();
    return;
  }
  Txn txn;
  txn.cost = cfg_.batch_cost(ops.size());
  txn.ops = std::move(ops);
  txn.done = std::move(done);
  queue_.push_back(std::move(txn));
  if (!busy_) pump();
}

void ArchiveServer::restart(sim::Tick outage) {
  ++epoch_;
  up_at_ = sim_.now() + outage;
  if (!busy_ && !queue_.empty()) pump();
}

void ArchiveServer::pump() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  if (sim_.now() < up_at_) {
    // Restart outage: hold the queue until the server is back.
    busy_ = true;
    sim_.at(up_at_, [this] { pump(); });
    return;
  }
  busy_ = true;
  in_service_ = std::move(queue_.front());
  queue_.pop_front();
  const std::uint64_t gen = power_gen_;
  sim_.after(in_service_.cost, [this, gen] { complete(gen); });
}

void ArchiveServer::complete(std::uint64_t gen) {
  Txn txn = std::move(in_service_);
  // A power failure that landed while this round-trip was in service
  // tears it away whole: no op applies (no partial batch survives into
  // the wiped catalog) and no callback leaks to a dead job.  The pump
  // still runs so `busy_` cannot wedge the queue.
  if (gen == power_gen_) {
    ++txns_;
    batch_ops_ += txn.ops.size();
    for (auto& op : txn.ops) op();
    if (txn.done) txn.done();
  }
  pump();
}

void ArchiveServer::power_fail() {
  // Dropped, not failed: the callbacks belong to jobs the crash already
  // aborted.  busy_ stays untouched — the round-trip in service tears
  // away at its scheduled event and pumps whatever queue exists then.
  queue_.clear();
  ++epoch_;
  ++power_gen_;
  objects_.clear();
  links_.clear();
  next_object_id_ = cfg_.object_id_base;
}

void ArchiveServer::record_object(ArchiveObject obj, ObjectLinks links) {
  if (links.empty()) {
    links_.erase(obj.object_id);
  } else {
    links_.insert_or_assign(obj.object_id, std::move(links));
  }
  record_object(std::move(obj));
}

void ArchiveServer::record_object(ArchiveObject obj) {
  // Mutate first, log after: the WAL hook can snapshot the whole catalog
  // synchronously (auto-checkpoint), and that snapshot must already
  // contain this row or the checkpoint truncation loses it.
  const std::uint64_t id = obj.object_id;
  objects_.upsert(std::move(obj));
  if (hooks_.on_record) hooks_.on_record(*objects_.find(id));
}

const ArchiveObject* ArchiveServer::object(std::uint64_t id) const {
  return objects_.find(id);
}

const ObjectLinks& ArchiveServer::links(std::uint64_t id) const {
  static const ObjectLinks kNone;
  const auto it = links_.find(id);
  return it == links_.end() ? kNone : it->second;
}

std::uint32_t ArchiveServer::group_id(const std::string& name) {
  const auto [it, added] = group_ids_.try_emplace(
      name, static_cast<std::uint32_t>(group_names_.size()));
  if (added) group_names_.push_back(&it->first);
  return it->second;
}

bool ArchiveServer::delete_object(std::uint64_t id) {
  const ArchiveObject* obj = objects_.find(id);
  if (obj == nullptr) return false;
  // A member leaves its aggregate's list here, live and on redo alike, so
  // its delete record alone carries the unlink.
  if (obj->is_member()) {
    if (const auto agg = links_.find(obj->aggregate_id); agg != links_.end()) {
      std::vector<std::uint64_t>& members = agg->second.members;
      members.erase(std::remove(members.begin(), members.end(), id),
                    members.end());
      if (agg->second.empty()) links_.erase(agg);
    }
  }
  links_.erase(id);
  const bool erased = objects_.erase(id);
  if (erased && hooks_.on_delete) hooks_.on_delete(id);
  return erased;
}

void ArchiveServer::for_each_object(
    const std::function<void(const ArchiveObject&)>& fn) const {
  objects_.for_each(fn);
}

}  // namespace cpa::hsm
