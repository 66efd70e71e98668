#include "wal/durable.hpp"

namespace cpa::wal {
namespace {

// Calls `fn` on each non-empty line of `text`, without its newline.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (!line.empty()) fn(line);
  }
}

}  // namespace

Durable::Durable(sim::Simulation& sim, WalConfig cfg, obs::Observer& obs)
    : sim_(sim), obs_(obs), writer_(sim, cfg, obs) {
  writer_.set_checkpoint_source([this] { return serialize_state(); });
}

void Durable::attach_server(unsigned idx, hsm::ArchiveServer& srv) {
  if (servers_.size() <= idx) servers_.resize(idx + 1, nullptr);
  servers_[idx] = &srv;
  hsm::ArchiveServer::MutationHooks h;
  h.on_record = [this, idx, &srv](const hsm::ArchiveObject& o) {
    log([&](std::string& out) {
      put_object(out, idx, o, srv.group_name(o.group), srv.links(o.object_id));
    });
  };
  h.on_delete = [this, idx](std::uint64_t id) {
    log([&](std::string& out) { put_delete(out, idx, id); });
  };
  srv.set_mutation_hooks(std::move(h));
}

void Durable::attach_fixity(integrity::FixityDb& db) {
  fixity_ = &db;
  integrity::FixityDb::MutationHooks h;
  h.on_upsert = [this](const integrity::FixityRow& r) {
    log([&](std::string& out) { put_fixity(out, r); });
  };
  h.on_erase_object = [this](std::uint64_t object_id) {
    log([&](std::string& out) { put_fixity_erase(out, object_id); });
  };
  db.set_mutation_hooks(std::move(h));
}

void Durable::attach_journal(pftool::RestartJournal& journal) {
  journal_ = &journal;
  journal.set_mutation_hook([this](pftool::RestartJournal::Op op,
                                   const std::string& dst, std::uint64_t a,
                                   std::uint64_t b) {
    log([&](std::string& out) { put_journal(out, op, dst, a, b); });
  });
}

std::string Durable::serialize_state() const {
  std::string out = "CPACKPT 1\n";
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i] == nullptr) continue;
    const hsm::ArchiveServer& srv = *servers_[i];
    srv.for_each_object([&](const hsm::ArchiveObject& o) {
      put_object(out, i, o, srv.group_name(o.group), srv.links(o.object_id));
      out += '\n';
    });
    put_next_id(out, i, srv.next_object_id());
    out += '\n';
  }
  if (fixity_ != nullptr) {
    fixity_->for_each([&](const integrity::FixityRow& r) {
      put_fixity(out, r);
      out += '\n';
    });
  }
  if (journal_ != nullptr) {
    const std::string lines = journal_->serialize();
    for_each_line(lines, [&](std::string_view line) {
      put_journal_line(out, line);
      out += '\n';
    });
  }
  return out;
}

bool Durable::apply(std::string_view record) {
  if (!decode(record, rec_)) return false;
  replaying_ = true;
  redo(rec_);
  replaying_ = false;
  return true;
}

void Durable::redo(Record& r) {
  using Op = pftool::RestartJournal::Op;
  switch (r.kind) {
    case 'O': {
      hsm::ArchiveServer* srv = server(r.server);
      if (srv == nullptr) return;
      if (r.object.object_id >= srv->next_object_id()) {
        srv->set_next_object_id(r.object.object_id + 1);
      }
      r.object.group = srv->group_id(r.group);
      srv->record_object(std::move(r.object), std::move(r.links));
      break;
    }
    case 'D':
      // Also unlinks a member from its aggregate, as the live delete did.
      if (hsm::ArchiveServer* srv = server(r.server)) srv->delete_object(r.id);
      break;
    case 'N':
      if (hsm::ArchiveServer* srv = server(r.server);
          srv != nullptr && r.id > srv->next_object_id()) {
        srv->set_next_object_id(r.id);
      }
      break;
    case 'F':
      if (fixity_ != nullptr) fixity_->restore(r.fixity);
      break;
    case 'E':
      if (fixity_ != nullptr) fixity_->erase_object(r.id);
      break;
    case 'J':
      if (journal_ == nullptr) return;
      switch (r.op) {
        case Op::Begin: journal_->begin(r.dst, r.a, r.b); break;
        case Op::Good: journal_->mark_good(r.dst, r.a); break;
        case Op::Bad: journal_->mark_bad(r.dst, r.a); break;
        case Op::Forget: journal_->forget(r.dst); break;
      }
      break;
    case 'K':
      // A checkpointed journal entry.  Its bitmap spells out every chunk,
      // so its length bounds what begin() allocates.
      if (journal_ == nullptr) return;
      journal_->begin(r.dst, r.a, r.b);
      for (std::size_t i = 0; i < r.bitmap.size(); ++i) {
        if (r.bitmap[i] == '1') journal_->mark_good(r.dst, i);
      }
      break;
    default:
      break;
  }
}

Durable::RecoveryStats Durable::recover() {
  RecoveryStats stats;
  const std::string& ckpt = writer_.installed_checkpoint();
  stats.checkpoint_bytes = ckpt.size();
  bool header = true;  // "CPACKPT 1"
  for_each_line(ckpt, [&](std::string_view line) {
    if (!header) apply(line);
    header = false;
  });
  const std::string& log = writer_.log_bytes();
  stats.log_bytes = log.size();
  std::uint64_t valid = 0;
  stats.replayed_records = WalReader::replay(
      log, [this](std::string_view r) { apply(r); }, &valid);
  // Cut the torn half-frame: appends from here on must land where replay
  // can reach them, not behind CRC garbage.
  writer_.trim_torn_tail(valid);

  const WalConfig& cfg = writer_.config();
  stats.duration =
      cfg.flush_latency +
      sim::secs(static_cast<double>(stats.checkpoint_bytes + stats.log_bytes) /
                cfg.log_bytes_per_sec) +
      cfg.replay_record_cost * stats.replayed_records;

  obs::MetricsRegistry& m = obs_.metrics();
  m.counter("wal.replay_records").add(stats.replayed_records);
  m.counter("recovery.count").inc();
  m.gauge("recovery.duration").set(sim::to_seconds(stats.duration));
  return stats;
}

}  // namespace cpa::wal
