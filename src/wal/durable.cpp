#include "wal/durable.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "simcore/parse.hpp"

namespace cpa::wal {
namespace {

// Percent-escaping keeps paths/group names single space-free tokens so
// records parse with plain `>>` extraction.
void esc(const std::string& s, std::string& out) {
  if (s.empty()) {
    out += "%-";  // empty-string sentinel (unescapes to "")
    return;
  }
  for (const char c : s) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\r' || c == '\t') {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%%%02X", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

std::string unesc(const std::string& s) {
  if (s == "%-") return {};
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

// Numbers parse whole, so a malformed record is skipped, not thrown.
using sim::parse_u64;

// One object's whole image: its row, its group's name and its links.
std::string encode_object(const hsm::ArchiveServer& srv,
                          const hsm::ArchiveObject& o) {
  const hsm::ObjectLinks& links = srv.links(o.object_id);
  std::string out;
  out += std::to_string(o.object_id);
  out += ' ';
  out += std::to_string(o.gpfs_file_id);
  out += ' ';
  out += std::to_string(o.size_bytes);
  out += ' ';
  out += std::to_string(o.content_tag);
  out += ' ';
  out += std::to_string(o.cartridge_id);
  out += ' ';
  out += std::to_string(o.tape_seq);
  out += ' ';
  out += std::to_string(o.aggregate_id);
  out += ' ';
  out += std::to_string(o.aggregate_offset);
  out += ' ';
  esc(o.path, out);
  out += ' ';
  esc(srv.group_name(o.group), out);
  out += ' ';
  if (links.members.empty()) {
    out += '-';
  } else {
    for (std::size_t i = 0; i < links.members.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(links.members[i]);
    }
  }
  out += ' ';
  if (links.copies.empty()) {
    out += '-';
  } else {
    for (std::size_t i = 0; i < links.copies.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(links.copies[i].cartridge_id);
      out += ':';
      out += std::to_string(links.copies[i].tape_seq);
    }
  }
  return out;
}

// The inverse of encode_object; the group comes back as its name.
bool decode_object(std::istringstream& in, hsm::ArchiveObject& o,
                   std::string& group_name, hsm::ObjectLinks& links) {
  std::string path, group, members, copies;
  if (!(in >> o.object_id >> o.gpfs_file_id >> o.size_bytes >> o.content_tag >>
        o.cartridge_id >> o.tape_seq >> o.aggregate_id >> o.aggregate_offset >>
        path >> group >> members >> copies)) {
    return false;
  }
  o.path = unesc(path);
  group_name = unesc(group);
  links.members.clear();
  if (members != "-") {
    std::istringstream ms(members);
    std::string tok;
    while (std::getline(ms, tok, ',')) {
      if (!parse_u64(tok, links.members.emplace_back())) return false;
    }
  }
  links.copies.clear();
  if (copies != "-") {
    std::istringstream cs(copies);
    std::string tok;
    while (std::getline(cs, tok, ',')) {
      const std::size_t colon = tok.find(':');
      if (colon == std::string::npos) return false;
      const std::string_view t(tok);
      hsm::ArchiveObject::Replica& copy = links.copies.emplace_back();
      if (!parse_u64(t.substr(0, colon), copy.cartridge_id) ||
          !parse_u64(t.substr(colon + 1), copy.tape_seq)) {
        return false;
      }
    }
  }
  return true;
}

std::string encode_fixity(const integrity::FixityRow& r) {
  std::string out;
  out += std::to_string(r.row_id);
  out += ' ';
  out += std::to_string(r.object_id);
  out += ' ';
  out += std::to_string(r.cartridge_id);
  out += ' ';
  out += std::to_string(r.tape_seq);
  out += ' ';
  out += std::to_string(r.length);
  out += ' ';
  out += std::to_string(r.checksum);
  out += ' ';
  out += std::to_string(r.copy_index);
  out += ' ';
  out += std::to_string(static_cast<unsigned>(r.status));
  return out;
}

bool decode_fixity(std::istringstream& in, integrity::FixityRow& r) {
  unsigned status = 0;
  if (!(in >> r.row_id >> r.object_id >> r.cartridge_id >> r.tape_seq >>
        r.length >> r.checksum >> r.copy_index >> status)) {
    return false;
  }
  r.status = static_cast<integrity::FixityStatus>(status);
  return true;
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
    if (replaying_) return;
    writer_.append_record("O " + std::to_string(idx) + " " +
                          encode_object(srv, o));
  };
  h.on_delete = [this, idx](std::uint64_t id) {
    if (replaying_) return;
    writer_.append_record("D " + std::to_string(idx) + " " +
                          std::to_string(id));
  };
  srv.set_mutation_hooks(std::move(h));
}

void Durable::attach_fixity(integrity::FixityDb& db) {
  fixity_ = &db;
  integrity::FixityDb::MutationHooks h;
  h.on_upsert = [this](const integrity::FixityRow& r) {
    if (replaying_) return;
    writer_.append_record("F " + encode_fixity(r));
  };
  h.on_erase_object = [this](std::uint64_t object_id) {
    if (replaying_) return;
    writer_.append_record("E " + std::to_string(object_id));
  };
  db.set_mutation_hooks(std::move(h));
}

void Durable::attach_journal(pftool::RestartJournal& journal) {
  journal_ = &journal;
  journal.set_mutation_hook([this](pftool::RestartJournal::Op op,
                                   const std::string& dst, std::uint64_t a,
                                   std::uint64_t b) {
    if (replaying_) return;
    std::string rec = "J ";
    rec += static_cast<char>(op);
    rec += ' ';
    esc(dst, rec);
    rec += ' ';
    rec += std::to_string(a);
    rec += ' ';
    rec += std::to_string(b);
    writer_.append_record(rec);
  });
}

std::string Durable::serialize_state() const {
  std::string out = "CPACKPT 1\n";
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i] == nullptr) continue;
    const hsm::ArchiveServer& srv = *servers_[i];
    srv.for_each_object([&](const hsm::ArchiveObject& o) {
      out += "O " + std::to_string(i) + " " + encode_object(srv, o) + "\n";
    });
    out += "N " + std::to_string(i) + " " +
           std::to_string(srv.next_object_id()) + "\n";
  }
  if (fixity_ != nullptr) {
    fixity_->for_each([&](const integrity::FixityRow& r) {
      out += "F " + encode_fixity(r) + "\n";
    });
  }
  if (journal_ != nullptr) {
    std::istringstream lines(journal_->serialize());
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty()) out += "K " + line + "\n";
    }
  }
  return out;
}

void Durable::apply(const std::string& record) {
  std::istringstream in(record);
  std::string tag;
  if (!(in >> tag)) return;
  if (tag == "O") {
    std::size_t idx = 0;
    hsm::ArchiveObject o;
    std::string group;
    hsm::ObjectLinks links;
    if (!(in >> idx) || !decode_object(in, o, group, links)) return;
    if (idx >= servers_.size() || servers_[idx] == nullptr) return;
    hsm::ArchiveServer& srv = *servers_[idx];
    if (o.object_id >= srv.next_object_id()) {
      srv.set_next_object_id(o.object_id + 1);
    }
    o.group = srv.group_id(group);
    srv.record_object(std::move(o), std::move(links));
  } else if (tag == "D") {
    std::size_t idx = 0;
    std::uint64_t id = 0;
    if (!(in >> idx >> id)) return;
    if (idx >= servers_.size() || servers_[idx] == nullptr) return;
    servers_[idx]->delete_object(id);
  } else if (tag == "N") {
    std::size_t idx = 0;
    std::uint64_t next = 0;
    if (!(in >> idx >> next)) return;
    if (idx >= servers_.size() || servers_[idx] == nullptr) return;
    if (next > servers_[idx]->next_object_id()) {
      servers_[idx]->set_next_object_id(next);
    }
  } else if (tag == "F") {
    integrity::FixityRow r;
    if (fixity_ == nullptr || !decode_fixity(in, r)) return;
    fixity_->restore(r);
  } else if (tag == "E") {
    std::uint64_t id = 0;
    if (fixity_ == nullptr || !(in >> id)) return;
    fixity_->erase_object(id);
  } else if (tag == "J") {
    char op = 0;
    std::string dst;
    std::uint64_t a = 0, b = 0;
    if (journal_ == nullptr || !(in >> op >> dst >> a >> b)) return;
    const std::string d = unesc(dst);
    switch (static_cast<pftool::RestartJournal::Op>(op)) {
      case pftool::RestartJournal::Op::Begin:
        // begin() allocates a bit per chunk, and the planner never makes
        // more chunks than bytes (one for an empty file): a larger count
        // is garbage, however valid its CRC.
        if (b > std::max<std::uint64_t>(1, a)) return;
        journal_->begin(d, a, b);
        break;
      case pftool::RestartJournal::Op::Good: journal_->mark_good(d, a); break;
      case pftool::RestartJournal::Op::Bad: journal_->mark_bad(d, a); break;
      case pftool::RestartJournal::Op::Forget: journal_->forget(d); break;
    }
  } else if (tag == "K") {
    // Checkpointed journal entry: "dst|size|count|bitmap".
    std::string line;
    std::getline(in, line);
    if (!line.empty() && line.front() == ' ') line.erase(0, 1);
    if (journal_ == nullptr) return;
    const std::size_t p1 = line.find('|');
    if (p1 == std::string::npos) return;
    const std::size_t p2 = line.find('|', p1 + 1);
    if (p2 == std::string::npos) return;
    const std::size_t p3 = line.find('|', p2 + 1);
    if (p3 == std::string::npos) return;
    const std::string_view fields(line);
    std::uint64_t size = 0;
    std::uint64_t count = 0;
    if (!parse_u64(fields.substr(p1 + 1, p2 - p1 - 1), size) ||
        !parse_u64(fields.substr(p2 + 1, p3 - p2 - 1), count)) {
      return;
    }
    const std::string bitmap = line.substr(p3 + 1);
    // The bitmap spells out every chunk, so its length bounds what begin()
    // allocates; RestartJournal::parse rejects the same mismatch.
    if (bitmap.size() != count) return;
    const std::string dst = line.substr(0, p1);
    journal_->begin(dst, size, count);
    for (std::size_t i = 0; i < bitmap.size(); ++i) {
      if (bitmap[i] == '1') journal_->mark_good(dst, i);
    }
  }
}

Durable::RecoveryStats Durable::recover() {
  RecoveryStats stats;
  replaying_ = true;
  const std::string& ckpt = writer_.installed_checkpoint();
  stats.checkpoint_bytes = ckpt.size();
  if (!ckpt.empty()) {
    std::istringstream lines(ckpt);
    std::string line;
    std::getline(lines, line);  // "CPACKPT 1" header
    while (std::getline(lines, line)) {
      if (!line.empty()) apply(line);
    }
  }
  const std::string& log = writer_.log_bytes();
  stats.log_bytes = log.size();
  std::uint64_t valid = 0;
  stats.replayed_records = WalReader::replay(
      log, [this](const std::string& r) { apply(r); }, &valid);
  // Cut the torn half-frame: appends from here on must land where replay
  // can reach them, not behind CRC garbage.
  writer_.trim_torn_tail(valid);
  replaying_ = false;

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
