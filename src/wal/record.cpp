#include "wal/record.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "simcore/inline_string.hpp"
#include "simcore/parse.hpp"

namespace cpa::wal {
namespace {

using Op = pftool::RestartJournal::Op;

void put_u64(std::string& out, std::uint64_t v) {
  char buf[std::numeric_limits<std::uint64_t>::digits10 + 1];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void put_field(std::string& out, std::uint64_t v) {
  out += ' ';
  put_u64(out, v);
}

// Percent-escaping keeps a path or name one blank-free field.
void put_escaped(std::string& out, std::string_view s) {
  out += ' ';
  if (s.empty()) {
    out += "%-";  // the empty string
    return;
  }
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (const char c : s) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\r' || c == '\t') {
      const auto u = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[u >> 4];
      out += kHex[u & 0xF];
    } else {
      out += c;
    }
  }
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

// The inverse of put_escaped.  A '%' that two hex digits do not follow
// stands for itself.
bool unescape(std::string_view field, std::string& out) {
  out.clear();
  if (field.empty()) return false;
  if (field == "%-") return true;
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (field[i] == '%' && i + 2 < field.size()) {
      const int hi = hex_digit(field[i + 1]);
      const int lo = hex_digit(field[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += field[i];
  }
  return true;
}

// unescape into an inline string, through the std::string decoder.
template <std::size_t N>
bool unescape(std::string_view field, sim::InlineString<N>& out) {
  std::string text;
  if (!unescape(field, text)) return false;
  out = text;
  return true;
}

// The blank-separated fields of one record, left to right.  A doubled,
// leading or trailing blank yields an empty field, which nothing parses.
class Fields {
 public:
  explicit Fields(std::string_view s) : rest_(s) {}

  bool next(std::string_view& field) {
    if (done_) return false;
    const std::size_t blank = rest_.find(' ');
    if (blank == std::string_view::npos) {
      field = rest_;
      done_ = true;
    } else {
      field = rest_.substr(0, blank);
      rest_.remove_prefix(blank + 1);
    }
    return true;
  }
  bool u64(std::uint64_t& v) {
    std::string_view field;
    return next(field) && sim::parse_u64(field, v);
  }
  template <typename Text>
  bool text(Text& out) {
    std::string_view field;
    return next(field) && unescape(field, out);
  }
  [[nodiscard]] bool end() const { return done_; }

 private:
  std::string_view rest_;
  bool done_ = false;
};

// Calls `fn` on each comma-separated item of a list field; "-" is empty.
template <typename Fn>
bool for_each_item(std::string_view field, Fn&& fn) {
  if (field == "-") return true;
  for (;;) {
    const std::size_t comma = field.find(',');
    if (!fn(field.substr(0, comma))) return false;
    if (comma == std::string_view::npos) return true;
    field.remove_prefix(comma + 1);
  }
}

bool decode_links(Fields& f, hsm::ObjectLinks& links) {
  links.members.clear();
  links.copies.clear();
  std::string_view members;
  std::string_view copies;
  return f.next(members) &&
         for_each_item(members,
                       [&](std::string_view item) {
                         return sim::parse_u64(item,
                                               links.members.emplace_back());
                       }) &&
         f.next(copies) &&
         for_each_item(copies, [&](std::string_view item) {
           const std::size_t colon = item.find(':');
           if (colon == std::string_view::npos) return false;
           hsm::ArchiveObject::Replica& copy = links.copies.emplace_back();
           return sim::parse_u64(item.substr(0, colon), copy.cartridge_id) &&
                  sim::parse_u64(item.substr(colon + 1), copy.tape_seq);
         });
}

bool decode_object(Fields& f, Record& r) {
  hsm::ArchiveObject& o = r.object;
  o.group = 0;
  return f.u64(r.server) && f.u64(o.object_id) && f.u64(o.gpfs_file_id) &&
         f.u64(o.size_bytes) && f.u64(o.content_tag) &&
         f.u64(o.cartridge_id) && f.u64(o.tape_seq) && f.u64(o.aggregate_id) &&
         f.u64(o.aggregate_offset) && f.text(o.path) && f.text(r.group) &&
         decode_links(f, r.links);
}

bool decode_fixity(Fields& f, integrity::FixityRow& row) {
  std::uint64_t copy_index = 0;
  std::uint64_t status = 0;
  if (!(f.u64(row.row_id) && f.u64(row.object_id) && f.u64(row.cartridge_id) &&
        f.u64(row.tape_seq) && f.u64(row.length) && f.u64(row.checksum) &&
        f.u64(copy_index) && f.u64(status))) {
    return false;
  }
  if (copy_index > std::numeric_limits<unsigned>::max() ||
      status > static_cast<std::uint64_t>(
                   integrity::FixityStatus::Unrepairable)) {
    return false;
  }
  row.copy_index = static_cast<unsigned>(copy_index);
  row.status = static_cast<integrity::FixityStatus>(status);
  return true;
}

bool decode_journal(Fields& f, Record& r) {
  std::string_view op;
  if (!f.next(op) || op.size() != 1) return false;
  switch (static_cast<Op>(op[0])) {
    case Op::Begin:
    case Op::Good:
    case Op::Bad:
    case Op::Forget:
      r.op = static_cast<Op>(op[0]);
      break;
    default:
      return false;
  }
  if (!(f.text(r.dst) && f.u64(r.a) && f.u64(r.b))) return false;
  // begin() allocates a bit per chunk, and the planner never makes more
  // chunks than bytes (one for an empty file): a larger count is garbage,
  // however valid its CRC.
  return r.op != Op::Begin || r.b <= std::max<std::uint64_t>(1, r.a);
}

}  // namespace

void put_object(std::string& out, std::uint64_t server,
                const hsm::ArchiveObject& o, std::string_view group,
                const hsm::ObjectLinks& links) {
  out += 'O';
  put_field(out, server);
  put_field(out, o.object_id);
  put_field(out, o.gpfs_file_id);
  put_field(out, o.size_bytes);
  put_field(out, o.content_tag);
  put_field(out, o.cartridge_id);
  put_field(out, o.tape_seq);
  put_field(out, o.aggregate_id);
  put_field(out, o.aggregate_offset);
  put_escaped(out, o.path);
  put_escaped(out, group);
  out += ' ';
  if (links.members.empty()) out += '-';
  for (std::size_t i = 0; i < links.members.size(); ++i) {
    if (i > 0) out += ',';
    put_u64(out, links.members[i]);
  }
  out += ' ';
  if (links.copies.empty()) out += '-';
  for (std::size_t i = 0; i < links.copies.size(); ++i) {
    if (i > 0) out += ',';
    put_u64(out, links.copies[i].cartridge_id);
    out += ':';
    put_u64(out, links.copies[i].tape_seq);
  }
}

void put_delete(std::string& out, std::uint64_t server, std::uint64_t id) {
  out += 'D';
  put_field(out, server);
  put_field(out, id);
}

void put_next_id(std::string& out, std::uint64_t server, std::uint64_t next) {
  out += 'N';
  put_field(out, server);
  put_field(out, next);
}

void put_fixity(std::string& out, const integrity::FixityRow& r) {
  out += 'F';
  put_field(out, r.row_id);
  put_field(out, r.object_id);
  put_field(out, r.cartridge_id);
  put_field(out, r.tape_seq);
  put_field(out, r.length);
  put_field(out, r.checksum);
  put_field(out, r.copy_index);
  put_field(out, static_cast<std::uint64_t>(r.status));
}

void put_fixity_erase(std::string& out, std::uint64_t object_id) {
  out += 'E';
  put_field(out, object_id);
}

void put_journal(std::string& out, Op op, std::string_view dst,
                 std::uint64_t a, std::uint64_t b) {
  out += "J ";
  out += static_cast<char>(op);
  put_escaped(out, dst);
  put_field(out, a);
  put_field(out, b);
}

void put_journal_line(std::string& out, std::string_view line) {
  out += "K ";
  out += line;
}

bool decode(std::string_view payload, Record& r) {
  if (payload.size() < 2 || payload[1] != ' ') return false;
  r.kind = payload[0];
  if (r.kind == 'K') {
    pftool::RestartJournal::Line line;
    if (!pftool::RestartJournal::parse_line(payload.substr(2), line)) {
      return false;
    }
    r.dst.assign(line.dst);
    r.a = line.size;
    r.b = line.count;
    r.bitmap.assign(line.bitmap);
    return true;
  }
  Fields f(payload.substr(2));
  bool ok = false;
  switch (r.kind) {
    case 'O': ok = decode_object(f, r); break;
    case 'D':
    case 'N': ok = f.u64(r.server) && f.u64(r.id); break;
    case 'F': ok = decode_fixity(f, r.fixity); break;
    case 'E': ok = f.u64(r.id); break;
    case 'J': ok = decode_journal(f, r); break;
    default: break;
  }
  return ok && f.end();
}

}  // namespace cpa::wal
