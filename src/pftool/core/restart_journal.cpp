#include "pftool/core/restart_journal.hpp"

#include <sstream>

#include "simcore/parse.hpp"

namespace cpa::pftool {

void RestartJournal::begin(const std::string& dst, std::uint64_t file_size,
                           std::uint64_t chunk_count) {
  auto it = entries_.find(dst);
  if (it != entries_.end() && it->second.file_size == file_size &&
      it->second.chunk_count == chunk_count) {
    return;  // resume: keep existing marks
  }
  Entry e;
  e.file_size = file_size;
  e.chunk_count = chunk_count;
  e.good.assign(chunk_count, false);
  entries_[dst] = std::move(e);
  if (hook_) hook_(Op::Begin, dst, file_size, chunk_count);
}

void RestartJournal::mark_good(const std::string& dst, std::uint64_t chunk) {
  auto it = entries_.find(dst);
  if (it != entries_.end() && chunk < it->second.good.size()) {
    it->second.good[chunk] = true;
    if (hook_) hook_(Op::Good, dst, chunk, 0);
  }
}

void RestartJournal::mark_bad(const std::string& dst, std::uint64_t chunk) {
  auto it = entries_.find(dst);
  if (it != entries_.end() && chunk < it->second.good.size()) {
    it->second.good[chunk] = false;
    if (hook_) hook_(Op::Bad, dst, chunk, 0);
  }
}

std::vector<std::uint64_t> RestartJournal::pending(const std::string& dst) const {
  std::vector<std::uint64_t> out;
  auto it = entries_.find(dst);
  if (it == entries_.end()) return out;
  for (std::uint64_t i = 0; i < it->second.good.size(); ++i) {
    if (!it->second.good[i]) out.push_back(i);
  }
  return out;
}

bool RestartJournal::complete(const std::string& dst) const {
  auto it = entries_.find(dst);
  if (it == entries_.end()) return false;
  for (const bool g : it->second.good) {
    if (!g) return false;
  }
  return true;
}

bool RestartJournal::known(const std::string& dst) const {
  return entries_.count(dst) != 0;
}

std::uint64_t RestartJournal::good_count(const std::string& dst) const {
  auto it = entries_.find(dst);
  if (it == entries_.end()) return 0;
  std::uint64_t n = 0;
  for (const bool g : it->second.good) n += g ? 1 : 0;
  return n;
}

void RestartJournal::forget(const std::string& dst) {
  entries_.erase(dst);
  if (hook_) hook_(Op::Forget, dst, 0, 0);
}

std::string RestartJournal::serialize() const {
  std::ostringstream out;
  for (const auto& [dst, e] : entries_) {
    out << dst << '|' << e.file_size << '|' << e.chunk_count << '|';
    for (const bool g : e.good) out << (g ? '1' : '0');
    out << '\n';
  }
  return out.str();
}

std::optional<RestartJournal> RestartJournal::parse(const std::string& text) {
  RestartJournal journal;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Line fields;
    if (!parse_line(line, fields)) return std::nullopt;
    Entry e;
    e.file_size = fields.size;
    e.chunk_count = fields.count;
    e.good.reserve(fields.bitmap.size());
    for (const char c : fields.bitmap) e.good.push_back(c == '1');
    journal.entries_[std::string(fields.dst)] = std::move(e);
  }
  return journal;
}

namespace {

// Cuts the last '|'-separated field off `s`.
bool cut_last(std::string_view& s, std::string_view& field) {
  const std::size_t bar = s.rfind('|');
  if (bar == std::string_view::npos) return false;
  field = s.substr(bar + 1);
  s = s.substr(0, bar);
  return true;
}

}  // namespace

bool RestartJournal::parse_line(std::string_view text, Line& out) {
  std::string_view size;
  std::string_view count;
  if (!cut_last(text, out.bitmap) || !cut_last(text, count) ||
      !cut_last(text, size) || !sim::parse_u64(size, out.size) ||
      !sim::parse_u64(count, out.count)) {
    return false;
  }
  if (out.bitmap.size() != out.count) return false;
  for (const char c : out.bitmap) {
    if (c != '0' && c != '1') return false;
  }
  out.dst = text;
  return true;
}

}  // namespace cpa::pftool
