#include "pftool/core/restart_journal.hpp"

#include <sstream>
#include <string_view>

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
    const std::size_t p1 = line.find('|');
    if (p1 == std::string::npos) return std::nullopt;
    const std::size_t p2 = line.find('|', p1 + 1);
    if (p2 == std::string::npos) return std::nullopt;
    const std::size_t p3 = line.find('|', p2 + 1);
    if (p3 == std::string::npos) return std::nullopt;
    Entry e;
    const std::string_view fields = line;
    if (!sim::parse_u64(fields.substr(p1 + 1, p2 - p1 - 1), e.file_size) ||
        !sim::parse_u64(fields.substr(p2 + 1, p3 - p2 - 1), e.chunk_count)) {
      return std::nullopt;
    }
    const std::string bitmap = line.substr(p3 + 1);
    if (bitmap.size() != e.chunk_count) return std::nullopt;
    e.good.reserve(bitmap.size());
    for (const char c : bitmap) {
      if (c != '0' && c != '1') return std::nullopt;
      e.good.push_back(c == '1');
    }
    journal.entries_[line.substr(0, p1)] = std::move(e);
  }
  return journal;
}

}  // namespace cpa::pftool
