#include "archive/search.hpp"

#include "pfs/glob.hpp"

namespace cpa::archive {

MetadataCatalog::MetadataCatalog()
    : table_([](const CatalogEntry& e) { return e.fid; }) {
  by_size_ = table_.add_index_u64([](const CatalogEntry& e) { return e.size; });
  by_mtime_ = table_.add_index_u64(
      [](const CatalogEntry& e) { return static_cast<std::uint64_t>(e.mtime); });
  by_pool_ = table_.add_index_str(&CatalogEntry::pool);
  by_state_ = table_.add_index_u64([](const CatalogEntry& e) {
    return static_cast<std::uint64_t>(e.dmapi);
  });
}

sim::Tick MetadataCatalog::rebuild(const pfs::FileSystem& fs, unsigned streams) {
  table_ = metadb::Table<CatalogEntry>(
      [](const CatalogEntry& e) { return e.fid; });
  by_size_ = table_.add_index_u64([](const CatalogEntry& e) { return e.size; });
  by_mtime_ = table_.add_index_u64(
      [](const CatalogEntry& e) { return static_cast<std::uint64_t>(e.mtime); });
  by_pool_ = table_.add_index_str(&CatalogEntry::pool);
  by_state_ = table_.add_index_u64([](const CatalogEntry& e) {
    return static_cast<std::uint64_t>(e.dmapi);
  });

  fs.for_each_inode([&](const pfs::InodeView& v) {
    if (v.kind() != pfs::FileKind::Regular) return;
    CatalogEntry e;
    e.fid = v.fid().packed();
    e.path = v.path();
    e.size = v.size();
    e.mtime = v.mtime();
    e.pool = v.pool();
    e.dmapi = v.dmapi();
    table_.insert(std::move(e));
  });
  return fs.scan_duration(fs.total_inodes(), streams);
}

void MetadataCatalog::upsert(const CatalogEntry& entry) { table_.upsert(entry); }

bool MetadataCatalog::erase(std::uint64_t fid) { return table_.erase(fid); }

bool MetadataCatalog::matches(const CatalogEntry& e, const SearchQuery& q) {
  if (q.min_size && e.size < *q.min_size) return false;
  if (q.max_size && e.size > *q.max_size) return false;
  if (q.min_mtime && e.mtime < *q.min_mtime) return false;
  if (q.max_mtime && e.mtime > *q.max_mtime) return false;
  if (q.pool && e.pool != *q.pool) return false;
  if (q.dmapi && e.dmapi != *q.dmapi) return false;
  if (q.path_glob && !pfs::glob_match(*q.path_glob, e.path)) return false;
  return true;
}

std::vector<CatalogEntry> MetadataCatalog::search(const SearchQuery& q) const {
  // Probe the most selective indexable dimension, then post-filter.
  std::vector<const CatalogEntry*> candidates;
  bool used_index = false;

  if (q.min_size || q.max_size) {
    candidates = table_.range_u64(by_size_, q.min_size.value_or(0),
                                  q.max_size.value_or(~0ULL));
    used_index = true;
  } else if (q.min_mtime || q.max_mtime) {
    candidates = table_.range_u64(
        by_mtime_, static_cast<std::uint64_t>(q.min_mtime.value_or(0)),
        static_cast<std::uint64_t>(q.max_mtime.value_or(~0ULL)));
    used_index = true;
  } else if (q.pool) {
    candidates = table_.lookup_str(by_pool_, *q.pool);
    used_index = true;
  } else if (q.dmapi) {
    candidates = table_.lookup_u64(by_state_,
                                   static_cast<std::uint64_t>(*q.dmapi));
    used_index = true;
  }

  std::vector<CatalogEntry> out;
  if (used_index) {
    last_examined_ = candidates.size();
    for (const CatalogEntry* e : candidates) {
      if (matches(*e, q)) out.push_back(*e);
    }
    // range_u64 returns attribute order; normalize to primary-key order.
    std::sort(out.begin(), out.end(),
              [](const CatalogEntry& a, const CatalogEntry& b) {
                return a.fid < b.fid;
              });
  } else {
    last_examined_ = table_.size();
    table_.for_each([&](const CatalogEntry& e) {
      if (matches(e, q)) out.push_back(e);
    });
  }
  return out;
}

}  // namespace cpa::archive
