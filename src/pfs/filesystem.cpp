#include "pfs/filesystem.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cpa::pfs {
namespace {

// Pops the first component off `rest`, a path without its leading '/'.
std::string_view pop_component(std::string_view* rest) {
  const std::size_t slash = rest->find('/');
  const std::string_view comp = rest->substr(0, slash);
  rest->remove_prefix(slash == std::string_view::npos ? rest->size() : slash + 1);
  return comp;
}

// Absolute, with no empty, "." or ".." component.  One trailing '/' is
// accepted: "/a/" names /a.
bool valid_path(std::string_view path) {
  if (path.empty() || path[0] != '/') return false;
  for (std::string_view rest = path.substr(1); !rest.empty();) {
    const std::string_view comp = pop_component(&rest);
    if (comp.empty() || comp == "." || comp == "..") return false;
  }
  return true;
}

}  // namespace

std::string join_path(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir == "/") return "/" + name;
  return dir + "/" + name;
}

std::string parent_path(const std::string& path) {
  const std::size_t pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

std::string base_name(const std::string& path) {
  const std::size_t pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

const std::string& InodeView::path() const {
  if (!path_built_) {
    fs_->build_path(*n_, path_);
    path_built_ = true;
  }
  return *path_;
}

FileSystem::FileSystem(sim::Simulation& sim, FsConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  assert(!cfg_.pools.empty() && "a file system needs at least one pool");
  assert(cfg_.pools.size() <= UINT16_MAX && "pool indices are 16-bit");
  for (const auto& pc : cfg_.pools) {
    pool_nsd_base_.push_back(total_nsds_);
    total_nsds_ += std::max(1u, pc.nsd_count);
    pools_.push_back(PoolInfo{pc, 0});
  }
  root_ = new_inode(FileKind::Directory).id;
}

const FileSystem::Inode* FileSystem::find(InodeId id) const {
  if (id >= next_inode_) return nullptr;
  const Inode& n = slot(id);
  return n.id == kInvalidInode ? nullptr : &n;
}

const FileSystem::Inode* FileSystem::find(FileId fid, Errc* err) const {
  const Inode* n = find(fid.inode);
  if (n == nullptr) {
    *err = Errc::NotFound;
  } else if (fid.gen != fid.inode) {
    *err = Errc::Stale;
    n = nullptr;
  }
  return n;
}

FileSystem::Inode* FileSystem::find(FileId fid, Errc* err) {
  return const_cast<Inode*>(std::as_const(*this).find(fid, err));
}

FileSystem::Inode& FileSystem::new_inode(FileKind kind) {
  const InodeId id = next_inode_++;
  assert(id <= UINT32_MAX && "inode links are 32-bit");
  if (id / kPageInodes == pages_.size()) {
    pages_.push_back(std::make_unique<Inode[]>(kPageInodes));
  }
  Inode& n = slot(id);
  n.id = static_cast<Link>(id);
  n.kind = kind;
  n.atime = n.mtime = n.ctime = sim_.now();
  if (kind == FileKind::Directory) {
    if (free_dirs_.empty()) {
      n.dir = static_cast<std::uint32_t>(dirs_.size());
      dirs_.emplace_back();
    } else {
      n.dir = free_dirs_.back();
      free_dirs_.pop_back();
    }
  }
  ++live_inodes_;
  return n;
}

FileSystem::Inode& FileSystem::add_child(
    Inode& parent, ChildTable::const_iterator at,
    std::string_view name, FileKind kind) {
  // new_inode may grow dirs_, so keep the position, not the iterator.
  const auto pos = at - dirs_[parent.dir].cbegin();
  Inode& n = new_inode(kind);
  n.name = name;
  attach(parent, dirs_[parent.dir].cbegin() + pos, n);
  return n;
}

void FileSystem::remove_inode(Inode& n) {
  detach(n);
  if (n.kind == FileKind::Directory) {
    ChildTable().swap(dirs_[n.dir]);
    free_dirs_.push_back(n.dir);
  }
  n = Inode{};
  --live_inodes_;
}

FileSystem::ChildTable::const_iterator FileSystem::seek(
    const Inode& d, std::string_view name) const {
  const ChildTable& table = dirs_[d.dir];
  return std::lower_bound(table.begin(), table.end(), name,
                          [this](Link id, std::string_view key) {
                            return slot(id).name < key;
                          });
}

bool FileSystem::names(const Inode& d, ChildTable::const_iterator at,
                       std::string_view name) const {
  return at != dirs_[d.dir].end() && slot(*at).name == name;
}

const FileSystem::Inode* FileSystem::child(const Inode& d,
                                           std::string_view name) const {
  const auto it = seek(d, name);
  return names(d, it, name) ? &slot(*it) : nullptr;
}

void FileSystem::attach(Inode& parent, ChildTable::const_iterator at,
                        Inode& n) {
  n.parent = parent.id;
  dirs_[parent.dir].insert(at, n.id);
  parent.mtime = sim_.now();
}

void FileSystem::detach(const Inode& n) {
  Inode& parent = slot(n.parent);
  // Names are unique in a directory, so the entry found is n's.
  dirs_[parent.dir].erase(seek(parent, n.name));
  parent.mtime = sim_.now();
}

const FileSystem::Inode* FileSystem::walk(std::string_view rel, Errc* err) const {
  ++walks_;
  const Inode* cur = &slot(root_);
  while (!rel.empty()) {
    const std::string_view comp = pop_component(&rel);
    if (cur->kind != FileKind::Directory) {
      *err = Errc::NotADirectory;
      return nullptr;
    }
    cur = child(*cur, comp);
    if (cur == nullptr) {
      *err = Errc::NotFound;
      return nullptr;
    }
  }
  return cur;
}

const FileSystem::Inode* FileSystem::resolve(std::string_view path) const {
  if (!valid_path(path)) return nullptr;
  Errc err = Errc::Ok;
  return walk(path.substr(1), &err);
}

FileSystem::Inode* FileSystem::resolve(std::string_view path) {
  return const_cast<Inode*>(std::as_const(*this).resolve(path));
}

FileSystem::Inode* FileSystem::resolve_parent(std::string_view path,
                                              std::string_view* leaf, Errc* err) {
  if (!valid_path(path) || path == "/") {
    *err = Errc::InvalidArgument;
    return nullptr;
  }
  std::string_view dir = path.substr(1);
  if (dir.back() == '/') dir.remove_suffix(1);
  const std::size_t slash = dir.rfind('/');
  if (slash == std::string_view::npos) {
    *leaf = dir;
    dir = {};
  } else {
    *leaf = dir.substr(slash + 1);
    dir = dir.substr(0, slash);
  }
  Inode* parent = const_cast<Inode*>(walk(dir, err));
  if (parent == nullptr) return nullptr;
  if (parent->kind != FileKind::Directory) {
    *err = Errc::NotADirectory;
    return nullptr;
  }
  *err = Errc::Ok;
  return parent;
}

InodeAttrs FileSystem::attrs_of(const Inode& n) const {
  InodeAttrs a;
  a.fid = fid_of(n);
  a.kind = n.kind;
  a.size = n.size;
  a.atime = n.atime;
  a.mtime = n.mtime;
  a.ctime = n.ctime;
  a.pool = pools_[n.pool_idx].config.name;
  a.dmapi = n.dmapi;
  a.content_tag = n.content_tag;
  return a;
}

void FileSystem::build_path(const Inode& n, std::string* out) const {
  // One walk up the parent chain sizes the path; a second fills it in
  // from the back.
  std::size_t len = 0;
  for (const Inode* c = &n; c->id != root_; c = &slot(c->parent)) {
    len += 1 + c->name.size();
  }
  if (len == 0) {
    out->assign("/");
    return;
  }
  out->resize(len);
  for (const Inode* c = &n; c->id != root_; c = &slot(c->parent)) {
    const std::string_view name = c->name;
    len -= name.size();
    name.copy(out->data() + len, name.size());
    (*out)[--len] = '/';
  }
}

int FileSystem::pool_index(const std::string& name) const {
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (pools_[i].config.name == name) return static_cast<int>(i);
  }
  return -1;
}

Errc FileSystem::charge_pool(unsigned pool_idx, std::uint64_t bytes) {
  PoolInfo& p = pools_[pool_idx];
  if (p.config.capacity_bytes != 0 && p.used_bytes + bytes > p.config.capacity_bytes) {
    return Errc::NoSpace;
  }
  p.used_bytes += bytes;
  return Errc::Ok;
}

void FileSystem::credit_pool(unsigned pool_idx, std::uint64_t bytes) {
  PoolInfo& p = pools_[pool_idx];
  p.used_bytes = p.used_bytes > bytes ? p.used_bytes - bytes : 0;
}

void FileSystem::destroy_data(Inode& n, const std::string* path) {
  const bool managed = n.dmapi != DmapiState::Resident;
  // Migrated stubs hold no disk bytes; others do.
  if (n.dmapi != DmapiState::Migrated) credit_pool(n.pool_idx, n.size);
  if (managed && dmapi_ != nullptr) {
    std::string built;
    if (path == nullptr) {
      build_path(n, &built);
      path = &built;
    }
    dmapi_->on_managed_data_destroyed(*path, fid_of(n));
  }
  n.dmapi = DmapiState::Resident;
  n.size = 0;
  n.content_tag = 0;
}

Result<InodeId> FileSystem::mkdir(const std::string& path) {
  std::string_view leaf;
  Errc err = Errc::Ok;
  Inode* parent = resolve_parent(path, &leaf, &err);
  if (parent == nullptr) return err;
  const auto at = seek(*parent, leaf);
  if (names(*parent, at, leaf)) return Errc::Exists;
  return add_child(*parent, at, leaf, FileKind::Directory).id;
}

FileSystem::Inode* FileSystem::make_dirs(std::string_view rel, Errc* err) {
  ++walks_;
  Inode* cur = &slot(root_);
  while (!rel.empty()) {
    const std::string_view comp = pop_component(&rel);
    const auto at = seek(*cur, comp);
    if (!names(*cur, at, comp)) {
      cur = &add_child(*cur, at, comp, FileKind::Directory);
      continue;
    }
    cur = &slot(*at);
    if (cur->kind != FileKind::Directory) {
      *err = Errc::NotADirectory;
      return nullptr;
    }
  }
  return cur;
}

Errc FileSystem::mkdirs(const std::string& path) {
  if (!valid_path(path)) return Errc::InvalidArgument;
  Errc err = Errc::Ok;
  make_dirs(std::string_view(path).substr(1), &err);
  return err;
}

Result<FileId> FileSystem::create(const std::string& path,
                                  const std::string& pool_hint) {
  std::string_view leaf;
  Errc err = Errc::Ok;
  Inode* parent = resolve_parent(path, &leaf, &err);
  if (parent == nullptr) return err;
  const auto at = seek(*parent, leaf);
  if (names(*parent, at, leaf)) return Errc::Exists;
  int pidx = 0;
  if (!pool_hint.empty()) {
    pidx = pool_index(pool_hint);
    if (pidx < 0) return Errc::InvalidArgument;
  }
  Inode& n = add_child(*parent, at, leaf, FileKind::Regular);
  n.pool_idx = static_cast<std::uint16_t>(pidx);
  return fid_of(n);
}

Errc FileSystem::make_file(const std::string& path, std::uint64_t size,
                           std::uint64_t content_tag) {
  if (!valid_path(path) || path == "/") {
    // create refuses the path, but only after mkdirs(parent_path(path))
    // has made what the parent part names ("/z//b" makes /z).
    const Errc e = mkdirs(parent_path(path));
    return e == Errc::Ok ? Errc::InvalidArgument : e;
  }
  std::string_view rel = std::string_view(path).substr(1);
  Errc err = Errc::Ok;
  if (rel.back() == '/') {
    // "/a/b/" names b itself: mkdirs makes it a directory, and create
    // then finds it there.
    return make_dirs(rel, &err) == nullptr ? err : Errc::Exists;
  }
  const std::size_t slash = rel.rfind('/');
  const std::string_view leaf =
      slash == std::string_view::npos ? rel : rel.substr(slash + 1);
  rel = slash == std::string_view::npos ? std::string_view{} : rel.substr(0, slash);
  Inode* parent = make_dirs(rel, &err);
  if (parent == nullptr) return err;
  const auto at = seek(*parent, leaf);
  if (names(*parent, at, leaf)) return Errc::Exists;
  // A new resident file in the default pool holds nothing to destroy, and
  // new_inode already set its times to now.
  Inode& n = add_child(*parent, at, leaf, FileKind::Regular);
  if (const Errc e = charge_pool(n.pool_idx, size); e != Errc::Ok) return e;
  n.size = size;
  n.content_tag = content_tag;
  return Errc::Ok;
}

Result<InodeAttrs> FileSystem::stat(const std::string& path) const {
  const Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  return attrs_of(*n);
}

Result<std::string> FileSystem::path_of(FileId fid) const {
  Errc err = Errc::Ok;
  const Inode* n = find(fid, &err);
  if (n == nullptr) return err;
  std::string path;
  build_path(*n, &path);
  return path;
}

Result<std::vector<DirEntry>> FileSystem::readdir(const std::string& path) const {
  const Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Directory) return Errc::NotADirectory;
  const ChildTable& table = dirs_[n->dir];
  std::vector<DirEntry> out;
  out.reserve(table.size());
  for (const Link id : table) {
    const Inode& c = slot(id);
    out.push_back(DirEntry{std::string(c.name), id, c.kind});
  }
  return out;
}

Errc FileSystem::unlink(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind == FileKind::Directory) return Errc::IsADirectory;
  destroy_data(*n, &path);
  remove_inode(*n);
  return Errc::Ok;
}

Errc FileSystem::rmdir(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Directory) return Errc::NotADirectory;
  if (n->id == root_) return Errc::InvalidArgument;
  if (!dirs_[n->dir].empty()) return Errc::NotEmpty;
  remove_inode(*n);
  return Errc::Ok;
}

Errc FileSystem::rename(const std::string& from, const std::string& to) {
  Inode* src = resolve(from);
  if (src == nullptr) return Errc::NotFound;
  if (src->id == root_) return Errc::InvalidArgument;
  std::string_view leaf;
  Errc err = Errc::Ok;
  Inode* new_parent = resolve_parent(to, &leaf, &err);
  if (new_parent == nullptr) return err;
  if (child(*new_parent, leaf) != nullptr) return Errc::Exists;
  // Reject moving a directory into its own subtree.
  for (const Inode* a = new_parent; a->id != root_; a = &slot(a->parent)) {
    if (a->id == src->id) return Errc::InvalidArgument;
  }
  detach(*src);
  src->name = leaf;
  attach(*new_parent, seek(*new_parent, leaf), *src);
  return Errc::Ok;
}

bool FileSystem::exists(const std::string& path) const {
  return resolve(path) != nullptr;
}

Errc FileSystem::write_all(const std::string& path, std::uint64_t size,
                           std::uint64_t content_tag) {
  Inode* n = resolve(path);
  return n == nullptr ? Errc::NotFound : write_data(*n, &path, size, content_tag);
}

Errc FileSystem::write_all(FileId fid, std::uint64_t size,
                           std::uint64_t content_tag) {
  Errc err = Errc::Ok;
  Inode* n = find(fid, &err);
  return n == nullptr ? err : write_data(*n, nullptr, size, content_tag);
}

Errc FileSystem::write_data(Inode& n, const std::string* path,
                            std::uint64_t size, std::uint64_t content_tag) {
  if (n.kind != FileKind::Regular) return Errc::IsADirectory;
  // Overwrite destroys any managed (tape) copy first — this is exactly the
  // truncate-hole the synchronous deleter cannot see (Sec 6.3).
  destroy_data(n, path);
  if (const Errc e = charge_pool(n.pool_idx, size); e != Errc::Ok) return e;
  n.size = size;
  n.content_tag = content_tag;
  n.mtime = n.atime = sim_.now();
  return Errc::Ok;
}

Errc FileSystem::truncate(const std::string& path, std::uint64_t new_size) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  if (new_size != 0 && new_size == n->size) return Errc::Ok;
  const std::uint64_t tag = n->content_tag;
  destroy_data(*n, &path);
  if (const Errc e = charge_pool(n->pool_idx, new_size); e != Errc::Ok) return e;
  n->size = new_size;
  // Truncation changes content; derive a new tag so comparisons fail.
  n->content_tag = new_size == 0 ? 0 : tag ^ (0x517CC1B727220A95ULL + new_size);
  n->mtime = sim_.now();
  return Errc::Ok;
}

Result<std::uint64_t> FileSystem::read_tag(const std::string& path) const {
  const Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  if (n->dmapi == DmapiState::Migrated) {
    if (dmapi_ != nullptr) {
      dmapi_->on_read_offline(path, fid_of(*n));
    }
    return Errc::Offline;
  }
  const_cast<Inode*>(n)->atime = sim_.now();
  return n->content_tag;
}

Errc FileSystem::premigrate(FileId fid) {
  Errc err = Errc::Ok;
  Inode* n = find(fid, &err);
  if (n == nullptr) return err;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  if (n->dmapi != DmapiState::Resident) return Errc::InvalidArgument;
  n->dmapi = DmapiState::Premigrated;
  return Errc::Ok;
}

Errc FileSystem::premigrate(const std::string& path) {
  const Inode* n = resolve(path);
  return n == nullptr ? Errc::NotFound : premigrate(fid_of(*n));
}

Errc FileSystem::punch(FileId fid) {
  Errc err = Errc::Ok;
  Inode* n = find(fid, &err);
  if (n == nullptr) return err;
  if (n->dmapi != DmapiState::Premigrated) return Errc::InvalidArgument;
  credit_pool(n->pool_idx, n->size);  // disk blocks released; stub remains
  n->dmapi = DmapiState::Migrated;
  return Errc::Ok;
}

Errc FileSystem::punch(const std::string& path) {
  const Inode* n = resolve(path);
  return n == nullptr ? Errc::NotFound : punch(fid_of(*n));
}

Errc FileSystem::mark_recalled(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->dmapi != DmapiState::Migrated) return Errc::InvalidArgument;
  if (const Errc e = charge_pool(n->pool_idx, n->size); e != Errc::Ok) return e;
  n->dmapi = DmapiState::Premigrated;
  n->atime = sim_.now();
  return Errc::Ok;
}

Errc FileSystem::make_resident(const std::string& path) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->dmapi != DmapiState::Premigrated) return Errc::InvalidArgument;
  n->dmapi = DmapiState::Resident;
  return Errc::Ok;
}

Result<PoolInfo> FileSystem::pool(const std::string& name) const {
  const int i = pool_index(name);
  if (i < 0) return Errc::NotFound;
  return pools_[static_cast<std::size_t>(i)];
}

std::vector<PoolInfo> FileSystem::pools() const { return pools_; }

Errc FileSystem::move_to_pool(const std::string& path, const std::string& pool) {
  Inode* n = resolve(path);
  if (n == nullptr) return Errc::NotFound;
  if (n->kind != FileKind::Regular) return Errc::IsADirectory;
  const int pidx = pool_index(pool);
  if (pidx < 0) return Errc::InvalidArgument;
  const auto new_idx = static_cast<std::uint16_t>(pidx);
  if (new_idx == n->pool_idx) return Errc::Ok;
  const bool holds_disk = n->dmapi != DmapiState::Migrated;
  if (holds_disk) {
    if (const Errc e = charge_pool(new_idx, n->size); e != Errc::Ok) return e;
    credit_pool(n->pool_idx, n->size);
  }
  n->pool_idx = new_idx;
  return Errc::Ok;
}

std::vector<unsigned> FileSystem::stripe_nsds(FileId fid, std::uint64_t offset,
                                              std::uint64_t len) const {
  Errc err = Errc::Ok;
  const Inode* n = find(fid, &err);
  std::vector<unsigned> out;
  if (n == nullptr || n->kind != FileKind::Regular || len == 0) return out;
  const PoolConfig& pc = pools_[n->pool_idx].config;
  const unsigned nsds = std::max(1u, pc.nsd_count);
  const unsigned base = pool_nsd_base_[n->pool_idx];
  const std::uint64_t bs = cfg_.block_size;
  const std::uint64_t first_block = offset / bs;
  const std::uint64_t last_block = (offset + len - 1) / bs;
  const std::uint64_t nblocks = last_block - first_block + 1;
  // Round-robin striping with a per-inode start offset (GPFS randomizes
  // the first disk per file to even out load).
  const std::uint64_t start = n->id % nsds;
  if (nblocks >= nsds) {
    for (unsigned i = 0; i < nsds; ++i) out.push_back(base + i);
  } else {
    for (std::uint64_t b = first_block; b <= last_block; ++b) {
      const unsigned s = static_cast<unsigned>((start + b) % nsds);
      if (std::find(out.begin(), out.end(), base + s) == out.end()) {
        out.push_back(base + s);
      }
    }
  }
  return out;
}

unsigned FileSystem::pool_nsd_base(const std::string& pool) const {
  const int i = pool_index(pool);
  return i < 0 ? 0 : pool_nsd_base_[static_cast<std::size_t>(i)];
}

void FileSystem::for_each_inode(
    const std::function<void(const InodeView&)>& fn) const {
  std::string path;  // reused by every visit's lazy path()
  for (InodeId id = root_; id < next_inode_; ++id) {
    const Inode& n = slot(id);
    if (n.id != kInvalidInode) fn(InodeView(*this, n, &path));
  }
}

sim::Tick FileSystem::scan_duration(std::uint64_t inodes, unsigned streams) const {
  if (inodes == 0) return 0;
  const double per_stream =
      static_cast<double>(inodes) / std::max(1u, streams);
  return sim::secs(per_stream / cfg_.inode_scan_rate);
}

}  // namespace cpa::pfs
