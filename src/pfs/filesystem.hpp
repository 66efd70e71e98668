// GPFS surrogate: a striped, pool-aware parallel file system model.
//
// What is modeled (because the archive's behaviour depends on it):
//   * a POSIX-like namespace with directories, rename, unlink;
//   * GPFS file ids for the synchronous deleter;
//   * storage pools with capacity accounting and placement (Sec 4.2.1:
//     "a fast fiber channel disk storage pool where all files are
//     initially written and a 'slow' disk pool used to store small files");
//   * DMAPI data residency (resident / premigrated / migrated) with stub
//     files, driving HSM migrate/recall (Sec 4.2.2);
//   * block striping across NSD servers, so the data path can be charged
//     against per-server bandwidth pools;
//   * a metadata scan-rate model calibrated to "GPFS can scan one million
//     inodes in ten minutes" (Sec 4.2.1).
//
// What is NOT stored: file bytes.  Files carry a 64-bit content tag that
// copy operations propagate and compare operations check; this is
// sufficient for every integrity property the paper's tools exercise
// (pfcm byte comparison, restart resume verification, corruption tests)
// without hosting terabytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pfs/common.hpp"
#include "simcore/inline_string.hpp"
#include "simcore/simulation.hpp"

namespace cpa::pfs {

struct PoolConfig {
  std::string name;
  std::uint64_t capacity_bytes = 0;
  unsigned nsd_count = 1;       // disk servers backing the pool
  bool is_external = false;     // GPFS 3.2 "external pool" (tape side)
};

struct PoolInfo {
  PoolConfig config;
  std::uint64_t used_bytes = 0;
  [[nodiscard]] std::uint64_t free_bytes() const {
    return config.capacity_bytes > used_bytes
               ? config.capacity_bytes - used_bytes
               : 0;
  }
};

struct FsConfig {
  std::string name = "gpfs";
  std::uint64_t block_size = 4ULL << 20;  // striping granularity
  std::vector<PoolConfig> pools;          // pools[0] = default placement
  /// Inodes per second one policy-scan stream evaluates (1e6 / 600 s).
  double inode_scan_rate = 1e6 / 600.0;
};

struct InodeAttrs {
  FileId fid;
  FileKind kind = FileKind::Regular;
  std::uint64_t size = 0;
  sim::Tick atime = 0;
  sim::Tick mtime = 0;
  sim::Tick ctime = 0;
  std::string pool;
  DmapiState dmapi = DmapiState::Resident;
  std::uint64_t content_tag = 0;
  friend bool operator==(const InodeAttrs&, const InodeAttrs&) = default;
};

struct DirEntry {
  std::string name;
  InodeId inode = kInvalidInode;
  FileKind kind = FileKind::Regular;
};

/// Receives DMAPI-style data events.  The HSM registers itself here.
class DmapiListener {
 public:
  virtual ~DmapiListener() = default;
  /// A read touched a migrated file's data (auto-recall trigger).
  virtual void on_read_offline(const std::string& path, FileId fid) = 0;
  /// A managed file's data was destroyed (unlink or truncate) — the tape
  /// copy is now orphaned unless the handler deletes it (Sec 4.2.6).
  virtual void on_managed_data_destroyed(const std::string& path, FileId fid) = 0;
};

class InodeView;

class FileSystem {
 public:
  FileSystem(sim::Simulation& sim, FsConfig cfg);

  [[nodiscard]] const FsConfig& config() const { return cfg_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }

  // --- namespace -----------------------------------------------------------
  Result<InodeId> mkdir(const std::string& path);
  /// mkdir -p: creates all missing components.
  Errc mkdirs(const std::string& path);
  /// Creates an empty regular file.  `pool_hint` overrides placement; empty
  /// means "apply placement policy / default pool".
  Result<FileId> create(const std::string& path, const std::string& pool_hint = "");
  /// Creates a regular file with its missing parents and sets its size
  /// and content tag, in one pass down the path.  Exactly what
  /// mkdirs(parent_path(path)) + create(path) + write_all(path, size,
  /// content_tag) would do, for every input: the same Errc, the same
  /// namespace left behind (NoSpace leaves the empty file; a malformed
  /// path still gets the directories its parent part names) and the same
  /// inode ids.
  Errc make_file(const std::string& path, std::uint64_t size,
                 std::uint64_t content_tag);
  [[nodiscard]] Result<InodeAttrs> stat(const std::string& path) const;
  [[nodiscard]] Result<std::string> path_of(FileId fid) const;
  [[nodiscard]] Result<std::vector<DirEntry>> readdir(const std::string& path) const;
  Errc unlink(const std::string& path);
  Errc rmdir(const std::string& path);
  /// Renames a file or directory.  The destination must not exist.
  Errc rename(const std::string& from, const std::string& to);
  [[nodiscard]] bool exists(const std::string& path) const;

  // --- data (modeled) ------------------------------------------------------
  /// Replaces content: sets size and content tag, charging pool capacity.
  /// Overwriting a premigrated/migrated file destroys the managed data
  /// (fires on_managed_data_destroyed) and makes the file resident.
  Errc write_all(const std::string& path, std::uint64_t size, std::uint64_t content_tag);
  /// As write_all(path, ...) on the file `fid` names; builds its path only
  /// for the DMAPI listener of a managed file.  Errc::Stale for a stale
  /// id, Errc::NotFound for a file that is gone.
  Errc write_all(FileId fid, std::uint64_t size, std::uint64_t content_tag);
  Errc truncate(const std::string& path, std::uint64_t new_size);
  /// Reads the content tag; Errc::Offline if the data is on tape.
  /// (The caller — PFTool or the NFS layer — must recall first.)
  [[nodiscard]] Result<std::uint64_t> read_tag(const std::string& path) const;

  // --- DMAPI / HSM ---------------------------------------------------------
  // premigrate and punch take the file id the HSM keeps from its intake
  // stat; the path forms resolve the path and then do the same.  A stale
  // id fails with Errc::Stale, a missing file with Errc::NotFound.
  Errc premigrate(FileId fid);                 // resident    -> premigrated
  Errc premigrate(const std::string& path);
  Errc punch(FileId fid);                      // premigrated -> migrated (frees disk)
  Errc punch(const std::string& path);
  Errc mark_recalled(const std::string& path); // migrated    -> premigrated (re-charges disk)
  Errc make_resident(const std::string& path); // premigrated -> resident
  void set_dmapi_listener(DmapiListener* listener) { dmapi_ = listener; }

  // --- pools ---------------------------------------------------------------
  [[nodiscard]] Result<PoolInfo> pool(const std::string& name) const;
  [[nodiscard]] std::vector<PoolInfo> pools() const;
  /// ILM migration between disk pools; moves the charged bytes.
  Errc move_to_pool(const std::string& path, const std::string& pool);

  // --- striping ------------------------------------------------------------
  /// Global NSD indices (across all pools, in declaration order) serving
  /// the given byte range of a file.  Blocks are striped round-robin over
  /// the file's pool's NSDs starting at a per-inode offset.  Empty when
  /// `fid` names no live regular file.
  [[nodiscard]] std::vector<unsigned> stripe_nsds(FileId fid,
                                                  std::uint64_t offset,
                                                  std::uint64_t len) const;
  /// Global index of the first NSD of a pool.
  [[nodiscard]] unsigned pool_nsd_base(const std::string& pool) const;
  [[nodiscard]] unsigned total_nsds() const { return total_nsds_; }

  // --- scans ---------------------------------------------------------------
  /// Visits every inode (files and directories) in inode order.  The view
  /// reads attributes in place and builds the path only when asked, so a
  /// visit that never calls `path()` does no string work.  Pure traversal:
  /// pair with `scan_duration`, which charges every inode whatever the
  /// callback reads.
  void for_each_inode(const std::function<void(const InodeView&)>& fn) const;
  /// Virtual time for a policy scan of `inodes` inodes split over
  /// `streams` parallel scan streams (GPFS runs one per node).
  [[nodiscard]] sim::Tick scan_duration(std::uint64_t inodes, unsigned streams) const;

  [[nodiscard]] std::uint64_t total_inodes() const { return live_inodes_; }
  /// Root-to-leaf path resolutions so far: every lookup by path, mkdirs
  /// pass and make_file pass counts one.
  [[nodiscard]] std::uint64_t walks() const { return walks_; }
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] const sim::Simulation& sim() const { return sim_; }

 private:
  friend class InodeView;

  // An inode's own links: its id, its parent's, and its directory's child
  // entries.  The public types stay 64-bit; 2^32 inodes would take some
  // 300 GB of table first, so new_inode only asserts the id fits.
  using Link = std::uint32_t;
  using ChildTable = std::vector<Link>;  // one directory's, in dirs_

  struct Inode {
    // What a scan tests comes first, within one cache line.
    // kInvalidInode: a free table slot.  Ids are never reused, so the id
    // is also the file's generation (FileId{id, id}).
    Link id = kInvalidInode;
    Link parent = kInvalidInode;
    FileKind kind = FileKind::Regular;
    DmapiState dmapi = DmapiState::Resident;
    std::uint16_t pool_idx = 0;
    std::uint32_t dir = 0;  // directories only: their child table in dirs_
    std::uint64_t size = 0;
    sim::Tick atime = 0, mtime = 0, ctime = 0;
    std::uint64_t content_tag = 0;
    // Entry name in parent, the only copy of it; up to 15 bytes in place.
    sim::InlineString<16> name;
  };
  static_assert(sizeof(Inode) == 72, "an archived file costs two inodes");

  // The inode table, indexed by id.  Ids are dense and never reused, so
  // inode `id` lives in slot id % kPageInodes of page id / kPageInodes:
  // lookup is O(1), iteration runs in id order, and an Inode never moves.
  // Growth appends a page, so only page pointers are ever copied.
  static constexpr InodeId kPageInodes = 512;
  /// Slot of `id`, live or free; `id` must be below next_inode_.
  [[nodiscard]] const Inode& slot(InodeId id) const {
    return pages_[id / kPageInodes][id % kPageInodes];
  }
  [[nodiscard]] Inode& slot(InodeId id) {
    return pages_[id / kPageInodes][id % kPageInodes];
  }
  /// The live inode `id`, or nullptr.
  [[nodiscard]] const Inode* find(InodeId id) const;
  /// The live inode `fid` names, or nullptr with `err` set: NotFound for
  /// a free slot, Stale for a generation other than the inode id.
  [[nodiscard]] const Inode* find(FileId fid, Errc* err) const;
  [[nodiscard]] Inode* find(FileId fid, Errc* err);
  [[nodiscard]] static FileId fid_of(const Inode& n) { return FileId{n.id, n.id}; }
  /// Fills the next id's slot: id, kind and times, and gives a directory
  /// an empty child table.
  Inode& new_inode(FileKind kind);
  /// A new inode linked into `parent` under `name`, at `at`: the
  /// seek(parent, name) position, found with no child added since.
  Inode& add_child(Inode& parent, ChildTable::const_iterator at,
                   std::string_view name, FileKind kind);
  /// Unlinks `n` from its parent and frees its slot (and child table).
  void remove_inode(Inode& n);
  /// The first entry of directory `d`'s child table whose name is not
  /// below `name`.
  [[nodiscard]] ChildTable::const_iterator seek(
      const Inode& d, std::string_view name) const;
  /// Whether `at`, a seek(d, name) position, holds the child `name`.
  [[nodiscard]] bool names(const Inode& d, ChildTable::const_iterator at,
                           std::string_view name) const;
  /// Directory `d`'s child named `name`, or nullptr.
  [[nodiscard]] const Inode* child(const Inode& d, std::string_view name) const;
  /// Links `n` into directory `parent` at `at`, the seek(parent, n.name)
  /// position; touches the parent's mtime.
  void attach(Inode& parent, ChildTable::const_iterator at, Inode& n);
  /// Removes `n`'s entry from its parent's child table; touches the
  /// parent's mtime.
  void detach(const Inode& n);

  [[nodiscard]] const Inode* resolve(std::string_view path) const;
  [[nodiscard]] Inode* resolve(std::string_view path);
  /// Walks the components of `rel` (a valid path without its leading '/')
  /// down from the root.  On failure sets `err`: NotADirectory when a
  /// component sits under a non-directory, NotFound when it is missing.
  const Inode* walk(std::string_view rel, Errc* err) const;
  /// Resolves the parent directory of `path`; sets `leaf` to the last
  /// component, a view into `path`.  Returns nullptr (with `err`) on
  /// failure.
  Inode* resolve_parent(std::string_view path, std::string_view* leaf, Errc* err);
  [[nodiscard]] InodeAttrs attrs_of(const Inode& n) const;
  /// Writes `n`'s absolute path into `out`, reusing its capacity.
  void build_path(const Inode& n, std::string* out) const;
  [[nodiscard]] int pool_index(const std::string& name) const;
  Errc charge_pool(unsigned pool_idx, std::uint64_t bytes);
  void credit_pool(unsigned pool_idx, std::uint64_t bytes);
  /// Destroys data bytes of a managed file and notifies the listener
  /// with `path`, or with the path built from `n` when `path` is null.
  void destroy_data(Inode& n, const std::string* path);
  /// write_all's body once the file is found.
  Errc write_data(Inode& n, const std::string* path, std::uint64_t size,
                  std::uint64_t content_tag);
  /// mkdirs' pass over the components of `rel` (a valid path without its
  /// leading '/'), from the root; the last directory it reaches, or
  /// nullptr with NotADirectory in `err`.
  Inode* make_dirs(std::string_view rel, Errc* err);

  sim::Simulation& sim_;
  FsConfig cfg_;
  std::vector<PoolInfo> pools_;
  std::vector<unsigned> pool_nsd_base_;
  unsigned total_nsds_ = 0;
  std::vector<std::unique_ptr<Inode[]>> pages_;
  // One child table per directory, indexed by Inode::dir: child ids
  // sorted byte-wise by the child's own name, so a lookup is a binary
  // search that allocates nothing and readdir walks name order.  Regular
  // files have none.  A removed directory's table is reused.
  std::vector<ChildTable> dirs_;
  std::vector<std::uint32_t> free_dirs_;
  std::uint64_t live_inodes_ = 0;
  InodeId root_ = kInvalidInode;
  InodeId next_inode_ = 1;
  mutable std::uint64_t walks_ = 0;
  DmapiListener* dmapi_ = nullptr;
};

/// One inode as `FileSystem::for_each_inode` presents it.  Attributes read
/// the inode in place; `path()` walks the parent chain on its first call
/// and returns the same string for the rest of the visit.  A view, and the
/// path it returns, are valid only inside the callback that received it.
class InodeView {
 public:
  [[nodiscard]] FileId fid() const { return FileSystem::fid_of(*n_); }
  [[nodiscard]] FileKind kind() const { return n_->kind; }
  [[nodiscard]] std::uint64_t size() const { return n_->size; }
  [[nodiscard]] sim::Tick atime() const { return n_->atime; }
  [[nodiscard]] sim::Tick mtime() const { return n_->mtime; }
  [[nodiscard]] const std::string& pool() const {
    return fs_->pools_[n_->pool_idx].config.name;
  }
  [[nodiscard]] DmapiState dmapi() const { return n_->dmapi; }
  [[nodiscard]] const std::string& path() const;
  /// Everything `stat` reports.
  [[nodiscard]] InodeAttrs attrs() const { return fs_->attrs_of(*n_); }

 private:
  friend class FileSystem;
  InodeView(const FileSystem& fs, const FileSystem::Inode& n, std::string* path)
      : fs_(&fs), n_(&n), path_(path) {}

  const FileSystem* fs_;
  const FileSystem::Inode* n_;
  std::string* path_;  // the scan's buffer, shared by all its visits
  mutable bool path_built_ = false;
};

/// Joins a directory path and entry name.
std::string join_path(const std::string& dir, const std::string& name);

/// Returns the parent directory of an absolute path ("/" for "/a").
std::string parent_path(const std::string& path);

/// Returns the last component of an absolute path.
std::string base_name(const std::string& path);

}  // namespace cpa::pfs
