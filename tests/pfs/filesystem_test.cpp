#include "pfs/filesystem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "simcore/rng.hpp"
#include "simcore/units.hpp"

namespace cpa::pfs {
namespace {

FsConfig small_config() {
  FsConfig cfg;
  cfg.name = "testfs";
  cfg.block_size = 1 * kMB;
  cfg.pools = {
      PoolConfig{"fast", 100 * kMB, 4, false},
      PoolConfig{"slow", 50 * kMB, 2, false},
      PoolConfig{"tape", 0, 1, true},
  };
  return cfg;
}

// What FileSystem::make_file must equal: the three calls it replaces.
Errc make_file_by_parts(FileSystem& fs, const std::string& path,
                        std::uint64_t size, std::uint64_t tag) {
  if (const Errc e = fs.mkdirs(parent_path(path)); e != Errc::Ok) return e;
  if (const auto created = fs.create(path); !created.ok()) return created.error();
  return fs.write_all(path, size, tag);
}

// Everything a namespace holds: every inode's attributes and path in inode
// order, each directory's readdir order, and every pool's usage.
struct Snapshot {
  std::vector<std::pair<InodeAttrs, std::string>> inodes;
  std::vector<std::vector<DirEntry>> listings;
  std::vector<std::uint64_t> used;
};

Snapshot snapshot(const FileSystem& fs) {
  Snapshot s;
  fs.for_each_inode([&](const InodeView& v) {
    s.inodes.emplace_back(v.attrs(), v.path());
    if (v.kind() == FileKind::Directory) s.listings.push_back(fs.readdir(v.path()).value());
  });
  for (const PoolInfo& p : fs.pools()) s.used.push_back(p.used_bytes);
  return s;
}

void expect_same_namespace(const FileSystem& got, const FileSystem& want) {
  const Snapshot g = snapshot(got), w = snapshot(want);
  ASSERT_EQ(g.inodes.size(), w.inodes.size());
  for (std::size_t i = 0; i < g.inodes.size(); ++i) {
    EXPECT_EQ(g.inodes[i].second, w.inodes[i].second);
    EXPECT_TRUE(g.inodes[i].first == w.inodes[i].first) << w.inodes[i].second;
  }
  ASSERT_EQ(g.listings.size(), w.listings.size());
  for (std::size_t d = 0; d < g.listings.size(); ++d) {
    ASSERT_EQ(g.listings[d].size(), w.listings[d].size());
    for (std::size_t i = 0; i < g.listings[d].size(); ++i) {
      EXPECT_EQ(g.listings[d][i].name, w.listings[d][i].name);
      EXPECT_EQ(g.listings[d][i].inode, w.listings[d][i].inode);
    }
  }
  EXPECT_EQ(g.used, w.used);
}

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystemTest() : fs_(sim_, small_config()) {}
  sim::Simulation sim_;
  FileSystem fs_;
};

TEST_F(FileSystemTest, PathHelpers) {
  EXPECT_EQ(join_path("/", "a"), "/a");
  EXPECT_EQ(join_path("/a", "b"), "/a/b");
  EXPECT_EQ(parent_path("/a/b"), "/a");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(base_name("/a/b"), "b");
}

// Every namespace entry point's answer to malformed and edge-case paths.
// Each cell runs on a fresh namespace: /a and /a/b are directories, /f and
// /g regular files.  "rename from" moves the path to /new; "rename to"
// moves /g to the path.  make_file's column is what mkdirs(parent_path) +
// create + write_all return, and it must also leave their namespace: a
// malformed path keeps the directories its parent part made ("/z//b"
// makes /z), and a trailing slash makes the last component a directory.
TEST(PathParsing, ErrcPerEntryPoint) {
  using Op = Errc (*)(FileSystem&, const std::string&);
  struct Column {
    const char* name;
    Op op;
  };
  const Column columns[] = {
      {"mkdir", [](FileSystem& fs, const std::string& p) { return fs.mkdir(p).error(); }},
      {"mkdirs", [](FileSystem& fs, const std::string& p) { return fs.mkdirs(p); }},
      {"create", [](FileSystem& fs, const std::string& p) { return fs.create(p).error(); }},
      {"stat", [](FileSystem& fs, const std::string& p) { return fs.stat(p).error(); }},
      {"unlink", [](FileSystem& fs, const std::string& p) { return fs.unlink(p); }},
      {"rename from", [](FileSystem& fs, const std::string& p) { return fs.rename(p, "/new"); }},
      {"rename to", [](FileSystem& fs, const std::string& p) { return fs.rename("/g", p); }},
      {"make_file", [](FileSystem& fs, const std::string& p) { return fs.make_file(p, kMB, 7); }},
  };
  constexpr Errc Ok = Errc::Ok, Inv = Errc::InvalidArgument,
                 NoEnt = Errc::NotFound, Exist = Errc::Exists,
                 NotDir = Errc::NotADirectory, IsDir = Errc::IsADirectory;
  struct Row {
    const char* path;
    Errc want[8];  // in `columns` order
  };
  const Row rows[] = {
      //               mkdir   mkdirs  create  stat   unlink rename from/to make_file
      {"",            {Inv,    Inv,    Inv,    NoEnt, NoEnt, NoEnt, Inv,    Inv}},
      {"relative",    {Inv,    Inv,    Inv,    NoEnt, NoEnt, NoEnt, Inv,    Inv}},
      {"/",           {Inv,    Ok,     Inv,    Ok,    IsDir, Inv,   Inv,    Inv}},
      {"//",          {Inv,    Inv,    Inv,    NoEnt, NoEnt, NoEnt, Inv,    Inv}},
      {"/a//b",       {Inv,    Inv,    Inv,    NoEnt, NoEnt, NoEnt, Inv,    Inv}},
      {"/z//b",       {Inv,    Inv,    Inv,    NoEnt, NoEnt, NoEnt, Inv,    Inv}},
      {"/a/./b",      {Inv,    Inv,    Inv,    NoEnt, NoEnt, NoEnt, Inv,    Inv}},
      {"/a/../b",     {Inv,    Inv,    Inv,    NoEnt, NoEnt, NoEnt, Inv,    Inv}},
      {"/a/..",       {Inv,    Inv,    Inv,    NoEnt, NoEnt, NoEnt, Inv,    Inv}},
      // One trailing slash is accepted and names the last component.
      {"/a/",         {Exist,  Ok,     Exist,  Ok,    IsDir, Ok,    Exist,  Exist}},
      {"/a/b/",       {Exist,  Ok,     Exist,  Ok,    IsDir, Ok,    Exist,  Exist}},
      {"/n/",         {Ok,     Ok,     Ok,     NoEnt, NoEnt, NoEnt, Ok,     Exist}},
      {"/z/y/",       {NoEnt,  Ok,     NoEnt,  NoEnt, NoEnt, NoEnt, NoEnt,  Exist}},
      {"/a/b/c",      {Ok,     Ok,     Ok,     NoEnt, NoEnt, NoEnt, Ok,     Ok}},
      {"/m/x",        {NoEnt,  Ok,     NoEnt,  NoEnt, NoEnt, NoEnt, NoEnt,  Ok}},
      {"/a",          {Exist,  Ok,     Exist,  Ok,    IsDir, Ok,    Exist,  Exist}},
      {"/f",          {Exist,  NotDir, Exist,  Ok,    Ok,    Ok,    Exist,  Exist}},
      // Through a regular file.
      {"/f/x",        {NotDir, NotDir, NotDir, NoEnt, NoEnt, NoEnt, NotDir, NotDir}},
      {"/f/x/y",      {NotDir, NotDir, NotDir, NoEnt, NoEnt, NoEnt, NotDir, NotDir}},
  };
  const auto fresh_namespace = [](FileSystem& fs) {
    ASSERT_EQ(fs.mkdirs("/a/b"), Errc::Ok);
    ASSERT_TRUE(fs.create("/f").ok());
    ASSERT_TRUE(fs.create("/g").ok());
  };
  for (const Row& row : rows) {
    const Errc* want = row.want;
    for (const Column& col : columns) {
      SCOPED_TRACE(std::string(col.name) + "(\"" + row.path + "\")");
      sim::Simulation sim;
      FileSystem fs(sim, small_config());
      fresh_namespace(fs);
      EXPECT_STREQ(to_string(col.op(fs, row.path)), to_string(*want));
      if (std::string(col.name) == "make_file") {
        FileSystem by_parts(sim, small_config());
        fresh_namespace(by_parts);
        EXPECT_STREQ(to_string(make_file_by_parts(by_parts, row.path, kMB, 7)),
                     to_string(*want));
        expect_same_namespace(fs, by_parts);
      }
      ++want;
    }
  }
}

TEST_F(FileSystemTest, MkdirCreateStat) {
  ASSERT_TRUE(fs_.mkdir("/data").ok());
  auto fid = fs_.create("/data/f1");
  ASSERT_TRUE(fid.ok());
  EXPECT_TRUE(fid.value().valid());

  auto st = fs_.stat("/data/f1");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().kind, FileKind::Regular);
  EXPECT_EQ(st.value().size, 0u);
  EXPECT_EQ(st.value().pool, "fast");
  EXPECT_EQ(st.value().dmapi, DmapiState::Resident);

  EXPECT_EQ(fs_.stat("/data/missing").error(), Errc::NotFound);
  EXPECT_EQ(fs_.mkdir("/data").error(), Errc::Exists);
  EXPECT_EQ(fs_.create("/data/f1").error(), Errc::Exists);
  EXPECT_EQ(fs_.create("/nodir/f").error(), Errc::NotFound);
}

TEST_F(FileSystemTest, MkdirsCreatesChain) {
  EXPECT_EQ(fs_.mkdirs("/a/b/c/d"), Errc::Ok);
  EXPECT_TRUE(fs_.exists("/a/b/c/d"));
  EXPECT_EQ(fs_.mkdirs("/a/b/c/d"), Errc::Ok);  // idempotent
  ASSERT_TRUE(fs_.create("/a/file").ok());
  EXPECT_EQ(fs_.mkdirs("/a/file/x"), Errc::NotADirectory);
}

TEST_F(FileSystemTest, CreateWithPoolHint) {
  auto fid = fs_.create("/small", "slow");
  ASSERT_TRUE(fid.ok());
  EXPECT_EQ(fs_.stat("/small").value().pool, "slow");
  EXPECT_EQ(fs_.create("/bad", "nope").error(), Errc::InvalidArgument);
}

TEST_F(FileSystemTest, WriteChargesPoolAndSetsTag) {
  ASSERT_TRUE(fs_.create("/f").ok());
  EXPECT_EQ(fs_.write_all("/f", 10 * kMB, 0xABCD), Errc::Ok);
  EXPECT_EQ(fs_.stat("/f").value().size, 10 * kMB);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 10 * kMB);
  EXPECT_EQ(fs_.read_tag("/f").value(), 0xABCDu);

  // Overwrite re-charges, not accumulates.
  EXPECT_EQ(fs_.write_all("/f", 4 * kMB, 0x1111), Errc::Ok);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 4 * kMB);
}

TEST_F(FileSystemTest, WriteBeyondPoolCapacityFails) {
  ASSERT_TRUE(fs_.create("/big").ok());
  EXPECT_EQ(fs_.write_all("/big", 200 * kMB, 1), Errc::NoSpace);
  EXPECT_EQ(fs_.stat("/big").value().size, 0u);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 0u);
}

TEST_F(FileSystemTest, UnlinkFreesSpace) {
  ASSERT_TRUE(fs_.create("/f").ok());
  ASSERT_EQ(fs_.write_all("/f", 10 * kMB, 1), Errc::Ok);
  EXPECT_EQ(fs_.unlink("/f"), Errc::Ok);
  EXPECT_FALSE(fs_.exists("/f"));
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 0u);
  EXPECT_EQ(fs_.unlink("/f"), Errc::NotFound);
}

TEST_F(FileSystemTest, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(fs_.mkdir("/d").ok());
  ASSERT_TRUE(fs_.create("/d/f").ok());
  EXPECT_EQ(fs_.rmdir("/d"), Errc::NotEmpty);
  EXPECT_EQ(fs_.unlink("/d"), Errc::IsADirectory);
  ASSERT_EQ(fs_.unlink("/d/f"), Errc::Ok);
  EXPECT_EQ(fs_.rmdir("/d"), Errc::Ok);
  EXPECT_EQ(fs_.rmdir("/"), Errc::InvalidArgument);
}

TEST_F(FileSystemTest, ReaddirListsSortedEntries) {
  ASSERT_TRUE(fs_.mkdir("/d").ok());
  ASSERT_TRUE(fs_.create("/d/zz").ok());
  ASSERT_TRUE(fs_.create("/d/aa").ok());
  ASSERT_TRUE(fs_.mkdir("/d/mm").ok());
  auto entries = fs_.readdir("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 3u);
  EXPECT_EQ(entries.value()[0].name, "aa");
  EXPECT_EQ(entries.value()[1].name, "mm");
  EXPECT_EQ(entries.value()[1].kind, FileKind::Directory);
  EXPECT_EQ(entries.value()[2].name, "zz");
  EXPECT_EQ(fs_.readdir("/d/aa").error(), Errc::NotADirectory);
}

// Directory child tables against a std::map<std::string, InodeId>
// reference.  Seeded random mkdir/create/unlink/rename/rmdir/make_file
// sequences use names whose byte order differs from numeric or signed-char
// order ("f10" before "f2", "a" before "a0" before "ab", bytes >= 0x80
// after ASCII); parents are live directories, regular files
// (NotADirectory) and missing directories (NotFound).  Every op's Errc,
// every name's lookup in every directory and every readdir order must
// match the model.  A twin file system gets every op too, with make_file
// done by its parts; make_file's paths go deeper than one missing
// directory, end in '/' or hold an empty or dot component, its sizes
// overflow the 100 MB default pool now and then (NoSpace), and after every
// op both file systems must agree on the op's Errc and on the paths it
// named: attributes, directory listings, inode count and pool usage.
TEST(DirectoryTables, MatchMapReferenceUnderRandomOps) {
  // The last three are 15, 16 and 17 bytes long, around the 15 an inode
  // keeps in place, and share a 15-byte prefix.
  const std::vector<std::string> names = {
      "a", "a0", "ab", "b", "f1", "f10", "f2", "Z", "\x80", "a\xff",
      "\xc3\xa9t\xc3\xa9", "f0123456789abcd", "f0123456789abcde",
      "f0123456789abcd\xff\x80"};
  struct Entry {
    FileKind kind;
    InodeId id;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulation sim;
    FileSystem fs(sim, small_config());
    FileSystem twin(sim, small_config());
    sim::Rng rng(seed);
    InodeId last_id = fs.stat("/").value().fid.inode;  // the newest inode
    // Every live path and what it names.
    std::map<std::string, Entry> model{
        {"/", {FileKind::Directory, fs.stat("/").value().fid.inode}}};
    const auto under = [](const std::string& path, const std::string& dir) {
      return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
             (dir == "/" || path[dir.size()] == '/');
    };
    // The Errc of resolving the parent of `path`, as the namespace walks it.
    const auto parent_errc = [&](const std::string& path) {
      const std::string dir = parent_path(path);
      for (std::size_t end = 1; end != std::string::npos && dir != "/";) {
        end = dir.find('/', end + 1);
        const auto it = model.find(dir.substr(0, end));
        if (it == model.end()) return Errc::NotFound;
        if (it->second.kind != FileKind::Directory) return Errc::NotADirectory;
      }
      return Errc::Ok;
    };
    const auto live = [&] {
      auto it = model.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_u64(0, model.size() - 1)));
      return it->first;
    };
    // A name under a live entry (directory or file), or under a missing
    // directory one time in eight.
    const auto fresh = [&] {
      std::string parent = live();
      if (rng.chance(0.125)) parent = join_path(parent, "missing");
      return join_path(parent, names[rng.uniform_u64(0, names.size() - 1)]);
    };
    const auto check_namespace = [&] {
      ASSERT_EQ(fs.total_inodes(), model.size());
      for (const auto& [path, entry] : model) {
        const auto st = fs.stat(path);
        ASSERT_TRUE(st.ok()) << path;
        // Ids are never reused, so a file's id is its own generation.
        EXPECT_EQ(st.value().fid, (FileId{entry.id, entry.id})) << path;
        EXPECT_EQ(st.value().kind, entry.kind) << path;
        if (entry.kind != FileKind::Directory) continue;
        std::map<std::string, InodeId> children;  // the reference table
        for (const auto& [p, e] : model) {
          if (under(p, path) && parent_path(p) == path) children.emplace(base_name(p), e.id);
        }
        const auto listed = fs.readdir(path);
        ASSERT_TRUE(listed.ok()) << path;
        ASSERT_EQ(listed.value().size(), children.size()) << path;
        auto want = children.begin();
        for (const DirEntry& got : listed.value()) {
          EXPECT_EQ(got.name, want->first) << path;
          EXPECT_EQ(got.inode, want->second) << path;
          ++want;
        }
        for (const std::string& name : names) {
          EXPECT_EQ(fs.exists(join_path(path, name)), children.count(name) != 0)
              << join_path(path, name);
        }
      }
    };
    // The twin must answer `op` on `paths` as `fs` did: the same Errc, and
    // the same attributes and listing for every directory and file the
    // paths pass through, root included.
    const auto check_twin = [&](Errc got, Errc twin_got,
                                std::initializer_list<std::string> paths) {
      ASSERT_EQ(got, twin_got);
      ASSERT_EQ(fs.total_inodes(), twin.total_inodes());
      for (std::size_t i = 0; i < fs.pools().size(); ++i) {
        ASSERT_EQ(fs.pools()[i].used_bytes, twin.pools()[i].used_bytes);
      }
      for (const std::string& p : paths) {
        std::string prefix = "/";
        for (std::size_t at = 0; at != std::string::npos;) {
          const auto a = fs.stat(prefix), b = twin.stat(prefix);
          ASSERT_EQ(a.error(), b.error()) << prefix;
          if (a.ok()) {
            ASSERT_TRUE(a.value() == b.value()) << prefix;
            const auto la = fs.readdir(prefix), lb = twin.readdir(prefix);
            ASSERT_EQ(la.error(), lb.error()) << prefix;
            if (la.ok()) {
              ASSERT_EQ(la.value().size(), lb.value().size()) << prefix;
              for (std::size_t k = 0; k < la.value().size(); ++k) {
                ASSERT_EQ(la.value()[k].name, lb.value()[k].name) << prefix;
                ASSERT_EQ(la.value()[k].inode, lb.value()[k].inode) << prefix;
              }
            }
          }
          // The next non-empty component of p.
          const std::size_t start = p.find_first_not_of('/', at);
          if (start == std::string::npos) break;
          at = p.find('/', start);
          prefix = join_path(prefix, p.substr(start, at - start));
        }
      }
    };
    // A make_file path: a fresh one, one level deeper, or malformed.
    const auto file_path = [&] {
      std::string p = fresh();
      switch (rng.uniform_u64(0, 7)) {
        case 0: p = join_path(p, names[rng.uniform_u64(0, names.size() - 1)]); break;
        case 1: p += '/'; break;
        case 2: p.insert(p.rfind('/'), "/"); break;
        case 3: p = join_path(p, rng.chance(0.5) ? "." : ".."); break;
        default: break;
      }
      return p;
    };
    for (int op = 0; op < 1500; ++op) {
      const std::uint64_t kind = rng.uniform_u64(0, 11);
      if (kind < 3) {  // mkdir
        const std::string p = fresh();
        Errc want = parent_errc(p);
        if (want == Errc::Ok && model.count(p) != 0) want = Errc::Exists;
        const auto got = fs.mkdir(p);
        ASSERT_EQ(got.error(), want) << "mkdir " << p;
        check_twin(got.error(), twin.mkdir(p).error(), {p});
        if (got.ok()) model[p] = {FileKind::Directory, last_id = got.value()};
      } else if (kind < 6) {  // create
        const std::string p = fresh();
        Errc want = parent_errc(p);
        if (want == Errc::Ok && model.count(p) != 0) want = Errc::Exists;
        const auto got = fs.create(p);
        ASSERT_EQ(got.error(), want) << "create " << p;
        check_twin(got.error(), twin.create(p).error(), {p});
        if (got.ok()) model[p] = {FileKind::Regular, last_id = got.value().inode};
      } else if (kind < 7) {  // unlink
        const std::string p = rng.chance(0.8) ? live() : fresh();
        const auto it = model.find(p);
        const Errc want = it == model.end() ? Errc::NotFound
                          : it->second.kind == FileKind::Directory ? Errc::IsADirectory
                                                                   : Errc::Ok;
        ASSERT_EQ(fs.unlink(p), want) << "unlink " << p;
        check_twin(want, twin.unlink(p), {p});
        if (want == Errc::Ok) model.erase(it);
      } else if (kind >= 10) {  // make_file, against its parts on the twin
        const std::string p = file_path();
        const std::uint64_t size = rng.uniform_u64(0, 16 * kMB);
        const std::uint64_t tag = rng.next_u64();
        const Errc got = fs.make_file(p, size, tag);
        check_twin(got, make_file_by_parts(twin, p, size, tag), {p});
        if (HasFatalFailure()) {
          ADD_FAILURE() << "make_file " << p;
          return;
        }
        // What it made joins the model: ids only grow.
        fs.for_each_inode([&](const InodeView& v) {
          if (v.fid().inode <= last_id) return;
          model[v.path()] = {v.kind(), last_id = v.fid().inode};
        });
      } else if (kind < 8) {  // rmdir
        const std::string p = rng.chance(0.8) ? live() : fresh();
        const auto it = model.find(p);
        Errc want = Errc::Ok;
        if (it == model.end()) {
          want = Errc::NotFound;
        } else if (it->second.kind != FileKind::Directory) {
          want = Errc::NotADirectory;
        } else if (p == "/") {
          want = Errc::InvalidArgument;
        } else if (std::any_of(model.begin(), model.end(),
                               [&](const auto& e) { return under(e.first, p); })) {
          want = Errc::NotEmpty;
        }
        ASSERT_EQ(fs.rmdir(p), want) << "rmdir " << p;
        check_twin(want, twin.rmdir(p), {p});
        if (want == Errc::Ok) model.erase(it);
      } else {  // rename
        const std::string from = rng.chance(0.9) ? live() : fresh();
        const std::string to = fresh();
        Errc want = Errc::Ok;
        if (model.count(from) == 0) {
          want = Errc::NotFound;
        } else if (from == "/") {
          want = Errc::InvalidArgument;
        } else if ((want = parent_errc(to)) != Errc::Ok) {
        } else if (model.count(to) != 0) {
          want = Errc::Exists;
        } else if (parent_path(to) == from || under(parent_path(to), from)) {
          want = Errc::InvalidArgument;
        }
        ASSERT_EQ(fs.rename(from, to), want) << "rename " << from << " -> " << to;
        check_twin(want, twin.rename(from, to), {from, to});
        if (want != Errc::Ok) continue;
        std::map<std::string, Entry> moved;
        for (auto it = model.begin(); it != model.end();) {
          if (it->first == from || under(it->first, from)) {
            moved[to + it->first.substr(from.size())] = it->second;
            it = model.erase(it);
          } else {
            ++it;
          }
        }
        model.merge(moved);
      }
      if (HasFatalFailure()) return;
      if (op % 100 == 99) {
        check_namespace();
        expect_same_namespace(fs, twin);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(FileSystemTest, RenameMovesSubtree) {
  ASSERT_EQ(fs_.mkdirs("/a/b"), Errc::Ok);
  ASSERT_TRUE(fs_.create("/a/b/f").ok());
  ASSERT_TRUE(fs_.mkdir("/dst").ok());
  EXPECT_EQ(fs_.rename("/a/b", "/dst/b2"), Errc::Ok);
  EXPECT_TRUE(fs_.exists("/dst/b2/f"));
  EXPECT_FALSE(fs_.exists("/a/b"));
  // Destination exists.
  ASSERT_TRUE(fs_.create("/x").ok());
  EXPECT_EQ(fs_.rename("/x", "/dst/b2"), Errc::Exists);
  // Cannot move a directory into itself.
  EXPECT_EQ(fs_.rename("/dst", "/dst/b2/evil"), Errc::InvalidArgument);
}

TEST_F(FileSystemTest, FileIdStableAcrossRenameAndReverseLookup) {
  auto fid = fs_.create("/orig");
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE(fs_.mkdir("/sub").ok());
  ASSERT_EQ(fs_.rename("/orig", "/sub/moved"), Errc::Ok);
  EXPECT_EQ(fs_.stat("/sub/moved").value().fid, fid.value());
  EXPECT_EQ(fs_.path_of(fid.value()).value(), "/sub/moved");
}

TEST_F(FileSystemTest, FileIdGenerationDetectsReuse) {
  auto fid1 = fs_.create("/f");
  ASSERT_TRUE(fid1.ok());
  ASSERT_EQ(fs_.unlink("/f"), Errc::Ok);
  auto fid2 = fs_.create("/f2");
  ASSERT_TRUE(fid2.ok());
  EXPECT_NE(fid1.value().packed(), fid2.value().packed());
  EXPECT_EQ(fs_.path_of(fid1.value()).error(), Errc::NotFound);
}

TEST_F(FileSystemTest, DmapiLifecycle) {
  ASSERT_TRUE(fs_.create("/f").ok());
  ASSERT_EQ(fs_.write_all("/f", 10 * kMB, 7), Errc::Ok);

  // resident -> premigrated: disk still charged.
  EXPECT_EQ(fs_.premigrate("/f"), Errc::Ok);
  EXPECT_EQ(fs_.stat("/f").value().dmapi, DmapiState::Premigrated);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 10 * kMB);
  EXPECT_EQ(fs_.read_tag("/f").value(), 7u);  // still readable

  // premigrated -> migrated: disk released, stub remains, reads go offline.
  EXPECT_EQ(fs_.punch("/f"), Errc::Ok);
  EXPECT_EQ(fs_.stat("/f").value().dmapi, DmapiState::Migrated);
  EXPECT_EQ(fs_.stat("/f").value().size, 10 * kMB);  // logical size kept
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 0u);
  EXPECT_EQ(fs_.read_tag("/f").error(), Errc::Offline);

  // migrated -> premigrated (recall): disk charged again.
  EXPECT_EQ(fs_.mark_recalled("/f"), Errc::Ok);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 10 * kMB);
  EXPECT_EQ(fs_.read_tag("/f").value(), 7u);

  EXPECT_EQ(fs_.make_resident("/f"), Errc::Ok);
  EXPECT_EQ(fs_.stat("/f").value().dmapi, DmapiState::Resident);
}

TEST_F(FileSystemTest, DmapiInvalidTransitions) {
  ASSERT_TRUE(fs_.create("/f").ok());
  EXPECT_EQ(fs_.punch("/f"), Errc::InvalidArgument);         // not premigrated
  EXPECT_EQ(fs_.mark_recalled("/f"), Errc::InvalidArgument); // not migrated
  EXPECT_EQ(fs_.make_resident("/f"), Errc::InvalidArgument); // not premigrated
  ASSERT_EQ(fs_.premigrate("/f"), Errc::Ok);
  EXPECT_EQ(fs_.premigrate("/f"), Errc::InvalidArgument);    // already
}

// The HSM premigrates and punches by the file id its intake stat returned:
// the id follows the file across a rename, and a file that is gone fails
// the way its path would.
TEST_F(FileSystemTest, DmapiTransitionsByFileId) {
  const auto fid = fs_.create("/f");
  ASSERT_TRUE(fid.ok());
  ASSERT_EQ(fs_.write_all("/f", 10 * kMB, 7), Errc::Ok);
  ASSERT_EQ(fs_.rename("/f", "/g"), Errc::Ok);
  EXPECT_EQ(fs_.punch(fid.value()), Errc::InvalidArgument);  // not premigrated
  EXPECT_EQ(fs_.premigrate(fid.value()), Errc::Ok);
  EXPECT_EQ(fs_.premigrate(fid.value()), Errc::InvalidArgument);  // already
  EXPECT_EQ(fs_.punch(fid.value()), Errc::Ok);
  EXPECT_EQ(fs_.stat("/g").value().dmapi, DmapiState::Migrated);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 0u);

  ASSERT_TRUE(fs_.mkdir("/d").ok());
  const FileId dir = fs_.stat("/d").value().fid;
  EXPECT_EQ(fs_.premigrate(dir), Errc::IsADirectory);
  const FileId stale{fid.value().inode, fid.value().gen + 1};
  EXPECT_EQ(fs_.premigrate(stale), Errc::Stale);
  EXPECT_EQ(fs_.punch(stale), Errc::Stale);
  ASSERT_EQ(fs_.unlink("/g"), Errc::Ok);
  EXPECT_EQ(fs_.premigrate(fid.value()), Errc::NotFound);
  EXPECT_EQ(fs_.punch(fid.value()), Errc::NotFound);
  EXPECT_EQ(fs_.premigrate(FileId{}), Errc::NotFound);
}

struct RecordingListener : DmapiListener {
  std::vector<std::string> offline_reads;
  std::vector<std::string> destroyed;
  void on_read_offline(const std::string& path, FileId) override {
    offline_reads.push_back(path);
  }
  void on_managed_data_destroyed(const std::string& path, FileId) override {
    destroyed.push_back(path);
  }
};

TEST_F(FileSystemTest, ListenerFiresOnOfflineRead) {
  RecordingListener listener;
  fs_.set_dmapi_listener(&listener);
  ASSERT_TRUE(fs_.create("/f").ok());
  ASSERT_EQ(fs_.write_all("/f", kMB, 1), Errc::Ok);
  ASSERT_EQ(fs_.premigrate("/f"), Errc::Ok);
  ASSERT_EQ(fs_.punch("/f"), Errc::Ok);
  EXPECT_EQ(fs_.read_tag("/f").error(), Errc::Offline);
  ASSERT_EQ(listener.offline_reads.size(), 1u);
  EXPECT_EQ(listener.offline_reads[0], "/f");
}

TEST_F(FileSystemTest, ListenerFiresWhenManagedDataDestroyed) {
  RecordingListener listener;
  fs_.set_dmapi_listener(&listener);
  // Unlink of a migrated file orphans the tape copy.
  ASSERT_TRUE(fs_.create("/m").ok());
  ASSERT_EQ(fs_.write_all("/m", kMB, 1), Errc::Ok);
  ASSERT_EQ(fs_.premigrate("/m"), Errc::Ok);
  ASSERT_EQ(fs_.punch("/m"), Errc::Ok);
  ASSERT_EQ(fs_.unlink("/m"), Errc::Ok);
  // Overwrite of a premigrated file also destroys the tape copy's validity.
  ASSERT_TRUE(fs_.create("/o").ok());
  ASSERT_EQ(fs_.write_all("/o", kMB, 1), Errc::Ok);
  ASSERT_EQ(fs_.premigrate("/o"), Errc::Ok);
  ASSERT_EQ(fs_.write_all("/o", kMB, 2), Errc::Ok);
  // Unlink of a plain resident file does NOT fire.
  ASSERT_TRUE(fs_.create("/r").ok());
  ASSERT_EQ(fs_.write_all("/r", kMB, 1), Errc::Ok);
  ASSERT_EQ(fs_.unlink("/r"), Errc::Ok);

  ASSERT_EQ(listener.destroyed.size(), 2u);
  EXPECT_EQ(listener.destroyed[0], "/m");
  EXPECT_EQ(listener.destroyed[1], "/o");
}

TEST_F(FileSystemTest, TruncateChangesTagAndAccounting) {
  ASSERT_TRUE(fs_.create("/f").ok());
  ASSERT_EQ(fs_.write_all("/f", 10 * kMB, 42), Errc::Ok);
  ASSERT_EQ(fs_.truncate("/f", 2 * kMB), Errc::Ok);
  EXPECT_EQ(fs_.stat("/f").value().size, 2 * kMB);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 2 * kMB);
  EXPECT_NE(fs_.read_tag("/f").value(), 42u);
  ASSERT_EQ(fs_.truncate("/f", 0), Errc::Ok);
  EXPECT_EQ(fs_.read_tag("/f").value(), 0u);
}

TEST_F(FileSystemTest, MoveToPoolTransfersCharge) {
  ASSERT_TRUE(fs_.create("/f").ok());
  ASSERT_EQ(fs_.write_all("/f", 10 * kMB, 1), Errc::Ok);
  EXPECT_EQ(fs_.move_to_pool("/f", "slow"), Errc::Ok);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 0u);
  EXPECT_EQ(fs_.pool("slow").value().used_bytes, 10 * kMB);
  EXPECT_EQ(fs_.stat("/f").value().pool, "slow");
  EXPECT_EQ(fs_.move_to_pool("/f", "absent"), Errc::InvalidArgument);
}

TEST_F(FileSystemTest, MoveToPoolOfMigratedStubMovesNoBytes) {
  ASSERT_TRUE(fs_.create("/f").ok());
  ASSERT_EQ(fs_.write_all("/f", 10 * kMB, 1), Errc::Ok);
  ASSERT_EQ(fs_.premigrate("/f"), Errc::Ok);
  ASSERT_EQ(fs_.punch("/f"), Errc::Ok);
  // A stub holds no disk blocks; retargeting its pool charges nothing.
  EXPECT_EQ(fs_.move_to_pool("/f", "slow"), Errc::Ok);
  EXPECT_EQ(fs_.pool("fast").value().used_bytes, 0u);
  EXPECT_EQ(fs_.pool("slow").value().used_bytes, 0u);
  EXPECT_EQ(fs_.stat("/f").value().pool, "slow");
  // The recall then charges the new pool.
  EXPECT_EQ(fs_.mark_recalled("/f"), Errc::Ok);
  EXPECT_EQ(fs_.pool("slow").value().used_bytes, 10 * kMB);
}

TEST_F(FileSystemTest, MoveToPoolRespectsDestinationCapacity) {
  ASSERT_TRUE(fs_.create("/f").ok());
  ASSERT_EQ(fs_.write_all("/f", 80 * kMB, 1), Errc::Ok);
  EXPECT_EQ(fs_.move_to_pool("/f", "slow"), Errc::NoSpace);  // slow = 50 MB
  EXPECT_EQ(fs_.stat("/f").value().pool, "fast");
}

TEST_F(FileSystemTest, StripingCoversPoolNsds) {
  const auto f = fs_.create("/f");
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs_.write_all("/f", 20 * kMB, 1), Errc::Ok);
  // 20 blocks over 4 NSDs -> all 4 servers, global ids 0..3 (fast pool).
  auto nsds = fs_.stripe_nsds(f.value(), 0, 20 * kMB);
  EXPECT_EQ(nsds.size(), 4u);
  for (const unsigned s : nsds) EXPECT_LT(s, 4u);
  // A sub-block range touches exactly one server.
  auto one = fs_.stripe_nsds(f.value(), 0, 1000);
  EXPECT_EQ(one.size(), 1u);
  // Slow pool files map to the slow pool's NSD range (global ids 4..5).
  const auto slow = fs_.create("/s", "slow");
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(fs_.write_all("/s", 10 * kMB, 1), Errc::Ok);
  for (const unsigned s : fs_.stripe_nsds(slow.value(), 0, 10 * kMB)) {
    EXPECT_GE(s, 4u);
    EXPECT_LT(s, 6u);
  }
  EXPECT_EQ(fs_.pool_nsd_base("slow"), 4u);
  EXPECT_EQ(fs_.total_nsds(), 7u);
}

// A file's blocks go round-robin over its pool's NSDs from NSD inode %
// nsds, so the order inodes are made in reaches every flow's legs.  The
// id follows the file across a rename; a stale or dead id, a directory
// and no file at all stripe nowhere.
TEST_F(FileSystemTest, StripingStartsAtInodeModNsds) {
  ASSERT_TRUE(fs_.mkdir("/d").ok());
  for (int i = 0; i < 8; ++i) {
    const std::string p = "/f" + std::to_string(i);
    const bool slow = i % 2 != 0;
    const auto fid = fs_.create(p, slow ? "slow" : "");
    ASSERT_TRUE(fid.ok());
    ASSERT_EQ(fs_.write_all(p, 3 * kMB, 1), Errc::Ok);
    ASSERT_EQ(fs_.rename(p, "/d" + p), Errc::Ok);
    const unsigned base = slow ? 4 : 0, nsds = slow ? 2 : 4;
    for (const std::uint64_t block : {0ULL, 3ULL, 5ULL}) {
      // Two blocks: both servers of the slow pool, two of the fast one's.
      std::vector<unsigned> want;
      if (slow) {
        want = {4, 5};
      } else {
        for (const std::uint64_t b : {block, block + 1}) {
          want.push_back(base + static_cast<unsigned>((fid.value().inode + b) % nsds));
        }
      }
      EXPECT_EQ(fs_.stripe_nsds(fid.value(), block * kMB, 2 * kMB), want)
          << p << " @" << block;
    }
  }
  const FileId f0 = fs_.stat("/d/f0").value().fid;
  EXPECT_TRUE(fs_.stripe_nsds(FileId{f0.inode, f0.gen + 1}, 0, kMB).empty());
  ASSERT_EQ(fs_.unlink("/d/f0"), Errc::Ok);
  EXPECT_TRUE(fs_.stripe_nsds(f0, 0, kMB).empty());
  const FileId dir = fs_.stat("/").value().fid;
  EXPECT_TRUE(fs_.stripe_nsds(dir, 0, kMB).empty());
  EXPECT_TRUE(fs_.stripe_nsds(FileId{}, 0, kMB).empty());
}

TEST_F(FileSystemTest, ForEachInodeVisitsEverythingWithPaths) {
  ASSERT_EQ(fs_.mkdirs("/a/b"), Errc::Ok);
  ASSERT_TRUE(fs_.create("/a/b/f").ok());
  ASSERT_TRUE(fs_.create("/a/gone").ok());
  ASSERT_EQ(fs_.unlink("/a/gone"), Errc::Ok);
  ASSERT_TRUE(fs_.create("/a/b/g", "slow").ok());
  std::vector<std::string> paths;
  InodeId last = kInvalidInode;
  fs_.for_each_inode([&](const InodeView& v) {
    EXPECT_GT(v.fid().inode, last);  // inode order
    last = v.fid().inode;
    const std::string& p = v.path();
    EXPECT_EQ(&p, &v.path());  // built once per visit
    const InodeAttrs a = v.attrs();
    EXPECT_TRUE(a == fs_.stat(p).value()) << p;
    EXPECT_EQ(v.pool(), a.pool);
    paths.push_back(p);
  });
  EXPECT_EQ(paths, (std::vector<std::string>{"/", "/a", "/a/b", "/a/b/f", "/a/b/g"}));
  EXPECT_EQ(paths.size(), fs_.total_inodes());
}

TEST_F(FileSystemTest, ScanDurationMatchesPaperCalibration) {
  // 1M inodes at the paper's rate = 10 minutes on one stream.
  EXPECT_EQ(fs_.scan_duration(1'000'000, 1), sim::minutes(10));
  // Parallel streams divide the time.
  EXPECT_EQ(fs_.scan_duration(1'000'000, 10), sim::minutes(1));
  EXPECT_EQ(fs_.scan_duration(0, 4), 0u);
}

TEST_F(FileSystemTest, TimesComeFromVirtualClock) {
  sim_.run_until(sim::secs(100));
  ASSERT_TRUE(fs_.create("/f").ok());
  EXPECT_EQ(fs_.stat("/f").value().ctime, sim::secs(100));
  sim_.run_until(sim::secs(200));
  ASSERT_EQ(fs_.write_all("/f", kMB, 1), Errc::Ok);
  EXPECT_EQ(fs_.stat("/f").value().mtime, sim::secs(200));
  EXPECT_EQ(fs_.stat("/f").value().ctime, sim::secs(100));
}

}  // namespace
}  // namespace cpa::pfs
