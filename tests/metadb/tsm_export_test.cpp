#include "metadb/tsm_export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "hsm/server.hpp"
#include "obs/observer.hpp"
#include "simcore/flow_network.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "wal/durable.hpp"

namespace cpa::metadb {
namespace {

// ------------------------------------------------------ path confirmation

// No two test paths share an FNV-1a 64 hash, so these cases hash a path to
// its length: every path of one length collides.
struct LengthHash {
  std::uint64_t operator()(std::string_view path) const { return path.size(); }
};

struct Row {
  std::uint64_t object_id = 0;
  std::uint64_t gpfs_file_id = 0;
  std::string path;
};

struct Catalog {
  Table<Row> objects{[](const Row& r) { return r.object_id; }};
  TsmExportDb<Row, LengthHash> db{objects};
};

// The path index holds hashes; a hit counts only when the row holds
// exactly the path asked for.
TEST(TsmExportDb, PathHitIsConfirmedAgainstTheOwner) {
  Catalog c;
  c.objects.insert({100, 1, "/arch/a"});
  c.objects.insert({101, 0, ""});  // an aggregate, under the hash of ""
  ASSERT_NE(c.db.by_path("/arch/a"), nullptr);
  EXPECT_EQ(c.db.by_path("/arch/a")->object_id, 100u);
  EXPECT_EQ(c.db.by_path("/arch/b"), nullptr);  // same hash, other path
  EXPECT_EQ(c.db.by_path(""), nullptr);
  EXPECT_EQ(c.db.size(), 1u);
}

// Rows whose paths share a hash are visited in object-id order until one
// holds the path: the lowest id holding it wins.
TEST(TsmExportDb, SharedHashFindsTheOwnedPath) {
  Catalog c;
  c.objects.insert({100, 1, "/arch/y"});
  c.objects.insert({101, 2, "/arch/x"});
  c.objects.insert({102, 3, "/arch/x"});
  const Row* row = c.db.by_path("/arch/x");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->object_id, 101u);
  c.objects.erase(101);
  ASSERT_NE(c.db.by_path("/arch/x"), nullptr);
  EXPECT_EQ(c.db.by_path("/arch/x")->object_id, 102u);
}

// ------------------------------------------------------- reference model

// The view over a WAL-attached archive server against a std::map model.
// Random new objects (some on a path and file id that already have one, as
// an overwritten file migrated again leaves), re-records that move the
// location, attach copies or change the path, aggregates with members,
// deletes of any object, checkpoints, and power failures followed by WAL
// replay.  After every batch each query must answer as the model: the
// lowest object id wins, and aggregates (empty path) are invisible.  The
// catalog grows past a thousand objects, so every index splits chunks.
class ExportViewOracle : public ::testing::TestWithParam<std::uint64_t> {};

struct Obj {
  std::string path;
  std::uint64_t fid = 0;
  std::uint64_t cart = 0;
  std::uint64_t seq = 0;
};

constexpr std::uint64_t kPaths = 48;
constexpr std::uint64_t kFids = 64;

// Paths of up to 15 bytes, and for three in every eight a padded name
// that makes the path 31, 32 or 33 bytes long: around the 31 a catalog
// row keeps in place.
std::string pool_path(std::uint64_t i) {
  std::string path = "/arch/d" + std::to_string(i % 6) + "/file" + std::to_string(i);
  if (const std::uint64_t k = i % 8; k >= 5) path.resize(31 + (k - 5), 'x');
  return path;
}

struct Plant {
  Plant() { durable.attach_server(0, server); }

  std::uint64_t record(const Obj& o, std::uint64_t aggregate_id = 0) {
    const std::uint64_t id = server.allocate_object_id();
    EXPECT_EQ(model.count(id), 0u) << id;
    hsm::ArchiveObject obj;
    obj.object_id = id;
    obj.path = o.path;
    obj.gpfs_file_id = o.fid;
    obj.cartridge_id = o.cart;
    obj.tape_seq = o.seq;
    obj.aggregate_id = aggregate_id;
    model[id] = o;
    server.record_object(std::move(obj));
    return id;
  }

  void crash_and_recover(std::uint64_t seed) {
    bool synced = false;
    durable.sync([&] { synced = true; });
    sim.run();
    ASSERT_TRUE(synced);
    server.power_fail();
    durable.crash(seed);
    durable.recover();
  }

  sim::Simulation sim;
  sim::FlowNetwork net{sim};
  obs::Observer obs;
  hsm::ArchiveServer server{sim, net, "tsm0", hsm::ServerConfig{}};
  wal::Durable durable{sim, wal::WalConfig{}, obs};
  std::map<std::uint64_t, Obj> model;
};

void expect_row(const hsm::ArchiveObject* got, std::uint64_t want_id, const Obj* want,
                const std::string& query) {
  if (want == nullptr) {
    EXPECT_EQ(got, nullptr) << query;
    return;
  }
  ASSERT_NE(got, nullptr) << query;
  EXPECT_EQ(got->object_id, want_id) << query;
  EXPECT_EQ(got->path, want->path) << query;
  EXPECT_EQ(got->gpfs_file_id, want->fid) << query;
  EXPECT_EQ(got->cartridge_id, want->cart) << query;
  EXPECT_EQ(got->tape_seq, want->seq) << query;
}

void expect_view_matches_model(const Plant& p) {
  const auto& db = p.server.export_db();
  // The model's answers: walking ids upward, the first object seen on a
  // path or a file id is the lowest.
  std::map<std::string, std::uint64_t> first_by_path;
  std::map<std::uint64_t, std::uint64_t> first_by_fid;
  std::size_t exported = 0;
  for (const auto& [id, o] : p.model) {
    if (o.path.empty()) continue;
    ++exported;
    first_by_path.try_emplace(o.path, id);
    first_by_fid.try_emplace(o.fid, id);
  }
  EXPECT_EQ(db.size(), exported);
  EXPECT_EQ(p.server.object_count(), p.model.size());

  for (std::uint64_t id = 0; id <= p.server.next_object_id(); ++id) {
    const auto it = p.model.find(id);
    const Obj* want =
        it != p.model.end() && !it->second.path.empty() ? &it->second : nullptr;
    expect_row(db.by_object_id(id), id, want, "id " + std::to_string(id));
  }
  const auto want_of = [&](const auto& first, const auto& key) {
    const auto it = first.find(key);
    return it == first.end() ? std::pair<std::uint64_t, const Obj*>{0, nullptr}
                             : std::pair{it->second, &p.model.at(it->second)};
  };
  std::vector<std::string> paths = {"", "/arch/never"};
  for (std::uint64_t i = 0; i < kPaths; ++i) paths.push_back(pool_path(i));
  for (const std::string& path : paths) {
    const auto [id, want] = want_of(first_by_path, path);
    expect_row(db.by_path(path), id, want, "path " + path);
  }
  for (std::uint64_t fid = 0; fid <= kFids + 1; ++fid) {
    const auto [id, want] = want_of(first_by_fid, fid);
    expect_row(db.by_gpfs_file_id(fid), id, want, "fid " + std::to_string(fid));
  }
}

TEST_P(ExportViewOracle, LookupsMatchTheLowestIdModel) {
  constexpr int kOps = 2'000;
  sim::Rng rng(GetParam());
  Plant p;
  const auto any_id = [&] {
    auto it = p.model.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_u64(0, p.model.size() - 1)));
    return it->first;
  };
  // A file's path and file id usually travel together; sometimes the file
  // was recreated (new fid) or renamed (new path) before this migration.
  const auto file = [&] {
    Obj o;
    const std::uint64_t i = rng.uniform_u64(0, kPaths - 1);
    o.path = pool_path(i);
    o.fid = rng.chance(0.8) ? 1 + i : rng.uniform_u64(1, kFids);
    o.cart = rng.uniform_u64(1, 8);
    o.seq = rng.uniform_u64(1, 1000);
    return o;
  };

  std::size_t max_objects = 0;
  std::uint64_t remigrations = 0;
  int op = 0;
  while (op < kOps) {
    const int batch = static_cast<int>(rng.uniform_u64(1, 24));
    for (int b = 0; b < batch && op < kOps; ++b, ++op) {
      const double r = rng.uniform();
      if (p.model.empty() || r < 0.30) {
        p.record(file());
      } else if (r < 0.40) {
        // Overwrite-then-remigrate: a second object on an exported
        // object's path and file id, at a new location.
        const std::uint64_t id = any_id();
        if (p.model.at(id).path.empty()) continue;
        Obj again = p.model.at(id);
        again.cart = rng.uniform_u64(1, 8);
        again.seq = rng.uniform_u64(1, 1000);
        p.record(again);
        ++remigrations;
      } else if (r < 0.55) {
        // Re-record in place: a moved location, copy links, or a path.
        const std::uint64_t id = any_id();
        hsm::ArchiveObject obj = *p.server.object(id);
        Obj& o = p.model.at(id);
        o.cart = obj.cartridge_id = rng.uniform_u64(1, 8);
        o.seq = obj.tape_seq = rng.uniform_u64(1, 1000);
        if (!o.path.empty() && rng.chance(0.1)) o.path = obj.path = file().path;
        if (rng.chance(0.5)) {
          hsm::ObjectLinks links = p.server.links(id);
          links.copies = {{rng.uniform_u64(9, 12), rng.uniform_u64(1, 1000)}};
          p.server.record_object(std::move(obj), std::move(links));
        } else {
          p.server.record_object(std::move(obj));
        }
      } else if (r < 0.63) {
        // An aggregate and its members, as an aggregated migrate records
        // them: the members point at the aggregate, which lists them.
        const std::uint64_t agg = p.server.allocate_object_id();
        hsm::ObjectLinks links;
        const std::uint64_t n = rng.uniform_u64(2, 6);
        for (std::uint64_t m = 0; m < n; ++m) links.members.push_back(p.record(file(), agg));
        hsm::ArchiveObject obj;
        obj.object_id = agg;
        obj.cartridge_id = rng.uniform_u64(1, 8);
        obj.tape_seq = rng.uniform_u64(1, 1000);
        p.model[agg] = Obj{"", 0, obj.cartridge_id, obj.tape_seq};
        p.server.record_object(std::move(obj), std::move(links));
      } else if (r < 0.95) {
        const std::uint64_t id = any_id();
        EXPECT_TRUE(p.server.delete_object(id));
        p.model.erase(id);
      } else if (r < 0.97) {
        p.durable.checkpoint();
      } else {
        p.crash_and_recover(rng.next_u64());
        if (HasFatalFailure()) return;
      }
    }
    max_objects = std::max(max_objects, p.model.size());
    expect_view_matches_model(p);
    if (HasFailure()) return;
  }
  // The run must have grown past one index chunk and met the ties.
  EXPECT_GE(max_objects, 500u);
  EXPECT_GE(remigrations, 100u);
}

INSTANTIATE_TEST_SUITE_P(RandomOps, ExportViewOracle,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cpa::metadb
