#include "metadb/table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simcore/rng.hpp"

namespace cpa::metadb {
namespace {

struct Item {
  std::uint64_t id;
  std::uint64_t group;
  std::string name;
  int payload;
  bool operator==(const Item&) const = default;
};

void PrintTo(const Item& i, std::ostream* os) {
  *os << "{" << i.id << ", " << i.group << ", \"" << i.name << "\", " << i.payload << "}";
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : t_([](const Item& i) { return i.id; }) {
    by_group_ = t_.add_index_u64([](const Item& i) { return i.group; });
    by_name_ = t_.add_index_str(&Item::name);
  }
  Table<Item> t_;
  Table<Item>::IndexId by_group_{};
  Table<Item>::IndexId by_name_{};
};

TEST_F(TableTest, InsertFindErase) {
  EXPECT_TRUE(t_.insert({1, 10, "a", 100}));
  EXPECT_TRUE(t_.insert({2, 10, "b", 200}));
  EXPECT_FALSE(t_.insert({1, 99, "dup", 0}));
  EXPECT_EQ(t_.size(), 2u);

  const Item* it = t_.find(1);
  ASSERT_NE(it, nullptr);
  EXPECT_EQ(it->payload, 100);
  EXPECT_EQ(t_.find(3), nullptr);

  EXPECT_TRUE(t_.erase(1));
  EXPECT_FALSE(t_.erase(1));
  EXPECT_EQ(t_.find(1), nullptr);
  EXPECT_EQ(t_.size(), 1u);
}

TEST_F(TableTest, SecondaryU64IndexFindsAllMatches) {
  t_.insert({1, 10, "a", 0});
  t_.insert({2, 10, "b", 0});
  t_.insert({3, 20, "c", 0});
  auto rows = t_.lookup_u64(by_group_, 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->id, 1u);
  EXPECT_EQ(rows[1]->id, 2u);
  EXPECT_TRUE(t_.lookup_u64(by_group_, 999).empty());
}

TEST_F(TableTest, SecondaryStrIndex) {
  t_.insert({1, 1, "alpha", 0});
  t_.insert({2, 2, "beta", 0});
  t_.insert({3, 3, "alpha", 0});
  auto rows = t_.lookup_str(by_name_, "alpha");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(TableTest, RangeQueryAscending) {
  for (std::uint64_t i = 0; i < 10; ++i) t_.insert({i + 1, i * 10, "x", 0});
  auto rows = t_.range_u64(by_group_, 25, 65);
  ASSERT_EQ(rows.size(), 4u);  // groups 30, 40, 50, 60
  EXPECT_EQ(rows.front()->group, 30u);
  EXPECT_EQ(rows.back()->group, 60u);
}

TEST_F(TableTest, EraseRemovesIndexEntries) {
  t_.insert({1, 10, "a", 0});
  t_.insert({2, 10, "a", 0});
  t_.erase(1);
  EXPECT_EQ(t_.lookup_u64(by_group_, 10).size(), 1u);
  EXPECT_EQ(t_.lookup_str(by_name_, "a").size(), 1u);
}

TEST_F(TableTest, UpsertReindexes) {
  t_.insert({1, 10, "old", 7});
  t_.upsert({1, 20, "new", 8});
  EXPECT_TRUE(t_.lookup_u64(by_group_, 10).empty());
  ASSERT_EQ(t_.lookup_u64(by_group_, 20).size(), 1u);
  EXPECT_TRUE(t_.lookup_str(by_name_, "old").empty());
  EXPECT_EQ(t_.find(1)->payload, 8);
  EXPECT_EQ(t_.size(), 1u);
}

TEST_F(TableTest, UpsertInsertsWhenAbsent) {
  t_.upsert({5, 1, "n", 3});
  EXPECT_EQ(t_.size(), 1u);
  EXPECT_EQ(t_.find(5)->payload, 3);
}

TEST_F(TableTest, ScanCountsRowsTouched) {
  for (std::uint64_t i = 1; i <= 100; ++i) t_.insert({i, i % 3, "x", 0});
  auto rows = t_.scan([](const Item& i) { return i.group == 1; });
  EXPECT_EQ(rows.size(), 34u);  // i % 3 == 1 for i in 1..100
  EXPECT_EQ(t_.stats().full_scans, 1u);
  EXPECT_EQ(t_.stats().rows_scanned, 100u);
  EXPECT_EQ(t_.stats().index_lookups, 0u);
}

TEST_F(TableTest, StatsTrackOperations) {
  t_.insert({1, 1, "a", 0});
  t_.find(1);
  t_.lookup_u64(by_group_, 1);
  t_.range_u64(by_group_, 0, 5);
  t_.erase(1);
  const auto& s = t_.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.point_lookups, 1u);
  EXPECT_EQ(s.index_lookups, 1u);
  EXPECT_EQ(s.range_lookups, 1u);
  EXPECT_EQ(s.erases, 1u);
}

TEST_F(TableTest, AddIndexAfterInsertThrows) {
  t_.insert({1, 1, "a", 0});
  EXPECT_THROW(t_.add_index_u64([](const Item& i) { return i.id; }),
               std::logic_error);
  EXPECT_THROW(t_.add_index_str(&Item::name), std::logic_error);
}

TEST_F(TableTest, ForEachVisitsAllRows) {
  for (std::uint64_t i = 1; i <= 5; ++i) t_.insert({i, 0, "x", 0});
  int n = 0;
  t_.for_each([&](const Item&) { ++n; });
  EXPECT_EQ(n, 5);
}

TEST_F(TableTest, VisitorsMatchLookupWithoutMaterializing) {
  t_.insert({1, 10, "a", 100});
  t_.insert({2, 10, "b", 200});
  t_.insert({3, 20, "alpha", 300});
  t_.insert({4, 10, "alpha", 400});

  std::vector<std::uint64_t> ids;
  t_.for_each_u64(by_group_, 10, [&](const Item& i) { ids.push_back(i.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 4}));  // pk order

  ids.clear();
  t_.for_each_str(by_name_, "alpha",
                  [&](const Item& i) { ids.push_back(i.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{3, 4}));

  ids.clear();
  t_.for_each_range(by_group_, 10, 20,
                    [&](const Item& i) { ids.push_back(i.id); });
  // Range walk: ascending attribute, ties broken by primary key.
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 4, 3}));

  int n = 0;
  t_.for_each_u64(by_group_, 999, [&](const Item&) { ++n; });
  EXPECT_EQ(n, 0);
  // Visitors count as index/range lookups, same as the vector forms.
  EXPECT_EQ(t_.stats().index_lookups, 3u);
  EXPECT_EQ(t_.stats().range_lookups, 1u);
}

TEST_F(TableTest, FirstMatchReturnsLowestPrimaryKey) {
  t_.insert({5, 10, "dup", 0});
  t_.insert({2, 10, "dup", 0});
  t_.insert({9, 20, "other", 0});
  const Item* u = t_.first_u64(by_group_, 10);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->id, 2u);
  EXPECT_EQ(t_.first_u64(by_group_, 30), nullptr);
  const Item* s = t_.first_str(by_name_, "dup");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->id, 2u);
  EXPECT_EQ(t_.first_str(by_name_, "nope"), nullptr);
}

TEST_F(TableTest, BulkOpsApplyPerRowAndCountBatches) {
  EXPECT_EQ(t_.insert_bulk({{1, 10, "a", 0}, {2, 10, "b", 0}, {1, 9, "dup", 0}}),
            2u);  // duplicate pk skipped
  EXPECT_EQ(t_.size(), 2u);
  t_.upsert_bulk({{1, 20, "a2", 1}, {3, 20, "c", 2}});
  EXPECT_EQ(t_.size(), 3u);
  EXPECT_EQ(t_.find(1)->group, 20u);
  // Indexes follow bulk upserts.
  EXPECT_TRUE(t_.lookup_u64(by_group_, 10).size() == 1u);
  EXPECT_EQ(t_.lookup_u64(by_group_, 20).size(), 2u);
  EXPECT_EQ(t_.erase_bulk({1, 3, 77}), 2u);  // missing key skipped
  EXPECT_EQ(t_.size(), 1u);
  const auto& s = t_.stats();
  EXPECT_EQ(s.bulk_batches, 3u);
  EXPECT_EQ(s.bulk_rows, 3u + 2u + 3u);
  EXPECT_EQ(s.inserts, 3u);  // 2 bulk-inserted + 1 new row via bulk upsert
  EXPECT_EQ(s.erases, 2u);
}

// Reference-model oracle.  Random singleton and bulk inserts, upserts that
// move indexed attributes, erases and occasional clears run against a
// node-based model: a std::map of rows plus one std::set of (attribute,
// primary key) per index.  Ids, groups and names drift upward with the op count while old
// ids expire in bulk, so the table holds a couple of thousand rows, far
// past one index chunk, and whole runs of chunks fill, split and drain
// empty again.  Names straddle the 15-character small-string limit.
class TableProperty : public ::testing::TestWithParam<std::uint64_t> {};

struct TableModel {
  std::map<std::uint64_t, Item> rows;
  std::set<std::pair<std::uint64_t, std::uint64_t>> by_group;
  std::set<std::pair<std::string, std::uint64_t>> by_name;
  TableStats stats;

  void put(const Item& item) {
    if (auto it = rows.find(item.id); it != rows.end()) unindex(it->second);
    rows[item.id] = item;
    by_group.emplace(item.group, item.id);
    by_name.emplace(item.name, item.id);
  }
  void unindex(const Item& item) {
    by_group.erase({item.group, item.id});
    by_name.erase({item.name, item.id});
  }
  bool insert(const Item& item) {
    if (rows.count(item.id) != 0) return false;
    put(item);
    ++stats.inserts;
    return true;
  }
  void upsert(const Item& item) {
    if (rows.count(item.id) == 0) ++stats.inserts;
    put(item);
  }
  bool erase(std::uint64_t id) {
    const auto it = rows.find(id);
    if (it == rows.end()) return false;
    unindex(it->second);
    rows.erase(it);
    ++stats.erases;
    return true;
  }
  void clear() {
    rows.clear();
    by_group.clear();
    by_name.clear();
  }
  [[nodiscard]] std::vector<Item> group(std::uint64_t g) const {
    return range(g, g);
  }
  [[nodiscard]] std::vector<Item> range(std::uint64_t lo, std::uint64_t hi) const {
    std::vector<Item> out;
    for (auto it = by_group.lower_bound({lo, 0}); it != by_group.end() && it->first <= hi;
         ++it) {
      out.push_back(rows.at(it->second));
    }
    return out;
  }
  [[nodiscard]] std::vector<Item> named(const std::string& name) const {
    std::vector<Item> out;
    for (auto it = by_name.lower_bound({name, 0}); it != by_name.end() && it->first == name;
         ++it) {
      out.push_back(rows.at(it->second));
    }
    return out;
  }
};

std::vector<Item> deref(const std::vector<const Item*>& rows) {
  std::vector<Item> out;
  out.reserve(rows.size());
  for (const Item* r : rows) out.push_back(*r);
  return out;
}

std::vector<Item> first_of(const std::vector<Item>& rows) {
  return rows.empty() ? std::vector<Item>{} : std::vector<Item>{rows.front()};
}

std::vector<Item> first_of(const Item* row) {
  return row == nullptr ? std::vector<Item>{} : std::vector<Item>{*row};
}

void expect_same_stats(const TableStats& got, const TableStats& want) {
  EXPECT_EQ(got.inserts, want.inserts);
  EXPECT_EQ(got.erases, want.erases);
  EXPECT_EQ(got.point_lookups, want.point_lookups);
  EXPECT_EQ(got.index_lookups, want.index_lookups);
  EXPECT_EQ(got.range_lookups, want.range_lookups);
  EXPECT_EQ(got.full_scans, want.full_scans);
  EXPECT_EQ(got.rows_scanned, want.rows_scanned);
  EXPECT_EQ(got.bulk_batches, want.bulk_batches);
  EXPECT_EQ(got.bulk_rows, want.bulk_rows);
}

TEST_P(TableProperty, IndexMatchesScanUnderRandomOps) {
  constexpr int kOps = 20'000;
  constexpr int kCheckEvery = 250;
  constexpr std::uint64_t kIdWindow = 3000;
  constexpr std::uint64_t kGroups = 40;
  constexpr std::uint64_t kNames = 48;

  cpa::sim::Rng rng(GetParam());
  Table<Item> t([](const Item& i) { return i.id; });
  const auto by_group = t.add_index_u64([](const Item& i) { return i.group; });
  const auto by_name = t.add_index_str(&Item::name);
  TableModel model;

  // Names of 10 to 24 characters that share long prefixes.
  const auto name_of = [](std::uint64_t k) {
    return std::string(9 + k % 11, static_cast<char>('a' + k % 3)) + std::to_string(k);
  };
  std::uint64_t base = 0;  // the windows below slide up with it
  const auto random_item = [&] {
    Item item;
    item.id = base + rng.uniform_u64(1, kIdWindow);
    item.group = base / 50 + rng.uniform_u64(0, kGroups - 1);
    item.name = name_of(base / 100 + rng.uniform_u64(0, kNames - 1));
    item.payload = static_cast<int>(rng.uniform_u64(0, 1'000'000));
    return item;
  };
  const auto random_batch = [&] {
    std::vector<Item> batch(rng.uniform_u64(1, 32));
    for (Item& item : batch) item = random_item();
    return batch;
  };

  // A row whose address must survive every operation that leaves it alone.
  std::uint64_t pinned_id = 0;
  const Item* pinned = nullptr;
  std::size_t max_size = 0;

  const auto check = [&] {
    ASSERT_EQ(t.size(), model.rows.size());
    std::vector<Item> want_all;
    for (const auto& [id, item] : model.rows) want_all.push_back(item);
    std::vector<Item> got_all;
    t.for_each([&](const Item& i) { got_all.push_back(i); });
    ASSERT_EQ(got_all, want_all) << "for_each order";

    const auto pred = [](const Item& i) { return i.group % 3 == 0; };
    std::vector<Item> want_scan;
    for (const Item& i : want_all) {
      if (pred(i)) want_scan.push_back(i);
    }
    EXPECT_EQ(deref(t.scan(pred)), want_scan) << "scan";
    ++model.stats.full_scans;
    model.stats.rows_scanned += model.rows.size();

    for (std::uint64_t id = base; id <= base + kIdWindow; id += 37) {
      const auto it = model.rows.find(id);
      const Item* got = t.find(id);
      ++model.stats.point_lookups;
      if (it == model.rows.end()) {
        EXPECT_EQ(got, nullptr) << "find " << id;
      } else {
        ASSERT_NE(got, nullptr) << "find " << id;
        EXPECT_EQ(*got, it->second);
      }
    }

    const std::uint64_t g0 = base / 50;
    for (std::uint64_t g = g0 > 2 ? g0 - 2 : 0; g < g0 + kGroups + 2; ++g) {
      const std::vector<Item> want = model.group(g);
      EXPECT_EQ(deref(t.lookup_u64(by_group, g)), want) << "lookup_u64 " << g;
      std::vector<Item> visited;
      t.for_each_u64(by_group, g, [&](const Item& i) { visited.push_back(i); });
      EXPECT_EQ(visited, want) << "for_each_u64 " << g;
      EXPECT_EQ(first_of(t.first_u64(by_group, g)), first_of(want)) << "first_u64 " << g;
      model.stats.index_lookups += 3;
    }

    const std::uint64_t k0 = base / 100;
    for (std::uint64_t k = k0 > 2 ? k0 - 2 : 0; k < k0 + kNames + 2; ++k) {
      const std::string name = name_of(k);
      const std::vector<Item> want = model.named(name);
      EXPECT_EQ(deref(t.lookup_str(by_name, name)), want) << "lookup_str " << name;
      std::vector<Item> visited;
      t.for_each_str(by_name, name, [&](const Item& i) { visited.push_back(i); });
      EXPECT_EQ(visited, want) << "for_each_str " << name;
      EXPECT_EQ(first_of(t.first_str(by_name, name)), first_of(want)) << "first_str " << name;
      model.stats.index_lookups += 3;
    }

    for (int r = 0; r < 4; ++r) {
      const std::uint64_t lo = g0 + rng.uniform_u64(0, kGroups);
      const std::uint64_t hi = lo + rng.uniform_u64(0, kGroups / 2);
      const std::vector<Item> want = model.range(lo, hi);
      EXPECT_EQ(deref(t.range_u64(by_group, lo, hi)), want) << "range " << lo << ".." << hi;
      std::vector<Item> visited;
      t.for_each_range(by_group, lo, hi, [&](const Item& i) { visited.push_back(i); });
      EXPECT_EQ(visited, want) << "for_each_range " << lo << ".." << hi;
      model.stats.range_lookups += 2;
    }

    if (pinned != nullptr) {
      EXPECT_EQ(t.find(pinned_id), pinned) << "row " << pinned_id << " moved";
      ++model.stats.point_lookups;
      EXPECT_EQ(*pinned, model.rows.at(pinned_id));
    }
    expect_same_stats(t.stats(), model.stats);
  };

  for (int op = 0; op < kOps; ++op) {
    base = static_cast<std::uint64_t>(op);
    bool touched_pin = false;
    const auto touches = [&](std::uint64_t id) { touched_pin |= id == pinned_id; };
    const auto kind = rng.uniform_u64(0, 99);
    if (rng.uniform_u64(0, 7999) == 0) {
      t.clear();
      model.clear();
      touched_pin = true;
    } else if (kind < 30) {
      const Item item = random_item();
      ASSERT_EQ(t.insert(item), model.insert(item));
    } else if (kind < 48) {
      const Item item = random_item();
      touches(item.id);
      t.upsert(item);
      model.upsert(item);
    } else if (kind < 78) {
      const std::uint64_t id = base + rng.uniform_u64(1, kIdWindow);
      touches(id);
      ASSERT_EQ(t.erase(id), model.erase(id));
    } else if (kind < 84) {
      const std::vector<Item> batch = random_batch();
      std::size_t n = 0;
      for (const Item& item : batch) n += model.insert(item) ? 1 : 0;
      ASSERT_EQ(t.insert_bulk(batch), n);
      ++model.stats.bulk_batches;
      model.stats.bulk_rows += batch.size();
    } else if (kind < 90) {
      const std::vector<Item> batch = random_batch();
      for (const Item& item : batch) {
        touches(item.id);
        model.upsert(item);
      }
      t.upsert_bulk(batch);
      ++model.stats.bulk_batches;
      model.stats.bulk_rows += batch.size();
    } else {
      // Random ids, or (one time in three) every id that fell below the
      // window: a bulk expiry that drains the oldest chunks whole.
      std::vector<std::uint64_t> keys;
      if (kind < 96) {
        for (const Item& item : random_batch()) keys.push_back(item.id);
      } else {
        for (auto it = model.rows.begin(); it != model.rows.end() && it->first <= base; ++it) {
          keys.push_back(it->first);
        }
      }
      std::size_t n = 0;
      for (const std::uint64_t k : keys) {
        touches(k);
        n += model.erase(k) ? 1 : 0;
      }
      ASSERT_EQ(t.erase_bulk(keys), n);
      ++model.stats.bulk_batches;
      model.stats.bulk_rows += keys.size();
    }
    max_size = std::max(max_size, model.rows.size());

    if (touched_pin) pinned = nullptr;
    if (pinned == nullptr && !model.rows.empty()) {
      auto it = model.rows.lower_bound(base + rng.uniform_u64(1, kIdWindow));
      if (it == model.rows.end()) it = model.rows.begin();
      pinned_id = it->first;
      pinned = t.find(pinned_id);
      ++model.stats.point_lookups;
      ASSERT_NE(pinned, nullptr);
    }
    if ((op + 1) % kCheckEvery == 0) {
      check();
      if (HasFatalFailure()) return;
    }
  }
  // The run must have stressed more than one chunk's worth of rows.
  EXPECT_GE(max_size, 1000u);
}

INSTANTIATE_TEST_SUITE_P(RandomOps, TableProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace cpa::metadb
