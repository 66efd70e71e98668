// Embedded, indexed, in-memory table store.
//
// The paper's archive cannot query TSM 5.5's proprietary database for the
// (tape id, tape sequence) of a file — those fields are not indexed and
// cannot be — so LANL exported the relevant TSM tables to MySQL and added
// indexes; PFTool then queries MySQL to sort recalls into tape order
// (Sec 4.2.5), and the synchronous deleter joins GPFS file ids to TSM
// object ids through it (Sec 4.2.6).
//
// This module stands in for both databases: a typed table with a unique
// primary key and any number of secondary indexes supporting point and
// range lookups.  The archive server's object catalog is one such table,
// and the export is secondary indexes registered on that same table
// (metadb/tsm_export.hpp), so each catalog fact is stored once.  Query
// counters distinguish indexed accesses from full scans so benchmarks can
// demonstrate why the unindexed TSM database was unusable for tape-ordered
// recall.
//
// Storage is flat: rows live in the fixed-size blocks of a deque (a row
// never moves, and an erased row's slot is reused), and the primary key
// and every secondary index are sorted runs of 16-byte entries cut into
// fixed-capacity chunks — a two-level B+-tree with no per-entry node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cpa::metadb {

/// Aggregate access statistics for one table.
struct TableStats {
  std::uint64_t inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t point_lookups = 0;
  std::uint64_t index_lookups = 0;
  std::uint64_t range_lookups = 0;
  std::uint64_t full_scans = 0;
  std::uint64_t rows_scanned = 0;  // rows touched by full scans
  std::uint64_t bulk_batches = 0;  // bulk insert/upsert/erase calls
  std::uint64_t bulk_rows = 0;     // rows carried by those calls
};

namespace detail {

/// A sorted sequence of entries cut into fixed-capacity chunks: the leaf
/// level of a two-level B+-tree whose inner level is a binary search over
/// each chunk's last entry.  A full chunk splits in half, except that an
/// append past the last entry opens a new chunk (so ascending keys fill
/// chunks completely); a chunk is dropped when its last entry goes.
template <typename Entry>
class SortedChunks {
 public:
  struct Pos {
    std::size_t chunk = 0;
    std::size_t i = 0;
  };

  /// Position of the first entry `e` with `!below(e)`, where `below` is
  /// true for a prefix of the sequence.
  template <typename Below>
  [[nodiscard]] Pos lower_bound(Below below) const {
    const auto c = static_cast<std::size_t>(
        std::partition_point(last_.begin(), last_.end(), below) - last_.begin());
    if (c == chunks_.size()) return {c, 0};
    const Chunk& ch = *chunks_[c];
    return {c, static_cast<std::size_t>(
                   std::partition_point(ch.e, ch.e + ch.n, below) - ch.e)};
  }

  [[nodiscard]] bool at_end(Pos p) const { return p.chunk == chunks_.size(); }
  [[nodiscard]] const Entry& at(Pos p) const { return chunks_[p.chunk]->e[p.i]; }
  void advance(Pos& p) const {
    if (++p.i == chunks_[p.chunk]->n) {
      ++p.chunk;
      p.i = 0;
    }
  }

  /// Inserts `entry` before position `p` (as returned by `lower_bound`).
  void insert(Pos p, const Entry& entry) {
    if (at_end(p)) {
      if (chunks_.empty() || chunks_.back()->n == kCapacity) open_chunk(chunks_.size());
      p = {chunks_.size() - 1, chunks_.back()->n};
    } else if (chunks_[p.chunk]->n == kCapacity) {
      split(p.chunk);
      if (p.i > kCapacity / 2) {
        ++p.chunk;
        p.i -= kCapacity / 2;
      }
    }
    Chunk& ch = *chunks_[p.chunk];
    std::copy_backward(ch.e + p.i, ch.e + ch.n, ch.e + ch.n + 1);
    ch.e[p.i] = entry;
    ++ch.n;
    last_[p.chunk] = ch.e[ch.n - 1];
  }

  void erase(Pos p) {
    Chunk& ch = *chunks_[p.chunk];
    std::copy(ch.e + p.i + 1, ch.e + ch.n, ch.e + p.i);
    if (--ch.n == 0) {
      chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(p.chunk));
      last_.erase(last_.begin() + static_cast<std::ptrdiff_t>(p.chunk));
    } else {
      last_[p.chunk] = ch.e[ch.n - 1];
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& ch : chunks_) {
      for (std::size_t i = 0; i < ch->n; ++i) fn(ch->e[i]);
    }
  }

  void clear() {
    chunks_.clear();
    last_.clear();
  }

 private:
  // About 2 KiB per chunk.
  static constexpr std::size_t kCapacity = 2040 / sizeof(Entry);
  struct Chunk {
    std::size_t n = 0;
    Entry e[kCapacity];
  };

  void open_chunk(std::size_t at) {
    const auto off = static_cast<std::ptrdiff_t>(at);
    chunks_.insert(chunks_.begin() + off, std::make_unique<Chunk>());
    last_.insert(last_.begin() + off, Entry{});
  }

  void split(std::size_t c) {
    open_chunk(c + 1);
    Chunk& left = *chunks_[c];
    Chunk& right = *chunks_[c + 1];
    std::copy(left.e + kCapacity / 2, left.e + left.n, right.e);
    right.n = left.n - kCapacity / 2;
    left.n = kCapacity / 2;
    last_[c] = left.e[left.n - 1];
    last_[c + 1] = right.e[right.n - 1];
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<Entry> last_;  // last entry of each chunk: the inner level
};

}  // namespace detail

/// A table of `Row` keyed by a unique 64-bit primary key.
///
/// Secondary indexes must all be registered before the first insert (as
/// with a real DDL schema); violating this throws std::logic_error.  A
/// visitor's callback must not insert or erase rows of the table it walks.
template <typename Row>
class Table {
 public:
  using Key = std::uint64_t;
  using IndexId = std::size_t;

  explicit Table(std::function<Key(const Row&)> primary_key)
      : pk_(std::move(primary_key)) {}
  // Index entries point at this table's own rows, which a move carries
  // along and a copy would not.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  /// Registers a secondary index on a 64-bit attribute.
  IndexId add_index_u64(std::function<std::uint64_t(const Row&)> key_fn) {
    require_empty("add_index_u64");
    u64_indexes_.push_back(U64Index{std::move(key_fn), {}});
    return u64_indexes_.size() - 1;
  }

  /// Registers a secondary index on a string member of the row.  The index
  /// reads the key from the row itself, so it stores no copy of it.
  IndexId add_index_str(std::string Row::*member) {
    require_empty("add_index_str");
    str_indexes_.push_back(StrIndex{member, {}});
    return str_indexes_.size() - 1;
  }

  /// Inserts a row; returns false (and changes nothing) if the primary key
  /// already exists.
  bool insert(Row row) {
    const Key k = pk_(row);
    const auto p = primary_.lower_bound(pk_below(k));
    if (holds(p, k)) return false;
    add_row(p, k, std::move(row));
    return true;
  }

  /// Inserts or replaces by primary key.
  void upsert(Row row) {
    const Key k = pk_(row);
    const auto p = primary_.lower_bound(pk_below(k));
    if (!holds(p, k)) {
      add_row(p, k, std::move(row));
      return;
    }
    // In place, so the row keeps its slot: de-index under the old
    // attribute values before they are overwritten.
    Row& stored = *primary_.at(p).row;
    deindex_row(stored, k);
    stored = std::move(row);
    index_row(stored, k);
  }

  /// Point lookup by primary key; nullptr when absent.  The pointer stays
  /// valid until this row is erased or upserted.
  const Row* find(Key k) const {
    ++stats_.point_lookups;
    const auto p = primary_.lower_bound(pk_below(k));
    return holds(p, k) ? primary_.at(p).row : nullptr;
  }

  /// Erases by primary key; returns false when absent.
  bool erase(Key k) {
    const auto p = primary_.lower_bound(pk_below(k));
    if (!holds(p, k)) return false;
    Row* row = primary_.at(p).row;
    deindex_row(*row, k);
    primary_.erase(p);
    *row = Row{};  // frees what the row owns; the slot waits for reuse
    free_rows_.push_back(row);
    ++stats_.erases;
    return true;
  }

  /// Bulk load: inserts `rows` in order, skipping primary-key duplicates;
  /// returns the number actually inserted.  One batch, however many rows —
  /// the metadata-batching layer's amortized write path.
  std::size_t insert_bulk(std::vector<Row> rows) {
    ++stats_.bulk_batches;
    stats_.bulk_rows += rows.size();
    std::size_t n = 0;
    for (Row& row : rows) n += insert(std::move(row)) ? 1 : 0;
    return n;
  }

  /// Bulk upsert: inserts or replaces each row by primary key, in order.
  void upsert_bulk(std::vector<Row> rows) {
    ++stats_.bulk_batches;
    stats_.bulk_rows += rows.size();
    for (Row& row : rows) upsert(std::move(row));
  }

  /// Bulk erase by primary key; returns the number of rows removed.
  std::size_t erase_bulk(const std::vector<Key>& keys) {
    ++stats_.bulk_batches;
    stats_.bulk_rows += keys.size();
    std::size_t n = 0;
    for (const Key k : keys) n += erase(k) ? 1 : 0;
    return n;
  }

  /// All rows whose indexed attribute equals `value`, in primary-key order.
  std::vector<const Row*> lookup_u64(IndexId idx, std::uint64_t value) const {
    ++stats_.index_lookups;
    std::vector<const Row*> out;
    visit_u64(idx, value, [&](const Row& row) { out.push_back(&row); });
    return out;
  }

  std::vector<const Row*> lookup_str(IndexId idx, const std::string& value) const {
    ++stats_.index_lookups;
    std::vector<const Row*> out;
    visit_str(idx, value, [&](const Row& row) { out.push_back(&row); });
    return out;
  }

  /// Allocation-free visitor over the rows whose indexed attribute equals
  /// `value`, in primary-key order.  The hot-path alternative to
  /// materializing a `std::vector<const Row*>` per call.
  template <typename Fn>
  void for_each_u64(IndexId idx, std::uint64_t value, Fn&& fn) const {
    ++stats_.index_lookups;
    visit_u64(idx, value, std::forward<Fn>(fn));
  }

  template <typename Fn>
  void for_each_str(IndexId idx, const std::string& value, Fn&& fn) const {
    ++stats_.index_lookups;
    visit_str(idx, value, std::forward<Fn>(fn));
  }

  /// First matching row in primary-key order, or nullptr — the
  /// allocation-free point join (e.g. unique secondary keys).
  const Row* first_u64(IndexId idx, std::uint64_t value) const {
    return first_u64_if(idx, value, [](const Row&) { return true; });
  }

  /// As first_u64, skipping rows for which `pred` is false: a lookup by a
  /// hash of a key the row does not hold confirms each hit here.
  template <typename Pred>
  const Row* first_u64_if(IndexId idx, std::uint64_t value, Pred&& pred) const {
    ++stats_.index_lookups;
    const auto& entries = u64_indexes_.at(idx).entries;
    for (auto p = entries.lower_bound(u64_below(value, 0));
         !entries.at_end(p) && entries.at(p).value == value; entries.advance(p)) {
      const Row* row = row_of(entries.at(p).pk);
      if (pred(*row)) return row;
    }
    return nullptr;
  }

  const Row* first_str(IndexId idx, const std::string& value) const {
    ++stats_.index_lookups;
    const StrIndex& index = str_indexes_.at(idx);
    const auto p = index.entries.lower_bound(str_below(index.member, value, 0));
    if (index.entries.at_end(p)) return nullptr;
    const Row* row = index.entries.at(p).row;
    return row->*index.member == value ? row : nullptr;
  }

  /// All rows with indexed attribute in [lo, hi], ascending by attribute
  /// (ties broken by primary key).
  std::vector<const Row*> range_u64(IndexId idx, std::uint64_t lo,
                                    std::uint64_t hi) const {
    ++stats_.range_lookups;
    std::vector<const Row*> out;
    visit_range_u64(idx, lo, hi, [&](const Row& row) { out.push_back(&row); });
    return out;
  }

  /// Allocation-free range visitor: rows with attribute in [lo, hi],
  /// ascending by attribute (ties broken by primary key).
  template <typename Fn>
  void for_each_range(IndexId idx, std::uint64_t lo, std::uint64_t hi,
                      Fn&& fn) const {
    ++stats_.range_lookups;
    visit_range_u64(idx, lo, hi, std::forward<Fn>(fn));
  }

  /// Full-table scan with a predicate — the only query the un-exported TSM
  /// database supports.  Deliberately counts every row touched.
  std::vector<const Row*> scan(const std::function<bool(const Row&)>& pred) const {
    ++stats_.full_scans;
    std::vector<const Row*> out;
    primary_.for_each([&](const PkEntry& e) {
      ++stats_.rows_scanned;
      if (pred(*e.row)) out.push_back(e.row);
    });
    return out;
  }

  /// Visits every row in primary-key order (not counted as a scan; used
  /// for exports/backups).
  void for_each(const std::function<void(const Row&)>& fn) const {
    primary_.for_each([&](const PkEntry& e) { fn(*e.row); });
  }

  /// Drops every row (indexes stay registered).  Crash-recovery wipes a
  /// table before replaying the WAL image into it.
  void clear() {
    rows_.clear();
    free_rows_.clear();
    primary_.clear();
    for (auto& idx : u64_indexes_) idx.entries.clear();
    for (auto& idx : str_indexes_) idx.entries.clear();
  }

  [[nodiscard]] std::size_t size() const { return rows_.size() - free_rows_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const TableStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  // Every index is a sorted run of (attribute, primary key) entries:
  // equality walks yield primary-key order and range walks yield
  // (attribute, pk) order directly, and de-indexing erases the one exact
  // entry.  A string entry names its row, whose member is the attribute.
  struct PkEntry {
    Key pk = 0;
    Row* row = nullptr;
  };
  struct U64Entry {
    std::uint64_t value = 0;
    Key pk = 0;
  };
  struct StrEntry {
    const Row* row = nullptr;
    Key pk = 0;
  };
  struct U64Index {
    std::function<std::uint64_t(const Row&)> key_fn;
    detail::SortedChunks<U64Entry> entries;
  };
  struct StrIndex {
    std::string Row::*member = nullptr;
    detail::SortedChunks<StrEntry> entries;
  };
  using PkPos = typename detail::SortedChunks<PkEntry>::Pos;

  static auto pk_below(Key k) {
    return [k](const PkEntry& e) { return e.pk < k; };
  }
  static auto u64_below(std::uint64_t value, Key k) {
    return [value, k](const U64Entry& e) {
      return e.value < value || (e.value == value && e.pk < k);
    };
  }
  static auto str_below(std::string Row::*member, std::string_view value, Key k) {
    return [member, value, k](const StrEntry& e) {
      const int c = std::string_view(e.row->*member).compare(value);
      return c < 0 || (c == 0 && e.pk < k);
    };
  }

  [[nodiscard]] bool holds(PkPos p, Key k) const {
    return !primary_.at_end(p) && primary_.at(p).pk == k;
  }

  // The row behind an index entry's primary key, which must exist.
  const Row* row_of(Key k) const {
    return primary_.at(primary_.lower_bound(pk_below(k))).row;
  }

  template <typename Fn>
  void visit_u64(IndexId idx, std::uint64_t value, Fn&& fn) const {
    const auto& entries = u64_indexes_.at(idx).entries;
    for (auto p = entries.lower_bound(u64_below(value, 0));
         !entries.at_end(p) && entries.at(p).value == value; entries.advance(p)) {
      fn(*row_of(entries.at(p).pk));
    }
  }

  template <typename Fn>
  void visit_str(IndexId idx, const std::string& value, Fn&& fn) const {
    const StrIndex& index = str_indexes_.at(idx);
    for (auto p = index.entries.lower_bound(str_below(index.member, value, 0));
         !index.entries.at_end(p) && index.entries.at(p).row->*index.member == value;
         index.entries.advance(p)) {
      fn(*index.entries.at(p).row);
    }
  }

  template <typename Fn>
  void visit_range_u64(IndexId idx, std::uint64_t lo, std::uint64_t hi,
                       Fn&& fn) const {
    const auto& entries = u64_indexes_.at(idx).entries;
    for (auto p = entries.lower_bound(u64_below(lo, 0));
         !entries.at_end(p) && entries.at(p).value <= hi; entries.advance(p)) {
      fn(*row_of(entries.at(p).pk));
    }
  }

  void require_empty(const char* op) const {
    if (!empty()) {
      throw std::logic_error(std::string(op) + " after rows were inserted");
    }
  }

  void add_row(PkPos p, Key k, Row&& row) {
    Row* placed = nullptr;
    if (free_rows_.empty()) {
      placed = &rows_.emplace_back(std::move(row));
    } else {
      placed = free_rows_.back();
      free_rows_.pop_back();
      *placed = std::move(row);
    }
    primary_.insert(p, {k, placed});
    index_row(*placed, k);
    ++stats_.inserts;
  }

  void index_row(const Row& row, Key k) {
    for (auto& idx : u64_indexes_) {
      const std::uint64_t v = idx.key_fn(row);
      idx.entries.insert(idx.entries.lower_bound(u64_below(v, k)), {v, k});
    }
    for (auto& idx : str_indexes_) {
      idx.entries.insert(
          idx.entries.lower_bound(str_below(idx.member, row.*idx.member, k)),
          {&row, k});
    }
  }

  void deindex_row(const Row& row, Key k) {
    for (auto& idx : u64_indexes_) {
      idx.entries.erase(idx.entries.lower_bound(u64_below(idx.key_fn(row), k)));
    }
    for (auto& idx : str_indexes_) {
      idx.entries.erase(
          idx.entries.lower_bound(str_below(idx.member, row.*idx.member, k)));
    }
  }

  std::function<Key(const Row&)> pk_;
  // Row storage: a deque only ever appends here, so its fixed-size blocks
  // never move a row, and an erased row's slot is reset and reused.
  std::deque<Row> rows_;
  std::vector<Row*> free_rows_;
  detail::SortedChunks<PkEntry> primary_;
  std::vector<U64Index> u64_indexes_;
  std::vector<StrIndex> str_indexes_;
  mutable TableStats stats_;
};

}  // namespace cpa::metadb
