// Restart-able file transfer (Sec 4.5).
//
// "What about restarting a 40 Terabyte file, we don't want to start it
//  from the beginning.  To get around this, we mark regular file chunks or
//  FUSE file chunks as good or bad so that we don't have to re-send known
//  good chunks.  This is a unique incremental parallel archive feature."
//
// The journal records per-destination chunk completion.  A restarted
// transfer asks `pending()` and re-sends only those chunks.  `serialize` /
// `parse` give the thread-based engine durable journals on disk.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cpa::pftool {

class RestartJournal {
 public:
  struct Entry {
    std::uint64_t file_size = 0;
    std::uint64_t chunk_count = 0;
    std::vector<bool> good;
  };

  /// Mutation ops reported to the durability listener (WAL redo records).
  enum class Op : char { Begin = 'b', Good = 'g', Bad = 'x', Forget = 'f' };

  /// Fired after every in-memory mutation: (op, dst, a, b) where a/b are
  /// (size, chunk_count) for Begin and (chunk, 0) for Good/Bad.  All four
  /// ops are idempotent, so redo replay may apply them repeatedly.
  using MutationHook =
      std::function<void(Op, const std::string&, std::uint64_t, std::uint64_t)>;
  void set_mutation_hook(MutationHook hook) { hook_ = std::move(hook); }

  /// Crash wipe before checkpoint-load + log replay.
  void clear() { entries_.clear(); }

  /// Registers (or resets) a transfer.  Existing good marks for the same
  /// destination are preserved only when size and chunk count still match
  /// — a changed source invalidates the journal.
  void begin(const std::string& dst, std::uint64_t file_size,
             std::uint64_t chunk_count);

  void mark_good(const std::string& dst, std::uint64_t chunk);
  void mark_bad(const std::string& dst, std::uint64_t chunk);

  /// Chunks still needing transfer, ascending.
  [[nodiscard]] std::vector<std::uint64_t> pending(const std::string& dst) const;
  [[nodiscard]] bool complete(const std::string& dst) const;
  [[nodiscard]] bool known(const std::string& dst) const;
  [[nodiscard]] std::uint64_t good_count(const std::string& dst) const;

  /// Removes a finished transfer's record.
  void forget(const std::string& dst);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Line-oriented text form: "dst|size|count|bitmap".
  [[nodiscard]] std::string serialize() const;
  static std::optional<RestartJournal> parse(const std::string& text);

  /// One line of `serialize`, viewed in place.
  struct Line {
    std::string_view dst;
    std::uint64_t size = 0;
    std::uint64_t count = 0;
    std::string_view bitmap;
  };
  /// Splits one line (without its newline).  Bitmap, count and size are
  /// read from the right, so a destination may contain '|'.  False unless
  /// both numbers parse whole and the bitmap spells exactly `count` chunks
  /// in '0' and '1'.
  static bool parse_line(std::string_view text, Line& out);

 private:
  std::map<std::string, Entry> entries_;
  MutationHook hook_;
};

}  // namespace cpa::pftool
