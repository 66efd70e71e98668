// Shared types for the parallel file system model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace cpa::pfs {

using InodeId = std::uint64_t;
inline constexpr InodeId kInvalidInode = 0;

/// GPFS-style unique file id: inode number plus generation, which the
/// synchronous deleter (Sec 4.2.6) joins against the TSM export.  The
/// model never reuses an inode number, so a live file's generation is its
/// inode number, and an id with any other generation is stale.
struct FileId {
  InodeId inode = kInvalidInode;
  std::uint64_t gen = 0;
  [[nodiscard]] bool valid() const { return inode != kInvalidInode; }
  /// Packed form used as a database key.
  [[nodiscard]] std::uint64_t packed() const { return inode * 1'000'003ULL + gen; }
  friend bool operator==(const FileId&, const FileId&) = default;
};

enum class FileKind : std::uint8_t { Regular, Directory };

/// DMAPI-managed data residency (Sec 4.2.2): Resident data lives in a disk
/// pool; Premigrated has a tape copy while the disk copy remains; Migrated
/// has been punched to a stub — reads must trigger a recall.
enum class DmapiState : std::uint8_t { Resident, Premigrated, Migrated };

[[nodiscard]] const char* to_string(DmapiState s);
[[nodiscard]] const char* to_string(FileKind k);

enum class Errc : std::uint8_t {
  Ok,
  NotFound,
  Exists,
  NotADirectory,
  IsADirectory,
  NotEmpty,
  NoSpace,
  Stale,        // FileId generation mismatch
  InvalidArgument,
  Offline,      // data is on tape and auto-recall is disabled
};

[[nodiscard]] const char* to_string(Errc e);

/// Minimal result type: either a value or an error code.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Errc err) : err_(err) {}                // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return err_ == Errc::Ok; }
  [[nodiscard]] Errc error() const { return err_; }
  [[nodiscard]] const T& value() const& { return *value_; }
  [[nodiscard]] T& value() & { return *value_; }
  /// Rvalue overload returns by value so `f().value()` never dangles
  /// (e.g. in a range-for over a temporary Result).
  [[nodiscard]] T value() && { return std::move(*value_); }
  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }
  explicit operator bool() const { return ok(); }

 private:
  std::optional<T> value_;
  Errc err_ = Errc::Ok;
};

}  // namespace cpa::pfs
