// A string kept in place.  std::string takes 32 bytes but holds at most 15
// of them inline, so a 16-31-byte catalog path is a heap chunk of its own,
// and a short inode name still pays 32 bytes.  Per-file records use this
// type instead, sized to the strings they hold.
#pragma once

#include <compare>
#include <cstddef>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>

namespace cpa::sim {

/// A string that takes N bytes, keeps up to N - 1 of them in place, and
/// puts only a longer string on the heap, in one block holding its length
/// and bytes.  Equality and ordering are byte-wise, exactly those of
/// std::string_view; embedded NUL bytes are kept.  It converts implicitly
/// to std::string_view, and to std::string only explicitly.  Copy, move
/// and self-assignment work; a moved-from value is empty.
template <std::size_t N>
class InlineString {
  // Byte N - 1 tags the representation: kHeap, or N - 1 - size for a
  // string in place (so it is 0, a terminator, when the string is full).
  static_assert(N > sizeof(char*) && N < 0xFF, "N must fit a pointer and a tag");
  static constexpr unsigned char kHeap = 0xFF;

  template <typename S>
  static constexpr bool kText = std::is_convertible_v<const S&, std::string_view> &&
                                !std::is_same_v<S, InlineString>;

 public:
  InlineString() noexcept { set_inline_size(0); }
  template <typename S>
    requires kText<S>
  explicit InlineString(const S& s) : InlineString() {
    assign(std::string_view(s));
  }
  InlineString(const InlineString& other) : InlineString() { assign(other.view()); }
  InlineString(InlineString&& other) noexcept { take(other); }
  ~InlineString() { release(); }

  InlineString& operator=(const InlineString& other) {
    if (this != &other) assign(other.view());
    return *this;
  }
  InlineString& operator=(InlineString&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  template <typename S>
    requires kText<S>
  InlineString& operator=(const S& s) {
    assign(std::string_view(s));
    return *this;
  }

  /// Replaces the contents with `s`, which may point into this string.
  void assign(std::string_view s) {
    char* const old = on_heap() ? block() : nullptr;
    if (s.size() < N) {
      if (!s.empty()) std::memmove(buf_, s.data(), s.size());
      set_inline_size(s.size());
    } else {
      const std::size_t n = s.size();
      char* const b = static_cast<char*>(::operator new(sizeof n + n));
      std::memcpy(b, &n, sizeof n);
      std::memcpy(b + sizeof n, s.data(), n);
      std::memcpy(buf_, &b, sizeof b);
      buf_[N - 1] = static_cast<char>(kHeap);
    }
    ::operator delete(old);  // only now: `s` may have pointed into it
  }

  [[nodiscard]] std::string_view view() const noexcept {
    if (on_heap()) return {block() + sizeof(std::size_t), heap_size()};
    return {buf_, inline_size()};
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::string_view() const noexcept { return view(); }
  [[nodiscard]] const char* data() const noexcept { return view().data(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return on_heap() ? heap_size() : inline_size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  friend bool operator==(const InlineString& a, const InlineString& b) noexcept {
    return a.view() == b.view();
  }
  friend bool operator==(const InlineString& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend std::strong_ordering operator<=>(const InlineString& a,
                                          const InlineString& b) noexcept {
    return a.view() <=> b.view();
  }
  friend std::strong_ordering operator<=>(const InlineString& a,
                                          std::string_view b) noexcept {
    return a.view() <=> b;
  }

 private:
  [[nodiscard]] bool on_heap() const noexcept {
    return static_cast<unsigned char>(buf_[N - 1]) == kHeap;
  }
  [[nodiscard]] std::size_t inline_size() const noexcept {
    return N - 1 - static_cast<unsigned char>(buf_[N - 1]);
  }
  [[nodiscard]] char* block() const noexcept {
    char* b = nullptr;
    std::memcpy(&b, buf_, sizeof b);
    return b;
  }
  [[nodiscard]] std::size_t heap_size() const noexcept {
    std::size_t n = 0;
    std::memcpy(&n, block(), sizeof n);
    return n;
  }
  void set_inline_size(std::size_t n) noexcept {
    buf_[N - 1] = static_cast<char>(N - 1 - n);
  }
  void release() noexcept {
    if (on_heap()) ::operator delete(block());
  }
  /// Takes `other`'s bytes (and heap block), leaving it empty.
  void take(InlineString& other) noexcept {
    std::memcpy(buf_, other.buf_, N);
    other.set_inline_size(0);
  }

  alignas(char*) char buf_[N] = {};
};

}  // namespace cpa::sim
