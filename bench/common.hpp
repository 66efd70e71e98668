// Shared output and command-line helpers for the bench binaries.
//
// `paper_check` prints the series and rows of every simulated experiment
// and checks each row's claim (bench/ledger.hpp).  `host_check` runs the
// experiments that measure host cost (wall-clock, heap bytes); each prints
// its own table and writes one flat record per row.
// Absolute equality with the paper's testbed is not expected; the *shape*
// (who wins, by what factor, where crossovers fall) is the reproduction
// target.
#pragma once

#include <malloc.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cpa::bench {

inline void header(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n-- %s --\n", name.c_str());
}

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Live heap bytes (glibc mallinfo2: in-use arena and mmapped blocks).
/// The difference across a build step is what that step keeps.
inline std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// "part of whole", e.g. "10 of 10".
inline std::string of(std::uint64_t part, std::uint64_t whole) {
  return std::to_string(part) + " of " + std::to_string(whole);
}

/// Parses all of `text` as a decimal number into `out`.  False, with `out`
/// untouched, on empty input, trailing characters or overflow (strtoull
/// reads "abc" as 0 and "12x" as 12).
template <typename T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

/// The command line of a bench main.  Each flag is a switch (`--smoke`) or
/// takes a value (`--json=FILE`) and writes straight into the caller's
/// variable; the usage line lists them in declaration order.  parse()
/// refuses an unknown flag, a switch given a value, a value flag without
/// one and a malformed number: it prints the usage line and exits 2
/// before any work starts.
class Cli {
 public:
  explicit Cli(const char* argv0) : usage_(std::string("usage: ") + argv0) {}

  Cli& toggle(const char* flag, bool& out) {
    return add(flag, "", [&out](std::string_view) {
      out = true;
      return true;
    });
  }
  Cli& text(const char* flag, const char* meta, std::string& out) {
    return add(flag, meta, [&out](std::string_view v) {
      out = v;
      return true;
    });
  }
  template <typename T>
  Cli& number(const char* flag, const char* meta, T& out) {
    return add(flag, meta,
               [&out](std::string_view v) { return parse_number(v, out); });
  }

  void parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const std::size_t eq = arg.find('=');
      const Flag* flag = nullptr;
      for (const Flag& f : flags_) {
        if (f.name == arg.substr(0, eq)) flag = &f;
      }
      const bool has_value = eq != std::string_view::npos;
      if (flag == nullptr || has_value == flag->meta.empty() ||
          !flag->apply(has_value ? arg.substr(eq + 1) : arg)) {
        fail("bad argument: " + std::string(arg));
      }
    }
  }

  /// Prints `why` and the usage line, and exits 2.
  [[noreturn]] void fail(const std::string& why) const {
    std::fprintf(stderr, "%s\n%s\n", why.c_str(), usage_.c_str());
    std::exit(2);
  }

 private:
  struct Flag {
    std::string name, meta;  // meta is empty for a switch
    std::function<bool(std::string_view)> apply;
  };

  Cli& add(const char* flag, const char* meta,
           std::function<bool(std::string_view)> apply) {
    flags_.push_back({flag, meta, std::move(apply)});
    usage_ += std::string(" [") + flag + (*meta != 0 ? "=" : "") + meta + "]";
    return *this;
  }

  std::string usage_;
  std::vector<Flag> flags_;
};

}  // namespace cpa::bench
