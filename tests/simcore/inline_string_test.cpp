#include "simcore/inline_string.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/rng.hpp"

namespace cpa::sim {
namespace {

static_assert(sizeof(InlineString<16>) == 16);
static_assert(sizeof(InlineString<32>) == 32);
static_assert(std::is_convertible_v<InlineString<32>, std::string_view>);
static_assert(!std::is_convertible_v<InlineString<32>, std::string>);
static_assert(std::is_constructible_v<std::string, InlineString<32>>);

// A random string of `len` bytes over an alphabet that includes NUL and
// bytes >= 0x80, so equality and ordering see embedded NULs and the
// signed/unsigned char boundary.
std::string random_bytes(Rng& rng, std::size_t len) {
  static constexpr char kAlphabet[] = {'\0', '\x01', '/', 'a', 'b',
                                       'z',  '\x7f', '\x80', '\xc3', '\xff'};
  std::string s(len, '\0');
  for (char& c : s) c = kAlphabet[rng.uniform_u64(0, sizeof(kAlphabet) - 1)];
  return s;
}

// A length in 0..N+8; N-1, N and N+1 (the inline boundary) come up often.
template <std::size_t N>
std::size_t random_length(Rng& rng) {
  if (rng.chance(0.4)) return N - 2 + rng.uniform_u64(1, 3);
  return rng.uniform_u64(0, N + 8);
}

template <std::size_t N>
void expect_matches(const InlineString<N>& s, const std::string& model,
                    const InlineString<N>& other, const std::string& other_model) {
  ASSERT_EQ(s.view(), std::string_view(model));
  ASSERT_EQ(s.size(), model.size());
  ASSERT_EQ(s.empty(), model.empty());
  ASSERT_EQ(std::string(s), model);
  ASSERT_EQ(s == other, model == other_model);
  ASSERT_EQ(s == std::string_view(other_model), model == other_model);
  ASSERT_EQ(s <=> other, std::string_view(model) <=> std::string_view(other_model));
  ASSERT_EQ(s <=> std::string_view(other_model),
            std::string_view(model) <=> std::string_view(other_model));
  ASSERT_EQ(s < other, model < other_model);
}

// Every op on a small pool of values, mirrored on std::string models.
template <std::size_t N>
void run_random_ops(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<InlineString<N>> vals(4);
  std::vector<std::string> models(4);
  std::vector<std::size_t> lengths_seen;
  for (int op = 0; op < 2000; ++op) {
    const std::size_t i = rng.uniform_u64(0, vals.size() - 1);
    const std::size_t j = rng.uniform_u64(0, vals.size() - 1);
    switch (rng.uniform_u64(0, 8)) {
      case 0: {  // assign from a view
        const std::string s = random_bytes(rng, random_length<N>(rng));
        vals[i] = std::string_view(s);
        models[i] = s;
        break;
      }
      case 1: {  // assign from a std::string
        const std::string s = random_bytes(rng, random_length<N>(rng));
        vals[i] = s;
        models[i] = s;
        break;
      }
      case 2: {  // assign from a const char* (stops at its first NUL)
        const std::string s = random_bytes(rng, random_length<N>(rng));
        vals[i] = s.c_str();
        models[i] = std::string(s.c_str());
        break;
      }
      case 3:  // copy-assign, i == j included
        vals[i] = vals[j];
        models[i] = models[j];
        break;
      case 4: {  // copy-construct
        InlineString<N> copy(vals[j]);
        vals[i] = std::move(copy);
        models[i] = models[j];
        ASSERT_TRUE(copy.empty());
        break;
      }
      case 5:  // move-assign; the source is left empty
        if (i == j) break;
        vals[i] = std::move(vals[j]);
        models[i] = std::move(models[j]);
        models[j].clear();
        ASSERT_TRUE(vals[j].empty());
        break;
      case 6: {  // move-construct
        InlineString<N> moved(std::move(vals[j]));
        ASSERT_TRUE(vals[j].empty());
        const std::string model = std::move(models[j]);
        models[j].clear();
        vals[i] = moved;
        models[i] = model;
        break;
      }
      case 7: {  // self-assignment, copy and move
        InlineString<N>& v = vals[i];
        v = *&v;
        v = std::move(*&v);
        break;
      }
      case 8: {  // assign a piece of itself
        const std::size_t at = rng.uniform_u64(0, models[i].size());
        vals[i].assign(vals[i].view().substr(at));
        models[i] = models[i].substr(at);
        break;
      }
    }
    for (std::size_t k = 0; k < vals.size(); ++k) {
      expect_matches(vals[k], models[k], vals[i], models[i]);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " N " << N << " op " << op << " value " << k;
      }
    }
    lengths_seen.push_back(models[i].size());
  }
  for (const std::size_t boundary : {N - 1, N, N + 1}) {
    EXPECT_NE(std::find(lengths_seen.begin(), lengths_seen.end(), boundary),
              lengths_seen.end())
        << "seed " << seed << " never held a string of " << boundary << " bytes";
  }
}

TEST(InlineString, MatchesStdStringUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    run_random_ops<16>(seed);
    run_random_ops<32>(seed);
  }
}

template <std::size_t N>
bool in_place(const InlineString<N>& s) {
  const auto* obj = reinterpret_cast<const char*>(&s);
  return s.data() >= obj && s.data() + s.size() <= obj + sizeof(s);
}

template <std::size_t N>
void check_storage() {
  std::string bytes;
  for (std::size_t len = 0; len <= N + 1; ++len) {
    InlineString<N> s(bytes);
    EXPECT_EQ(in_place(s), len < N) << "N " << N << " length " << len;
    const InlineString<N> copy = s;
    EXPECT_EQ(in_place(copy), len < N) << "N " << N << " length " << len;
    InlineString<N> moved = std::move(s);
    EXPECT_EQ(moved.view(), bytes);
    EXPECT_TRUE(s.empty());
    bytes += static_cast<char>(len % 3 == 0 ? '\0' : 'a' + len % 26);
  }
}

TEST(InlineString, ShortStringsLiveInsideTheObject) {
  check_storage<16>();
  check_storage<32>();
}

}  // namespace
}  // namespace cpa::sim
