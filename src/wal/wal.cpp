#include "wal/wal.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace cpa::wal {
namespace {

// Slice-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320.
// t[0] is the classic byte-at-a-time table; t[k][i] is the CRC register
// after byte i is followed by k zero bytes, so eight lookups fold eight
// input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const char* p) {
  const auto b = [p](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void SimBlockDevice::flush(std::function<void()> done) {
  const std::uint64_t target = trimmed_ + data_.size();
  const std::uint64_t gen = gen_;
  sim_.after(flush_latency_, [this, gen, target, done = std::move(done)] {
    if (gen != gen_) return;  // power was lost before the fsync returned
    durable_ = std::max(durable_, target);
    done();
  });
}

void SimBlockDevice::tear(double tail_fraction) {
  const std::uint64_t base = std::max(durable_, trimmed_);
  const std::uint64_t tail = trimmed_ + data_.size() - base;
  const auto keep = static_cast<std::uint64_t>(
      static_cast<double>(tail) * tail_fraction);
  data_.resize((base - trimmed_) + std::min(keep, tail));
  durable_ = trimmed_ + data_.size();
  ++gen_;
}

void SimBlockDevice::truncate_back(std::uint64_t keep) {
  if (keep >= data_.size()) return;
  data_.resize(keep);
  durable_ = std::min(durable_, trimmed_ + keep);
}

void SimBlockDevice::truncate_front(std::uint64_t bytes) {
  bytes = std::min<std::uint64_t>(bytes, data_.size());
  data_.erase(0, bytes);
  trimmed_ += bytes;
  durable_ = std::max(durable_, trimmed_);
}

WalWriter::WalWriter(sim::Simulation& sim, WalConfig cfg, obs::Observer& obs)
    : sim_(sim),
      cfg_(cfg),
      obs_(obs),
      dev_(sim, cfg.flush_latency),
      c_records_(obs.metrics().counter("wal.records")),
      c_appended_bytes_(obs.metrics().counter("wal.appended_bytes")),
      c_flushes_(obs.metrics().counter("wal.flushes")),
      s_flush_batch_(obs.metrics().stats("wal.flush_batch_size")) {}

void WalWriter::append_record(std::string_view payload) {
  char header[8];
  store_le32(header, static_cast<std::uint32_t>(payload.size()));
  store_le32(header + 4, crc32(payload.data(), payload.size()));
  dev_.append(std::string_view(header, sizeof(header)));
  dev_.append(payload);
  const std::uint64_t frame = sizeof(header) + payload.size();
  bytes_since_checkpoint_ += frame;
  ++records_;
  c_records_.inc();
  c_appended_bytes_.add(frame);
  maybe_auto_checkpoint();
}

void WalWriter::sync(std::function<void()> done) {
  waiters_.push_back(std::move(done));
  if (!flush_running_) start_flush();
}

void WalWriter::start_flush() {
  flush_running_ = true;
  in_flight_ = std::move(waiters_);
  waiters_.clear();
  const std::uint64_t gen = gen_;
  const obs::SpanId sp = obs_.trace().begin_lane(
      obs::Component::Wal, "wal", "flush", sim_.now());
  dev_.flush([this, gen, sp] {
    obs_.trace().end(sp, sim_.now());
    if (gen != gen_) return;
    flush_running_ = false;
    c_flushes_.inc();
    s_flush_batch_.add(static_cast<double>(in_flight_.size()));
    // Fire off a local copy: a waiter may append + sync again re-entrantly.
    std::vector<std::function<void()>> batch = std::move(in_flight_);
    in_flight_.clear();
    for (auto& fn : batch) fn();
    if (!waiters_.empty() && !flush_running_) start_flush();
  });
}

void WalWriter::maybe_auto_checkpoint() {
  if (cfg_.checkpoint_bytes == 0 || checkpoint_running_) return;
  if (bytes_since_checkpoint_ < cfg_.checkpoint_bytes) return;
  checkpoint();
}

void WalWriter::checkpoint() {
  if (checkpoint_running_ || !checkpoint_source_) return;
  checkpoint_running_ = true;
  // Snapshot now: the blob describes every record currently in the log
  // (listeners append after the in-memory apply), so on durable install
  // the current log prefix becomes redundant.
  std::string blob = checkpoint_source_();
  const std::uint64_t mark = dev_.size();
  const sim::Tick cost =
      cfg_.flush_latency +
      sim::secs(static_cast<double>(blob.size()) / cfg_.log_bytes_per_sec);
  const std::uint64_t gen = gen_;
  const obs::SpanId sp = obs_.trace().begin_lane(
      obs::Component::Wal, "wal", "checkpoint", sim_.now());
  sim_.after(cost, [this, gen, sp, mark, blob = std::move(blob)]() mutable {
    obs_.trace().end(sp, sim_.now());
    if (gen != gen_) return;  // crashed mid-install: old checkpoint stands
    checkpoint_running_ = false;
    checkpoint_ = std::move(blob);
    dev_.truncate_front(mark);
    bytes_since_checkpoint_ = dev_.size();
    obs_.metrics().counter("wal.checkpoints").inc();
    obs_.metrics().counter("wal.truncated_bytes").add(mark);
  });
}

void WalWriter::crash(std::uint64_t seed) {
  const double frac =
      static_cast<double>(splitmix64(seed) >> 11) * 0x1.0p-53;
  dev_.tear(frac);
  waiters_.clear();
  in_flight_.clear();
  flush_running_ = false;
  checkpoint_running_ = false;
  bytes_since_checkpoint_ = dev_.size();
  ++gen_;
}

void WalWriter::trim_torn_tail(std::uint64_t valid_bytes) {
  if (valid_bytes >= dev_.size()) return;
  obs_.metrics().counter("wal.torn_bytes").add(dev_.size() - valid_bytes);
  dev_.truncate_back(valid_bytes);
  bytes_since_checkpoint_ = std::min(bytes_since_checkpoint_, dev_.size());
}

std::uint64_t WalReader::replay(
    std::string_view log, const std::function<void(std::string_view)>& fn,
    std::uint64_t* valid_bytes) {
  std::uint64_t applied = 0;
  std::size_t off = 0;
  while (log.size() - off >= 8) {
    const std::uint32_t len = get_u32(log.data() + off);
    const std::uint32_t want = get_u32(log.data() + off + 4);
    if (log.size() - off - 8 < len) break;  // torn mid-payload
    const std::string_view payload = log.substr(off + 8, len);
    if (crc32(payload.data(), payload.size()) != want) break;
    fn(payload);
    ++applied;
    off += 8 + len;
  }
  if (valid_bytes != nullptr) *valid_bytes = off;
  return applied;
}

}  // namespace cpa::wal
