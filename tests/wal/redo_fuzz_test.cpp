// Deterministic mutation fuzz of the redo decoder.  Valid payloads of every
// record kind are truncated at every byte, bit-flipped at every bit, have
// each digit swapped for a letter, sign or blank, each field dropped or
// repeated, and are spliced with each other; every mutant goes to the
// decoder directly, as a CRC-valid frame would deliver it.  A mutant must
// either be skipped, leaving the stores as they were, or apply exactly as
// the valid record it decodes to, and the record after it must still
// replay.  A second pass corrupts frame headers in a whole log image and
// replays it through WalReader.  No libFuzzer: fixed seeds, so a failure
// names its mutant and repeats.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "hsm/server.hpp"
#include "integrity/fixity.hpp"
#include "mutants.hpp"
#include "obs/observer.hpp"
#include "pftool/core/restart_journal.hpp"
#include "simcore/flow_network.hpp"
#include "wal/durable.hpp"
#include "wal/record.hpp"
#include "wal/wal.hpp"

namespace cpa::wal {
namespace {

// One valid payload of each shape the encoders write.
const std::vector<std::string>& valid_payloads() {
  static const std::vector<std::string> payloads = {
      "O 0 1 11 4096 77 3 5 0 0 /arch/a%20b%25c grp%20x - -",
      "O 0 2 0 8192 0 3 6 0 0 %- %- 3,4 5:6,7:8",
      "O 0 3 13 4096 78 3 6 2 0 /arch/m0 %- - -",
      "O 0 4 14 4096 79 3 6 2 4096 /arch/m1 %- - -",
      "O 1 9 19 1 2 3 4 0 0 /arch/other g - 9:1",
      // A 40-byte path: past the 31 bytes a catalog row keeps in place.
      "O 1 5 15 4096 80 3 7 0 0 /arch/campaign/job0042/chunk/file0000017 %- - -",
      "N 0 10",
      "N 1 20",
      "F 1 1 3 5 4096 18446744073709551615 0 0",
      "F 2 2 7 8 8192 12345 1 1",
      "E 1",
      "D 0 3",
      "D 1 9",
      "J b /arch/j%201 4096 3",
      "J g /arch/j%201 1 0",
      "J x /arch/j%201 1 0",
      "J f /arch/gone 0 0",
      "K /arch/p|q|100|2|01",
      "K /arch/empty|0|1|0",
  };
  return payloads;
}

// Two catalog servers, the fixity table and a restart journal behind one
// Durable, loaded with every valid payload.
struct Stores {
  Stores()
      : net(sim),
        s0(sim, net, "tsm0", hsm::ServerConfig{}),
        s1(sim, net, "tsm1", hsm::ServerConfig{}) {
    durable.attach_server(0, s0);
    durable.attach_server(1, s1);
    durable.attach_fixity(fixity);
    durable.attach_journal(journal);
    for (const std::string& p : valid_payloads()) {
      EXPECT_TRUE(durable.apply(p)) << p;
    }
  }

  // Every store's whole state, in the encoders' own words.
  std::string image() const {
    std::string out;
    const hsm::ArchiveServer* servers[] = {&s0, &s1};
    for (std::uint64_t i = 0; i < 2; ++i) {
      const hsm::ArchiveServer& srv = *servers[i];
      srv.for_each_object([&](const hsm::ArchiveObject& o) {
        put_object(out, i, o, srv.group_name(o.group), srv.links(o.object_id));
        out += '\n';
      });
      put_next_id(out, i, srv.next_object_id());
      out += '\n';
    }
    fixity.for_each([&](const integrity::FixityRow& r) {
      put_fixity(out, r);
      out += '\n';
    });
    return out + journal.serialize();
  }

  sim::Simulation sim;
  sim::FlowNetwork net;
  obs::Observer obs;
  hsm::ArchiveServer s0;
  hsm::ArchiveServer s1;
  integrity::FixityDb fixity;
  pftool::RestartJournal journal;
  Durable durable{sim, WalConfig{}, obs};
};

// `r` as the put_* encoder of its kind writes it.  A value outside what
// the stores can hand an encoder (an op or status no enumerator names) is
// a decoder fault.
std::string encode(const Record& r) {
  using Op = pftool::RestartJournal::Op;
  std::string out;
  switch (r.kind) {
    case 'O': put_object(out, r.server, r.object, r.group, r.links); break;
    case 'D': put_delete(out, r.server, r.id); break;
    case 'N': put_next_id(out, r.server, r.id); break;
    case 'F':
      EXPECT_TRUE(r.fixity.status == integrity::FixityStatus::Ok ||
                  r.fixity.status == integrity::FixityStatus::Unrepairable);
      put_fixity(out, r.fixity);
      break;
    case 'E': put_fixity_erase(out, r.id); break;
    case 'J':
      EXPECT_TRUE(r.op == Op::Begin || r.op == Op::Good || r.op == Op::Bad ||
                  r.op == Op::Forget)
          << "op " << static_cast<char>(r.op);
      put_journal(out, r.op, r.dst, r.a, r.b);
      break;
    case 'K':
      put_journal_line(out, r.dst + "|" + std::to_string(r.a) + "|" +
                                std::to_string(r.b) + "|" + r.bitmap);
      break;
    default: ADD_FAILURE() << "decoded an unknown kind " << r.kind;
  }
  return out;
}

// Replayed after every mutant: it must land whatever came before it.
constexpr std::string_view kNeighbour =
    "O 0 700 70 1 1 1 1 0 0 /arch/neighbour %- - -";

TEST(RedoFuzz, MutatedPayloadsApplyAsAValidRecordOrNotAtAll) {
  std::uint64_t rng = 0x243F6A8885A308D3ULL;
  std::uint64_t mutants = 0;
  std::uint64_t decoded = 0;
  const std::string base_image = Stores().image();
  for (const std::string& p : valid_payloads()) {
    Stores skipped;  // this payload's rejected mutants; none may touch it
    for (const std::string& m : fuzz::mutants_of(p, valid_payloads(), " |", rng)) {
      ++mutants;
      Record r;
      bool ok = false;
      ASSERT_NO_THROW(ok = decode(m, r)) << m;
      if (!ok) {
        bool applied = true;
        ASSERT_NO_THROW(applied = skipped.durable.apply(m)) << m;
        ASSERT_FALSE(applied) << m;
        ASSERT_EQ(skipped.image(), base_image) << "rejected mutant changed state: " << m;
        continue;
      }
      ++decoded;
      // What it decoded to is a valid record: it encodes, and that
      // encoding decodes back to itself.
      const std::string canonical = encode(r);
      Record again;
      ASSERT_TRUE(decode(canonical, again)) << m << " -> " << canonical;
      ASSERT_EQ(encode(again), canonical) << m;
      // And the mutant applies exactly as that record does, after which
      // the next record still replays.
      Stores via_mutant;
      Stores via_canonical;
      ASSERT_TRUE(via_mutant.durable.apply(m)) << m;
      ASSERT_TRUE(via_canonical.durable.apply(canonical)) << canonical;
      ASSERT_TRUE(via_mutant.durable.apply(kNeighbour)) << m;
      ASSERT_TRUE(via_canonical.durable.apply(kNeighbour)) << canonical;
      ASSERT_EQ(via_mutant.image(), via_canonical.image()) << m;
      ASSERT_NE(via_mutant.s0.object(700), nullptr) << m;
    }
    // The rejects left `skipped` alone, so its next record still lands.
    ASSERT_TRUE(skipped.durable.apply(kNeighbour));
    ASSERT_NE(skipped.s0.object(700), nullptr);
  }
  // 7,492 mutants, 2,000 of them records a valid encoding also writes.
  EXPECT_GT(mutants, 6000u);
  EXPECT_GT(decoded, 1000u);
  EXPECT_GT(mutants - decoded, 4000u);
}

// A frame as WalWriter lays it down: [len][crc32(payload)][payload].
std::string frame(std::string_view payload) {
  std::string out;
  for (const std::uint32_t v :
       {static_cast<std::uint32_t>(payload.size()),
        crc32(payload.data(), payload.size())}) {
    for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out += payload;
  return out;
}

// Whole images: every frame header corrupted in turn (lengths too short,
// too long, huge, zero; every CRC bit).  Replay must deliver the intact
// frames before the corrupt one, stop there, and never read past the image.
TEST(RedoFuzz, CorruptFrameHeadersStopReplayAtTheFrame) {
  const std::vector<std::string>& payloads = valid_payloads();
  std::string log;
  std::vector<std::size_t> starts;
  for (const std::string& p : payloads) {
    starts.push_back(log.size());
    log += frame(p);
  }
  const Stores full;
  std::uint64_t images = 0;
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    const std::size_t at = starts[k];
    const auto len = static_cast<std::uint32_t>(payloads[k].size());
    std::vector<std::string> corrupt;
    for (const std::uint32_t bad :
         {0u, 1u, len - 1, len + 1, len + 8, 0x7FFFFFFFu, 0x80000000u,
          0xFFFFFFFFu, static_cast<std::uint32_t>(log.size())}) {
      std::string img = log;
      for (int i = 0; i < 4; ++i) {
        img[at + i] = static_cast<char>((bad >> (8 * i)) & 0xFF);
      }
      corrupt.push_back(std::move(img));
    }
    for (int bit = 0; bit < 32; ++bit) {
      std::string img = log;
      img[at + 4 + bit / 8] = static_cast<char>(img[at + 4 + bit / 8] ^ (1 << (bit % 8)));
      corrupt.push_back(std::move(img));
    }
    for (const std::string& img : corrupt) {
      ++images;
      Stores replayed;
      std::vector<std::string> seen;
      std::uint64_t valid = 0;
      const std::uint64_t n = WalReader::replay(
          img,
          [&](std::string_view r) {
            seen.emplace_back(r);
            (void)replayed.durable.apply(r);
          },
          &valid);
      ASSERT_EQ(n, k) << "frame " << k;
      ASSERT_EQ(valid, at) << "frame " << k;
      for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(seen[i], payloads[i]);
    }
  }
  EXPECT_EQ(images, payloads.size() * 41);
  // The intact image replays every record, onto stores that already hold
  // them: redo is idempotent.
  Stores again;
  EXPECT_EQ(WalReader::replay(log,
                              [&](std::string_view r) {
                                EXPECT_TRUE(again.durable.apply(r)) << r;
                              }),
            payloads.size());
  EXPECT_EQ(again.image(), full.image());
}

}  // namespace
}  // namespace cpa::wal
