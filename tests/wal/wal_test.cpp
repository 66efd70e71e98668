// Write-ahead log: framing, group commit, torn-tail semantics, checkpoint
// truncation, and crash/recover cycles through the Durable wrapper.
#include "wal/wal.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "hsm/hsm.hpp"
#include "hsm/server.hpp"
#include "hsm/txn_batch.hpp"
#include "integrity/fixity.hpp"
#include "obs/observer.hpp"
#include "pftool/core/restart_journal.hpp"
#include "simcore/hash.hpp"
#include "simcore/units.hpp"
#include "tape/library.hpp"
#include "wal/durable.hpp"

namespace cpa::wal {
namespace {

// A frame exactly as WalWriter lays it down: [len][crc32(payload)][payload].
std::string frame(const std::string& payload) {
  std::string out;
  const auto put = [&out](std::uint32_t v) {
    out.push_back(static_cast<char>(v & 0xFF));
    out.push_back(static_cast<char>((v >> 8) & 0xFF));
    out.push_back(static_cast<char>((v >> 16) & 0xFF));
    out.push_back(static_cast<char>((v >> 24) & 0xFF));
  };
  put(static_cast<std::uint32_t>(payload.size()));
  put(crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

// ------------------------------------------------------------------ crc32

TEST(Crc32, MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(check.data(), 0), 0u);
}

// The sliced CRC against a byte-at-a-time one over random bytes, at every
// length up to 4 KB and every start alignment within a word.
TEST(Crc32, SliceBy8MatchesBytewiseReference) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  constexpr std::size_t kMaxLen = 4096;
  std::vector<unsigned char> buf(kMaxLen + 8);
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  for (unsigned char& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  for (std::size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    // The reference register after each prefix, extended one byte a step.
    std::uint32_t reg = 0xFFFFFFFFu;
    for (std::size_t len = 0;; ++len) {
      ASSERT_EQ(crc32(p, len), reg ^ 0xFFFFFFFFu)
          << "len " << len << " align " << align;
      if (len == kMaxLen) break;
      reg = table[(reg ^ p[len]) & 0xFFu] ^ (reg >> 8);
    }
  }
}

// -------------------------------------------------------------- WalReader

TEST(WalReader, EmptyLogReplaysZeroRecords) {
  std::uint64_t valid = 99;
  std::uint64_t calls = 0;
  EXPECT_EQ(WalReader::replay("", [&](std::string_view) { ++calls; }, &valid),
            0u);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(valid, 0u);
}

TEST(WalReader, StopsAtTornFrameAtEveryByteBoundary) {
  const std::vector<std::string> payloads = {"alpha", "bb", "record-three"};
  std::string log;
  std::vector<std::size_t> boundaries = {0};
  for (const std::string& p : payloads) {
    log += frame(p);
    boundaries.push_back(log.size());
  }
  // Cut the image at every possible byte: replay must apply exactly the
  // frames wholly inside the cut, in order, and report where it stopped.
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    std::vector<std::string> seen;
    std::uint64_t valid = 0;
    const std::uint64_t n = WalReader::replay(
        log.substr(0, cut), [&](std::string_view r) { seen.emplace_back(r); },
        &valid);
    ASSERT_EQ(n, whole) << "cut=" << cut;
    ASSERT_EQ(valid, boundaries[whole]) << "cut=" << cut;
    for (std::size_t i = 0; i < whole; ++i) EXPECT_EQ(seen[i], payloads[i]);
  }
}

TEST(WalReader, StopsAtCorruptPayload) {
  std::string log = frame("first") + frame("second") + frame("third");
  log[frame("first").size() + 8] ^= 0x40;  // flip a bit in "second"'s payload
  std::uint64_t valid = 0;
  std::vector<std::string> seen;
  EXPECT_EQ(WalReader::replay(
                log, [&](std::string_view r) { seen.emplace_back(r); }, &valid),
            1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "first");
  EXPECT_EQ(valid, frame("first").size());
}

// -------------------------------------------------------------- WalWriter

TEST(WalWriter, GroupCommitBatchesConcurrentSyncs) {
  sim::Simulation sim;
  obs::Observer obs;
  WalConfig cfg;
  cfg.flush_latency = sim::msecs(2);
  WalWriter w(sim, cfg, obs);
  std::vector<sim::Tick> done;
  for (int i = 0; i < 5; ++i) {
    w.append_record("r" + std::to_string(i));
    w.sync([&] { done.push_back(sim.now()); });
  }
  sim.run();
  // The first sync rides its own flush; the four issued while it was in
  // flight share the next one (group commit), so two flushes total.
  ASSERT_EQ(done.size(), 5u);
  EXPECT_EQ(done[0], sim::msecs(2));
  for (int i = 1; i < 5; ++i) EXPECT_EQ(done[i], sim::msecs(4));
}

TEST(WalWriter, DurablePrefixSurvivesAnyTearSeed) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Simulation sim;
    obs::Observer obs;
    WalWriter w(sim, WalConfig{}, obs);
    for (int i = 0; i < 3; ++i) w.append_record("durable" + std::to_string(i));
    bool synced = false;
    w.sync([&] { synced = true; });
    sim.run();
    ASSERT_TRUE(synced);
    w.append_record("volatile0");
    w.append_record("volatile1");
    w.crash(seed);
    std::vector<std::string> seen;
    WalReader::replay(w.log_bytes(),
                      [&](std::string_view r) { seen.emplace_back(r); });
    ASSERT_GE(seen.size(), 3u) << "seed=" << seed;
    ASSERT_LE(seen.size(), 5u) << "seed=" << seed;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(seen[i], "durable" + std::to_string(i)) << "seed=" << seed;
    }
  }
}

TEST(WalWriter, PendingSyncCallbackDiesWithTheCrash) {
  sim::Simulation sim;
  obs::Observer obs;
  WalWriter w(sim, WalConfig{}, obs);
  w.append_record("r");
  bool fired = false;
  w.sync([&] { fired = true; });
  w.crash(7);  // before the flush latency elapsed
  sim.run();
  EXPECT_FALSE(fired);
  // The writer is still usable: a fresh sync after the crash completes.
  w.append_record("r2");
  bool fired2 = false;
  w.sync([&] { fired2 = true; });
  sim.run();
  EXPECT_TRUE(fired2);
}

TEST(WalWriter, CheckpointTruncationNeverDropsUncheckpointedRecords) {
  sim::Simulation sim;
  obs::Observer obs;
  WalWriter w(sim, WalConfig{}, obs);
  w.set_checkpoint_source([] { return std::string("SNAP"); });
  w.append_record("covered0");
  w.append_record("covered1");
  bool synced = false;
  w.sync([&] { synced = true; });
  sim.run();
  ASSERT_TRUE(synced);
  w.checkpoint();
  // Appended after the snapshot was taken but before it installs: must
  // survive the truncation that lands with the install.
  w.append_record("late");
  sim.run();
  EXPECT_EQ(w.installed_checkpoint(), "SNAP");
  std::vector<std::string> seen;
  WalReader::replay(w.log_bytes(),
                    [&](std::string_view r) { seen.emplace_back(r); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "late");
}

TEST(WalWriter, CrashMidCheckpointKeepsThePreviousCheckpoint) {
  sim::Simulation sim;
  obs::Observer obs;
  WalWriter w(sim, WalConfig{}, obs);
  int snaps = 0;
  w.set_checkpoint_source(
      [&] { return "SNAP" + std::to_string(snaps++); });
  w.append_record("r0");
  w.sync([] {});
  sim.run();
  w.checkpoint();
  sim.run();
  ASSERT_EQ(w.installed_checkpoint(), "SNAP0");
  const std::uint64_t before = w.log_bytes().size();
  w.append_record("r1");
  w.checkpoint();  // snapshot taken...
  w.crash(3);      // ...but power dies before the install completes
  sim.run();
  EXPECT_EQ(w.installed_checkpoint(), "SNAP0");  // old checkpoint stands
  EXPECT_GE(w.log_bytes().size(), before);       // nothing truncated
}

// ---------------------------------------------------------------- Durable

// One fully wired metadata plant: a catalog server, the fixity table, and
// a restart journal, all redo-logged through one Durable.
struct World {
  World() : net(sim), server(sim, net, "tsm0", hsm::ServerConfig{}) {
    durable.attach_server(0, server);
    durable.attach_fixity(fixity);
    durable.attach_journal(journal);
  }

  std::uint64_t record(const std::string& path) {
    hsm::ArchiveObject o;
    o.object_id = server.allocate_object_id();
    o.gpfs_file_id = o.object_id;
    o.size_bytes = 1 << 20;
    o.content_tag = 0xAB00 + o.object_id;
    o.cartridge_id = 3;
    o.tape_seq = o.object_id;
    o.path = path;
    const std::uint64_t id = o.object_id;
    server.record_object(std::move(o));
    fixity.add(id, 3, id, 1 << 20, 0xC0FFEE00 + id, 0);
    return id;
  }

  void sync_and_run() {
    bool done = false;
    durable.sync([&] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }

  // What CotsParallelArchive::power_fail does to the metadata stores.
  void crash(std::uint64_t seed) {
    server.power_fail();
    fixity.clear();
    journal.clear();
    durable.crash(seed);
  }

  std::uint64_t object_count() {
    std::uint64_t n = 0;
    server.for_each_object([&](const hsm::ArchiveObject&) { ++n; });
    return n;
  }

  sim::Simulation sim;
  sim::FlowNetwork net;
  obs::Observer obs;
  hsm::ArchiveServer server;
  integrity::FixityDb fixity;
  pftool::RestartJournal journal;
  Durable durable{sim, WalConfig{}, obs};
};

TEST(Durable, EmptyLogRecoversToEmptyState) {
  World w;
  const Durable::RecoveryStats st = w.durable.recover();
  EXPECT_EQ(st.replayed_records, 0u);
  EXPECT_EQ(st.checkpoint_bytes, 0u);
  EXPECT_EQ(w.object_count(), 0u);
}

TEST(Durable, SyncedMutationsSurviveCrashAndRecover) {
  World w;
  const std::uint64_t a = w.record("/arch/a");
  const std::uint64_t b = w.record("/arch/b");
  w.journal.begin("/arch/a", 1 << 20, 4);
  w.journal.mark_good("/arch/a", 2);
  w.sync_and_run();
  w.crash(11);
  ASSERT_EQ(w.object_count(), 0u);  // power failure wiped the stores
  const Durable::RecoveryStats st = w.durable.recover();
  EXPECT_GE(st.replayed_records, 6u);  // 2 objects + 2 fixity rows + 2 journal
  EXPECT_EQ(w.object_count(), 2u);
  ASSERT_NE(w.server.object(a), nullptr);
  EXPECT_EQ(w.server.object(a)->path, "/arch/a");
  EXPECT_EQ(w.fixity.by_object(a).size(), 1u);
  EXPECT_EQ(w.fixity.by_object(b).size(), 1u);
  // The allocator resumes above every replayed id.
  EXPECT_GT(w.server.next_object_id(), b);
}

TEST(Durable, RecoverTwiceConvergesOnTheSameState) {
  World w;
  w.record("/arch/a");
  w.record("/arch/b");
  w.journal.begin("/arch/a", 1 << 20, 4);
  w.sync_and_run();
  w.crash(5);
  const Durable::RecoveryStats s1 = w.durable.recover();
  const std::uint64_t objects = w.object_count();
  const std::uint64_t next_id = w.server.next_object_id();
  const std::string journal_img = w.journal.serialize();
  // Replaying the same prefix again (without a second wipe) must be a
  // no-op: every record is a full-row image, so redo is idempotent.
  const Durable::RecoveryStats s2 = w.durable.recover();
  EXPECT_EQ(s2.replayed_records, s1.replayed_records);
  EXPECT_EQ(w.object_count(), objects);
  EXPECT_EQ(w.server.next_object_id(), next_id);
  EXPECT_EQ(w.journal.serialize(), journal_img);
}

TEST(Durable, CheckpointThenEmptyLogRecovers) {
  World w;
  const std::uint64_t a = w.record("/arch/a");
  w.journal.begin("/arch/a", 1 << 20, 4);
  w.journal.mark_good("/arch/a", 0);
  w.journal.mark_good("/arch/a", 3);
  w.sync_and_run();
  w.durable.checkpoint();
  w.sim.run();
  EXPECT_TRUE(w.durable.writer().log_bytes().empty());  // fully truncated
  w.crash(9);
  const Durable::RecoveryStats st = w.durable.recover();
  EXPECT_EQ(st.replayed_records, 0u);
  EXPECT_GT(st.checkpoint_bytes, 0u);
  ASSERT_NE(w.server.object(a), nullptr);
  EXPECT_EQ(w.fixity.by_object(a).size(), 1u);
  EXPECT_FALSE(w.journal.serialize().empty());
}

TEST(Durable, DeleteIsDurable) {
  World w;
  const std::uint64_t a = w.record("/arch/a");
  const std::uint64_t b = w.record("/arch/b");
  w.sync_and_run();
  w.server.delete_object(a);
  w.fixity.erase_object(a);
  w.sync_and_run();
  w.crash(21);
  w.durable.recover();
  EXPECT_EQ(w.server.object(a), nullptr);
  EXPECT_TRUE(w.fixity.by_object(a).empty());
  EXPECT_NE(w.server.object(b), nullptr);
}

// An object's WAL image is its row, its group's name and its links, in the
// record format the log has always used, and it replays into the same
// group name and links.
TEST(Durable, ObjectImageCarriesGroupNameAndLinks) {
  World w;
  hsm::ArchiveObject o;
  o.object_id = 42;
  o.gpfs_file_id = 7;
  o.size_bytes = 100;
  o.content_tag = 5;
  o.cartridge_id = 3;
  o.tape_seq = 9;
  o.path = "/arch/a b";
  o.group = w.server.group_id("grp x");
  w.server.record_object(o, hsm::ObjectLinks{{10, 11}, {{4, 2}}});
  const std::string image = "O 0 42 7 100 5 3 9 0 0 /arch/a%20b grp%20x 10,11 4:2";
  EXPECT_NE(w.durable.writer().log_bytes().find(image), std::string::npos);
  w.durable.checkpoint();
  w.sync_and_run();
  EXPECT_NE(w.durable.writer().installed_checkpoint().find(image + "\n"),
            std::string::npos);
  w.crash(5);
  w.durable.recover();
  const hsm::ArchiveObject* back = w.server.object(42);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->path, "/arch/a b");
  EXPECT_EQ(w.server.group_name(back->group), "grp x");
  EXPECT_EQ(w.server.links(42).members, (std::vector<std::uint64_t>{10, 11}));
  ASSERT_EQ(w.server.links(42).copies.size(), 1u);
  EXPECT_EQ(w.server.links(42).copies[0].cartridge_id, 4u);
  EXPECT_EQ(w.server.links(42).copies[0].tape_seq, 2u);
}

// Regression: numbers inside a CRC-valid record were parsed with
// std::stoull, so a malformed member list, copy list or checkpointed
// journal line threw std::invalid_argument out of recover().  Such a record
// is skipped now, like one whose fields fail to extract, and the records
// around it still replay.
TEST(Durable, MalformedNumbersInValidRecordsAreSkipped) {
  World w;
  WalWriter& log = w.durable.writer();
  const std::uint64_t a = w.record("/arch/a");
  // O idx id fid size tag cart seq agg_id agg_off path group members copies
  log.append_record("O 0 900 900 1 1 3 1 0 0 /arch/m1 g 1,x -");
  log.append_record("O 0 901 901 1 1 3 1 0 0 /arch/m2 g 1,,2 -");
  log.append_record("O 0 902 902 1 1 3 1 0 0 /arch/c1 g - a:b");
  log.append_record("O 0 903 903 1 1 3 1 0 0 /arch/c2 g - 5:99999999999999999999");
  log.append_record("K /arch/d|x|1|1");
  log.append_record("K /arch/e|4096|-2|1");
  const std::uint64_t b = w.record("/arch/b");
  log.append_record("O 0 904 904 1 1 3 1 0 0 /arch/agg g 7,8 5:6");
  log.append_record("K /arch/k|4096|2|01");
  w.sync_and_run();
  w.crash(3);

  ASSERT_NO_THROW(w.durable.recover());
  EXPECT_NE(w.server.object(a), nullptr);
  EXPECT_NE(w.server.object(b), nullptr);
  for (std::uint64_t id = 900; id <= 903; ++id) {
    EXPECT_EQ(w.server.object(id), nullptr) << "object " << id;
  }
  ASSERT_NE(w.server.object(904), nullptr);
  EXPECT_EQ(w.server.group_name(w.server.object(904)->group), "g");
  const hsm::ObjectLinks& agg = w.server.links(904);
  EXPECT_EQ(agg.members, (std::vector<std::uint64_t>{7, 8}));
  ASSERT_EQ(agg.copies.size(), 1u);
  EXPECT_EQ(agg.copies[0].cartridge_id, 5u);
  EXPECT_EQ(agg.copies[0].tape_seq, 6u);
  EXPECT_FALSE(w.journal.known("/arch/d"));
  EXPECT_FALSE(w.journal.known("/arch/e"));
  EXPECT_EQ(w.journal.pending("/arch/k"), (std::vector<std::uint64_t>{0}));
}

// A CRC-valid journal record can still carry a chunk count no copy plan
// makes, and RestartJournal::begin allocates a bit per chunk: replay must
// skip such records, not try to allocate 2^40 bits, and keep the rest.
TEST(Durable, HugeJournalChunkCountsAreSkipped) {
  World w;
  WalWriter& log = w.durable.writer();
  const std::uint64_t a = w.record("/arch/a");
  log.append_record("J b /arch/huge 4096 1099511627776");
  log.append_record("J b /arch/empty 0 2");
  log.append_record("K /arch/ckpt|4096|1099511627776|01");
  log.append_record("J b /arch/ok 4096 3");
  log.append_record("J g /arch/ok 1 0");
  log.append_record("K /arch/k|4096|2|01");
  w.sync_and_run();
  w.crash(3);

  ASSERT_NO_THROW(w.durable.recover());
  EXPECT_NE(w.server.object(a), nullptr);
  EXPECT_FALSE(w.journal.known("/arch/huge"));
  EXPECT_FALSE(w.journal.known("/arch/empty"));
  EXPECT_FALSE(w.journal.known("/arch/ckpt"));
  EXPECT_EQ(w.journal.pending("/arch/ok"), (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(w.journal.pending("/arch/k"), (std::vector<std::uint64_t>{0}));
}

// Regression: a tear usually cuts a frame in half, and the surviving torn
// bytes used to stay in the log forever.  Records appended after recovery
// then sat behind CRC garbage where no future replay could reach them —
// durably-acked mutations silently vanished at the *second* crash.
TEST(Durable, MutationsAfterRecoverySurviveASecondCrash) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    World w;
    w.record("/arch/a");
    w.sync_and_run();
    w.record("/arch/b");  // volatile: the tear lands somewhere inside it
    w.crash(seed);
    w.durable.recover();
    // Post-recovery life: a new durably-acked object...
    const std::uint64_t c = w.record("/arch/c");
    w.sync_and_run();
    // ...must still be there after the next crash.
    w.crash(seed * 977 + 1);
    const Durable::RecoveryStats st = w.durable.recover();
    ASSERT_NE(w.server.object(c), nullptr)
        << "seed=" << seed << " (durably-acked object lost behind torn tail)";
    EXPECT_EQ(w.server.object(c)->path, "/arch/c") << "seed=" << seed;
    EXPECT_EQ(w.fixity.by_object(c).size(), 1u) << "seed=" << seed;
    EXPECT_GE(st.replayed_records, 2u) << "seed=" << seed;
  }
}

// Regression: record_object used to fire its WAL hook before upserting.
// An auto-checkpoint triggered synchronously inside that append then
// snapshotted a catalog *without* the row while the truncation mark
// covered its frame — the object vanished at the next recovery.
TEST(Durable, AutoCheckpointNeverLosesTheRecordThatTriggeredIt) {
  sim::Simulation sim;
  sim::FlowNetwork net(sim);
  obs::Observer obs;
  hsm::ArchiveServer server(sim, net, "tsm0", hsm::ServerConfig{});
  integrity::FixityDb fixity;
  pftool::RestartJournal journal;
  WalConfig cfg;
  cfg.checkpoint_bytes = 2048;  // aggressive: checkpoints every ~20 records
  Durable durable(sim, cfg, obs);
  durable.attach_server(0, server);
  durable.attach_fixity(fixity);
  durable.attach_journal(journal);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 120; ++i) {
    hsm::ArchiveObject o;
    o.object_id = server.allocate_object_id();
    o.size_bytes = 1 << 20;
    o.cartridge_id = 1;
    o.tape_seq = i;
    o.path = "/arch/f" + std::to_string(i);
    ids.push_back(o.object_id);
    server.record_object(std::move(o));
    fixity.add(ids.back(), 1, i, 1 << 20, 0xF00D + i, 0);
    if (i % 8 == 7) {
      durable.sync([] {});
      sim.run();
    }
  }
  durable.sync([] {});
  sim.run();
  server.power_fail();
  fixity.clear();
  journal.clear();
  durable.crash(13);
  durable.recover();
  for (const std::uint64_t id : ids) {
    ASSERT_NE(server.object(id), nullptr) << "object " << id << " lost";
    ASSERT_EQ(fixity.by_object(id).size(), 1u) << "fixity row " << id;
  }
}

// Metadata batching rides the WAL's group commit: a TxnSession barrier is
// one durable.sync covering the whole batch.  Once that barrier acks, every
// mutation in the batch must survive a crash — at any torn-tail seed.
TEST(Durable, BatchBarrierAckImpliesWholeBatchDurable) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    World w;
    hsm::TxnSession::Hooks hooks;
    hooks.barrier = [&w](std::function<void()> done) {
      w.durable.sync(std::move(done));
    };
    hsm::TxnSession session(w.sim, w.server, /*batch_size=*/8,
                            std::move(hooks));

    std::vector<std::uint64_t> acked;
    int applied = 0;
    for (int i = 0; i < 8; ++i) {
      const std::string path = "/arch/batched" + std::to_string(i);
      session.submit([&w, path] { w.record(path); }, [&] {
        if (++applied < 8) return;
        // Applied implies past the barrier: snapshot what was acked durable.
        w.server.for_each_object([&](const hsm::ArchiveObject& o) {
          acked.push_back(o.object_id);
        });
      });
    }
    w.sim.run();
    ASSERT_EQ(applied, 8) << "seed=" << seed;
    ASSERT_EQ(acked.size(), 8u) << "seed=" << seed;

    // More mutations land in the log without a barrier: the tear has
    // un-synced frames to cut through while the acked batch sits below.
    for (int i = 0; i < 3; ++i) {
      w.record("/arch/volatile" + std::to_string(i));
    }
    w.crash(seed);
    session.abandon();
    const Durable::RecoveryStats st = w.durable.recover();
    (void)st;
    // Every mutation of the acked batch is back, with its fixity row.
    for (const std::uint64_t id : acked) {
      ASSERT_NE(w.server.object(id), nullptr)
          << "seed=" << seed << " object " << id
          << " from a barrier-acked batch lost";
      EXPECT_EQ(w.fixity.by_object(id).size(), 1u) << "seed=" << seed;
    }
  }
}

// The tear lands *inside* an un-acked batch's WAL records: recovery must
// replay a clean prefix (idempotent full-row images), never garbage, and a
// re-recover converges.
TEST(Durable, TornMidBatchReplaysCleanPrefix) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    World w;
    // One acked object, then a batch of appends whose sync never lands.
    const std::uint64_t base = w.record("/arch/base");
    w.sync_and_run();
    for (int i = 0; i < 6; ++i) {
      w.record("/arch/torn" + std::to_string(i));  // appended, not synced
    }
    w.crash(seed);  // tear lands inside the batch's frames
    w.durable.recover();
    ASSERT_NE(w.server.object(base), nullptr) << "seed=" << seed;
    const std::uint64_t after_first = w.object_count();
    EXPECT_LE(after_first, 7u) << "seed=" << seed;
    // Idempotent redo: recovering again changes nothing.
    w.durable.recover();
    EXPECT_EQ(w.object_count(), after_first) << "seed=" << seed;
    // Post-recovery appends stay durable through a second crash.
    const std::uint64_t fresh = w.record("/arch/fresh");
    w.sync_and_run();
    w.crash(seed * 131 + 7);
    w.durable.recover();
    ASSERT_NE(w.server.object(fresh), nullptr) << "seed=" << seed;
  }
}

// Every record kind the log and the checkpoint hold, byte for byte.  The
// script writes O (members, copies, an escaped path and group), D, F
// (both statuses), E, all four J ops, and the checkpoint's N and K lines;
// it deletes no aggregate member.  The digests were taken before the
// encoder wrote with std::to_chars, and every byte must stay as it was.
TEST(Durable, RecordBytesArePinned) {
  World w;
  const std::uint64_t a = w.record("/arch/a b%c\td");
  hsm::ArchiveObject agg;
  agg.object_id = w.server.allocate_object_id();
  agg.size_bytes = 3 << 20;
  agg.cartridge_id = 5;
  agg.tape_seq = 17;
  agg.group = w.server.group_id("grp x%\n");
  std::vector<std::uint64_t> members;
  for (std::uint64_t i = 0; i < 3; ++i) {
    hsm::ArchiveObject m;
    m.object_id = w.server.allocate_object_id();
    m.path = "/arch/m" + std::to_string(i);
    m.gpfs_file_id = 1000 + i;
    m.size_bytes = 1 << 20;
    m.content_tag = ~std::uint64_t{0} - i;
    m.cartridge_id = 5;
    m.tape_seq = 17;
    m.aggregate_id = agg.object_id;
    m.aggregate_offset = i << 20;
    m.group = agg.group;
    members.push_back(m.object_id);
    w.server.record_object(std::move(m));
  }
  const std::uint64_t agg_id = agg.object_id;
  w.server.record_object(std::move(agg),
                         hsm::ObjectLinks{members, {{6, 1}, {7, 99}}});
  w.fixity.add(agg_id, 5, 17, 3 << 20, ~std::uint64_t{0}, 0);
  const std::uint64_t bad = w.fixity.add(agg_id, 6, 1, 3 << 20, 12345, 1);
  w.fixity.set_status(bad, integrity::FixityStatus::Unrepairable);
  w.journal.begin("/arch/j 1", 4096, 3);
  w.journal.mark_good("/arch/j 1", 1);
  w.journal.begin("/arch/empty", 0, 1);
  w.sync_and_run();
  w.durable.checkpoint();
  w.sim.run();
  ASSERT_TRUE(w.durable.writer().log_bytes().empty());

  const std::uint64_t b = w.record("");
  hsm::ArchiveObject c = *w.server.object(b);
  c.group = w.server.group_id("g");
  w.server.record_object(std::move(c), hsm::ObjectLinks{{}, {{8, 3}}});
  w.server.delete_object(a);
  w.fixity.erase_object(a);
  w.journal.begin("/arch/%j", 1 << 20, 4);
  w.journal.mark_good("/arch/%j", 3);
  w.journal.mark_bad("/arch/%j", 3);
  w.journal.forget("/arch/j 1");
  w.sync_and_run();

  const std::string& log = w.durable.writer().log_bytes();
  const std::string& ckpt = w.durable.writer().installed_checkpoint();
  EXPECT_EQ(w.durable.writer().records_appended(), 21u);
  EXPECT_EQ(log.size(), 270u);
  EXPECT_EQ(sim::fnv1a64(log), 17567394536639492797u);
  EXPECT_EQ(ckpt.size(), 520u);
  EXPECT_EQ(sim::fnv1a64(ckpt), 13530099874616513359u);
}

// ------------------------------------------------------- Durable over HSM

// An HSM over one archive file system and a four-drive library, migrating
// small files into aggregates, its catalog and fixity table redo-logged
// through one Durable whose sync is the HSM's durability barrier.
struct HsmPlant {
  static pfs::FsConfig fs_config() {
    pfs::FsConfig cfg;
    cfg.name = "archive-gpfs";
    cfg.pools = {pfs::PoolConfig{"fast", 0, 4, false}};
    return cfg;
  }
  static tape::LibraryConfig lib_config() {
    tape::LibraryConfig cfg;
    cfg.drive_count = 4;
    cfg.cartridge_capacity = 800 * kGB;
    return cfg;
  }
  static hsm::HsmConfig hsm_config() {
    hsm::HsmConfig cfg;
    cfg.aggregation_enabled = true;
    cfg.aggregate_threshold = 50 * kMB;
    cfg.aggregate_target = 400 * kMB;
    return cfg;
  }

  HsmPlant() {
    for (unsigned i = 0; i < hsm.server_count(); ++i) {
      durable.attach_server(i, hsm.server(i));
    }
    durable.attach_fixity(hsm.fixity_db());
    hsm.set_durability_barrier(
        [this](std::function<void()> k) { durable.sync(std::move(k)); });
  }

  // Writes `n` 1 MB files under `dir` and migrates them as one aggregate.
  std::vector<std::string> archive(const std::string& dir, unsigned n) {
    std::vector<std::string> paths;
    EXPECT_EQ(fs.mkdirs(dir), pfs::Errc::Ok);
    for (unsigned i = 0; i < n; ++i) {
      paths.push_back(dir + "/f" + std::to_string(i));
      EXPECT_TRUE(fs.create(paths.back()).ok());
      EXPECT_EQ(fs.write_all(paths.back(), kMB, i), pfs::Errc::Ok);
    }
    hsm.migrate_batch(0, paths, "g", [n](const hsm::MigrateReport& r) {
      EXPECT_EQ(r.files_migrated, n);
      EXPECT_EQ(r.tape_objects_written, 1u);
    });
    sim.run();
    return paths;
  }

  std::uint64_t object_id(const std::string& path) {
    const hsm::ArchiveObject* row = hsm.server_for(path).export_db().by_path(path);
    EXPECT_NE(row, nullptr) << path;
    return row != nullptr ? row->object_id : 0;
  }

  void remove(const std::string& path) {
    pfs::Errc result = pfs::Errc::Stale;
    hsm.synchronous_delete(path, [&](pfs::Errc e) { result = e; });
    sim.run();
    EXPECT_EQ(result, pfs::Errc::Ok) << path;
  }

  // What CotsParallelArchive::power_fail and recover do to this plant.
  void crash_and_recover(std::uint64_t seed) {
    hsm.power_fail();
    lib.power_fail();
    durable.crash(seed);
    durable.recover();
    hsm.reconcile_crash();
    lib.power_restore();
  }

  // Every catalog row with its group name and links, every fixity row.
  std::string catalog() {
    std::string out;
    for (unsigned i = 0; i < hsm.server_count(); ++i) {
      hsm::ArchiveServer& srv = hsm.server(i);
      srv.for_each_object([&](const hsm::ArchiveObject& o) {
        put_object(out, i, o, srv.group_name(o.group), srv.links(o.object_id));
        out += '\n';
      });
    }
    hsm.fixity_db().for_each([&](const integrity::FixityRow& r) {
      put_fixity(out, r);
      out += '\n';
    });
    return out;
  }

  sim::Simulation sim;
  sim::FlowNetwork net{sim};
  obs::Observer obs;
  Durable durable{sim, WalConfig{}, obs};
  pfs::FileSystem fs{sim, fs_config()};
  tape::TapeLibrary lib{sim, net, lib_config()};
  hsm::HsmSystem hsm{sim, net, fs, lib, hsm::Fabric::unconstrained(),
                     hsm_config()};
};

// A member's delete is one O(1) record, whatever its aggregate's size: the
// record unlinks the member on replay as the live delete did, so the
// aggregate is never imaged again.
TEST(Durable, MemberDeleteLogsOneRecord) {
  HsmPlant p;
  // 200 members first, so both deleted ids below have three digits.
  const std::vector<std::string> large = p.archive("/arch/large", 200);
  const std::vector<std::string> small = p.archive("/arch/small", 8);
  const auto three_digits = [&](const std::vector<std::string>& paths) {
    for (const std::string& path : paths) {
      const std::uint64_t id = p.object_id(path);
      if (id >= 100 && id <= 999) return path;
    }
    ADD_FAILURE() << "no member with a three-digit id";
    return paths.front();
  };
  std::vector<std::uint64_t> deltas;
  for (const std::string& path : {three_digits(large), three_digits(small)}) {
    const WalWriter& log = p.durable.writer();
    const std::uint64_t records = log.records_appended();
    const std::uint64_t bytes = log.log_bytes().size();
    p.remove(path);
    EXPECT_EQ(log.records_appended() - records, 1u) << path;
    deltas.push_back(log.log_bytes().size() - bytes);
  }
  EXPECT_EQ(deltas[0], deltas[1]);
  EXPECT_EQ(deltas[0], 8u + std::string("D 0 123").size());
}

// Quiescent crash with aggregates whose members were partly or wholly
// deleted: replaying the members' delete records rebuilds every
// aggregate's member list and the rest of the catalog exactly.
TEST(Durable, AggregatedQuiescentCrashKeepsLinksAndCatalog) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    HsmPlant p;
    const std::vector<std::vector<std::string>> dirs = {
        p.archive("/arch/a", 6), p.archive("/arch/b", 10),
        p.archive("/arch/c", 5)};
    p.remove(dirs[0][1]);
    p.remove(dirs[0][4]);
    for (std::size_t i = 0; i < dirs[1].size(); i += 2) p.remove(dirs[1][i]);
    for (const std::string& path : dirs[2]) p.remove(path);
    struct Aggregate {
      std::uint64_t id;
      std::vector<std::uint64_t> members;
    };
    std::vector<Aggregate> before;
    hsm::ArchiveServer& srv = p.hsm.server(0);
    srv.for_each_object([&](const hsm::ArchiveObject& o) {
      if (o.path.empty()) before.push_back({o.object_id, srv.links(o.object_id).members});
    });
    ASSERT_EQ(before.size(), 2u);  // the third aggregate died with its members
    EXPECT_EQ(before[0].members.size(), 4u);
    EXPECT_EQ(before[1].members.size(), 5u);
    const std::string catalog = p.catalog();

    p.crash_and_recover(seed);
    for (const Aggregate& agg : before) {
      ASSERT_NE(srv.object(agg.id), nullptr) << "seed=" << seed;
      EXPECT_EQ(srv.links(agg.id).members, agg.members) << "seed=" << seed;
    }
    EXPECT_EQ(p.catalog(), catalog) << "seed=" << seed;
  }
}

// The tear falls after the last member's delete record and before the
// aggregate's own fixity and delete records.  Replay leaves the aggregate
// with an empty member list; crash reconciliation finishes it as the
// delete cascade would have: no row, no live segment, no fixity row.
TEST(Durable, TearAfterLastMemberDeleteFinishesTheAggregate) {
  HsmPlant p;
  const std::vector<std::string> paths = p.archive("/arch/d", 3);
  const std::uint64_t last = p.object_id(paths.back());
  const std::uint64_t agg = p.hsm.server(0).object(last)->aggregate_id;
  ASSERT_NE(agg, 0u);
  for (const std::string& path : paths) p.remove(path);
  ASSERT_EQ(p.hsm.server(0).object_count(), 0u);

  // Cut the log just past the frame of the last member's delete.
  const std::string last_delete = "D 0 " + std::to_string(last);
  std::uint64_t offset = 0;
  std::uint64_t cut = 0;
  WalReader::replay(p.durable.writer().log_bytes(), [&](std::string_view r) {
    offset += 8 + r.size();
    if (r == last_delete) cut = offset;
  });
  ASSERT_NE(cut, 0u);
  ASSERT_LT(cut, p.durable.writer().log_bytes().size());
  p.durable.writer().trim_torn_tail(cut);

  p.crash_and_recover(7);
  EXPECT_EQ(p.hsm.server(0).object(agg), nullptr);
  EXPECT_EQ(p.hsm.server(0).object_count(), 0u);
  EXPECT_TRUE(p.hsm.fixity_db().by_object(agg).empty());
  std::uint64_t live_segments = 0;
  p.lib.for_each_cartridge([&](tape::Cartridge& cart) {
    for (const tape::Segment& s : cart.segments()) {
      if (s.object_id != 0) ++live_segments;
    }
  });
  EXPECT_EQ(live_segments, 0u);
}

// A checkpointed journal line is "dst|size|count|bitmap" with the
// destination unescaped; it is read from the right, so a destination that
// contains '|' replays.
TEST(Durable, CheckpointedJournalLineWithPipeReplays) {
  World w;
  w.journal.begin("/proj/a|b.dat", 100, 2);
  w.journal.mark_good("/proj/a|b.dat", 0);
  w.sync_and_run();
  w.durable.checkpoint();
  w.sim.run();
  ASSERT_NE(w.durable.writer().installed_checkpoint().find(
                "K /proj/a|b.dat|100|2|10\n"),
            std::string::npos);
  w.crash(4);
  w.durable.recover();
  EXPECT_TRUE(w.journal.known("/proj/a|b.dat"));
  EXPECT_EQ(w.journal.pending("/proj/a|b.dat"), (std::vector<std::uint64_t>{1}));
}

TEST(Durable, RecoveryDurationScalesWithLogAndReplay) {
  World w;
  for (int i = 0; i < 8; ++i) w.record("/arch/f" + std::to_string(i));
  w.sync_and_run();
  w.crash(2);
  const Durable::RecoveryStats st = w.durable.recover();
  const WalConfig& cfg = w.durable.config();
  EXPECT_GE(st.duration, cfg.flush_latency +
                             cfg.replay_record_cost * st.replayed_records);
}

}  // namespace
}  // namespace cpa::wal
