// Crash-robustness matrix for the durable tree: simulated power loss
// (WriteCacheDiskManager::DropUnsynced) at every WAL record boundary
// and inside the last record, followed by recovery, a TreeValidator
// pass, and an exact differential check against the brute-force
// oracle. The invariant under test: an acknowledged mutation is synced
// before the ack, so the recovered state equals the oracle EXACTLY —
// never a lossy approximation, never a wrong answer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "check/oracle.h"
#include "common/logging.h"
#include "check/invariants.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "storage/write_cache.h"
#include "wal/durable_tree.h"

namespace pictdb::wal {
namespace {

using check::CompareHits;
using check::DiffVerdict;
using check::Oracle;
using geom::Point;
using geom::Rect;
using storage::BufferPool;
using storage::InMemoryDiskManager;
using storage::PageId;
using storage::Rid;
using storage::WriteCacheDiskManager;

const Rect kEverything(-1e18, -1e18, 1e18, 1e18);

void ExpectValid(const rtree::RTree& tree) {
  const check::ValidationReport report = check::TreeValidator().Check(tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Full-state differential: the recovered tree must answer the
// everything-window identically to the oracle (same multiset).
void ExpectMatchesOracle(const rtree::RTree& tree, const Oracle& oracle) {
  auto all = tree.SearchIntersects(kEverything);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(CompareHits(*all, oracle.Intersects(kEverything),
                        /*degraded=*/false),
            DiffVerdict::kMatch)
      << "recovered tree diverges from oracle (" << all->size() << " vs "
      << oracle.size() << " hits)";
}

Rect SeededRect(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> pos(0.0, 1000.0);
  std::uniform_real_distribution<double> ext(0.5, 20.0);
  const double x = pos(*rng), y = pos(*rng);
  return Rect(x, y, x + ext(*rng), y + ext(*rng));
}

// A crash-prone durable environment: buffer pool over a volatile write
// cache over the real (in-memory) disk. Crash() simulates power loss
// and reopens from what was fsynced.
struct CrashEnv {
  explicit CrashEnv(uint32_t page_size = 512, uint64_t checkpoint_every = 64)
      : base(page_size), wcache(&base) {
    opts.checkpoint_every = checkpoint_every;
    pool = std::make_unique<BufferPool>(&wcache, 4096);
    auto created = DurableRTree::Create(pool.get(), {}, opts);
    PICTDB_CHECK(created.ok());
    durable = std::move(created).value();
    meta = durable->meta_page();
    anchor = durable->anchor_page();
  }

  /// Power loss + recovery. Returns the RecoveryInfo of the reopen.
  RecoveryInfo Crash() {
    durable.reset();
    pool.reset();
    wcache.DropUnsynced();
    pool = std::make_unique<BufferPool>(&wcache, 4096);
    auto reopened = DurableRTree::Open(pool.get(), meta, anchor, opts);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    durable = std::move(reopened).value();
    return durable->recovery_info();
  }

  InMemoryDiskManager base;
  WriteCacheDiskManager wcache;
  DurableOptions opts;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<DurableRTree> durable;
  PageId meta = storage::kInvalidPageId;
  PageId anchor = storage::kInvalidPageId;
};

// --- The crash-point matrix -------------------------------------------------

// Kill the writer after EVERY record boundary of a mixed workload and
// recover each time. The oracle tracks exactly the acked mutations, so
// every recovery must reproduce it bit-for-bit.
TEST(WalCrashTest, CrashAfterEveryRecordBoundary) {
  CrashEnv env(/*page_size=*/512, /*checkpoint_every=*/16);
  Oracle oracle;
  std::mt19937_64 rng(7);
  std::vector<std::pair<Rect, Rid>> live;

  for (uint32_t i = 0; i < 60; ++i) {
    // Mixed op: mostly inserts, some deletes/updates once populated.
    const uint32_t roll = static_cast<uint32_t>(rng() % 10);
    if (live.size() > 8 && roll < 2) {
      const size_t victim = rng() % live.size();
      auto [mbr, rid] = live[victim];
      ASSERT_TRUE(env.durable->Delete(mbr, rid).ok());
      ASSERT_TRUE(oracle.Delete(mbr, rid));
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    } else if (live.size() > 8 && roll < 4) {
      const size_t victim = rng() % live.size();
      auto& [mbr, rid] = live[victim];
      const Rect moved = SeededRect(&rng);
      ASSERT_TRUE(env.durable->Update(mbr, rid, moved, rid).ok());
      ASSERT_TRUE(oracle.Delete(mbr, rid));
      oracle.Insert(moved, rid);
      mbr = moved;
    } else {
      const Rect mbr = SeededRect(&rng);
      const Rid rid{i + 1, 0};
      ASSERT_TRUE(env.durable->Insert(mbr, rid).ok());
      oracle.Insert(mbr, rid);
      live.emplace_back(mbr, rid);
    }

    // Power loss at this record boundary; recovery must reproduce every
    // acked op (the one above included — its commit fsynced before ok).
    const RecoveryInfo info = env.Crash();
    EXPECT_TRUE(info.opened);
    ExpectValid(env.durable->tree());
    ExpectMatchesOracle(env.durable->tree(), oracle);
  }
}

// Torn write: the last record's bytes are corrupted on disk (a partial
// sector write at the moment of power loss). Recovery must detect the
// tear via the CRC, discard exactly that record, and land on the
// longest committed prefix.
TEST(WalCrashTest, TornLastRecordRecoversPrefix) {
  CrashEnv env;
  Oracle oracle;
  std::mt19937_64 rng(11);
  std::vector<uint64_t> boundaries;
  Rect last_mbr;
  Rid last_rid{};
  for (uint32_t i = 0; i < 12; ++i) {
    last_mbr = SeededRect(&rng);
    last_rid = Rid{i + 1, 0};
    ASSERT_TRUE(env.durable->Insert(last_mbr, last_rid).ok());
    oracle.Insert(last_mbr, last_rid);
    boundaries.push_back(env.durable->wal_chain_bytes());
  }
  const uint64_t before_last = boundaries[boundaries.size() - 2];
  const uint64_t after_last = boundaries.back();
  env.durable.reset();
  env.pool.reset();
  // Everything was synced; now tear the final record by flipping a byte
  // inside its frame, on the REAL disk (walking the chain from the
  // anchor: slots at 0/24, head at slot+16, next pointer at page+4).
  std::vector<char> page(env.base.page_size());
  ASSERT_TRUE(env.base.ReadPage(env.anchor, page.data()).ok());
  PageId head = storage::kInvalidPageId;
  uint64_t best_gen = 0;
  for (size_t off : {size_t{0}, size_t{24}}) {
    uint32_t magic;
    std::memcpy(&magic, page.data() + off, 4);
    if (magic != 0x57414C41u) continue;
    uint64_t gen;
    std::memcpy(&gen, page.data() + off + 8, 8);
    if (head == storage::kInvalidPageId || gen > best_gen) {
      best_gen = gen;
      std::memcpy(&head, page.data() + off + 16, 4);
    }
  }
  ASSERT_NE(head, storage::kInvalidPageId);
  const uint64_t payload_per_page = env.base.page_size() - 8;
  const uint64_t target = before_last;  // first byte of the last frame
  PageId id = head;
  for (uint64_t hops = target / payload_per_page; hops > 0; --hops) {
    ASSERT_TRUE(env.base.ReadPage(id, page.data()).ok());
    std::memcpy(&id, page.data() + 4, 4);
  }
  ASSERT_TRUE(env.base.ReadPage(id, page.data()).ok());
  page[8 + target % payload_per_page] ^= 0x01;
  ASSERT_TRUE(env.base.WritePage(id, page.data()).ok());

  env.pool = std::make_unique<BufferPool>(&env.wcache, 4096);
  auto reopened = DurableRTree::Open(env.pool.get(), env.meta, env.anchor,
                                     env.opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  env.durable = std::move(reopened).value();
  const RecoveryInfo& info = env.durable->recovery_info();
  EXPECT_TRUE(info.tail_torn);
  // Exactly the final frame is gone (the scanner stops at the failed
  // CRC, so its count may exclude the frame header it already read).
  EXPECT_GT(info.discarded_bytes, 0u);
  EXPECT_LE(info.discarded_bytes, after_last - before_last);
  // The recovered state is the committed prefix: everything except the
  // torn final insert.
  ASSERT_TRUE(oracle.Delete(last_mbr, last_rid));
  ExpectValid(env.durable->tree());
  ExpectMatchesOracle(env.durable->tree(), oracle);
}

// Recovery is idempotent: crash → recover → crash (no new writes) →
// recover lands on the same state, and keeps the log replayable.
TEST(WalCrashTest, RecoveryIsIdempotent) {
  CrashEnv env;
  Oracle oracle;
  std::mt19937_64 rng(13);
  for (uint32_t i = 0; i < 20; ++i) {
    const Rect mbr = SeededRect(&rng);
    ASSERT_TRUE(env.durable->Insert(mbr, Rid{i + 1, 0}).ok());
    oracle.Insert(mbr, Rid{i + 1, 0});
  }
  for (int round = 0; round < 3; ++round) {
    const RecoveryInfo info = env.Crash();
    EXPECT_TRUE(info.opened);
    ExpectValid(env.durable->tree());
    ExpectMatchesOracle(env.durable->tree(), oracle);
  }
  // And the recovered tree still accepts writes.
  ASSERT_TRUE(env.durable->Insert(Rect(1, 1, 2, 2), Rid{999, 0}).ok());
  oracle.Insert(Rect(1, 1, 2, 2), Rid{999, 0});
  env.Crash();
  ExpectMatchesOracle(env.durable->tree(), oracle);
}

// Clean shutdown takes the fast path: no rebuild, no replay — reattach
// to the validated on-disk tree.
TEST(WalCrashTest, CleanShutdownSkipsRebuild) {
  CrashEnv env;
  Oracle oracle;
  std::mt19937_64 rng(17);
  for (uint32_t i = 0; i < 30; ++i) {
    const Rect mbr = SeededRect(&rng);
    ASSERT_TRUE(env.durable->Insert(mbr, Rid{i + 1, 0}).ok());
    oracle.Insert(mbr, Rid{i + 1, 0});
  }
  ASSERT_TRUE(env.durable->Close().ok());
  // Mutations after Close are refused.
  EXPECT_FALSE(env.durable->Insert(Rect(0, 0, 1, 1), Rid{500, 0}).ok());
  env.durable.reset();
  env.pool.reset();
  // No DropUnsynced: Close flushed and synced everything.
  env.pool = std::make_unique<BufferPool>(&env.wcache, 4096);
  auto reopened = DurableRTree::Open(env.pool.get(), env.meta, env.anchor,
                                     env.opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  env.durable = std::move(reopened).value();
  EXPECT_TRUE(env.durable->recovery_info().clean_shutdown);
  EXPECT_FALSE(env.durable->recovery_info().recovered);
  ExpectValid(env.durable->tree());
  ExpectMatchesOracle(env.durable->tree(), oracle);
}

// Checkpoints bound replay work: with a small cadence, recovery after
// many mutations replays at most ~cadence ops off the latest snapshot.
TEST(WalCrashTest, CheckpointBoundsReplay) {
  CrashEnv env(/*page_size=*/512, /*checkpoint_every=*/8);
  Oracle oracle;
  std::mt19937_64 rng(19);
  for (uint32_t i = 0; i < 100; ++i) {
    const Rect mbr = SeededRect(&rng);
    ASSERT_TRUE(env.durable->Insert(mbr, Rid{i + 1, 0}).ok());
    oracle.Insert(mbr, Rid{i + 1, 0});
  }
  EXPECT_GE(env.durable->stats().checkpoints, 10u);
  const RecoveryInfo info = env.Crash();
  EXPECT_TRUE(info.recovered);
  EXPECT_LE(info.replayed_ops, 8u);
  EXPECT_GT(info.snapshot_entries, 0u);
  ExpectMatchesOracle(env.durable->tree(), oracle);
}

// A commit-path write failure poisons the tree (no further mutations)
// but never corrupts durable state: reopening recovers exactly the
// acked prefix.
TEST(WalCrashTest, PoisonedCommitRecoversAckedPrefix) {
  InMemoryDiskManager base(512);
  storage::FaultInjectionDiskManager faulty(&base, storage::FaultPlan{});
  WriteCacheDiskManager wcache(&faulty);
  DurableOptions opts;
  auto pool = std::make_unique<BufferPool>(&wcache, 4096);
  auto created = DurableRTree::Create(pool.get(), {}, opts);
  ASSERT_TRUE(created.ok());
  auto durable = std::move(created).value();
  const PageId meta = durable->meta_page();
  const PageId anchor = durable->anchor_page();

  Oracle oracle;
  std::mt19937_64 rng(23);
  for (uint32_t i = 0; i < 10; ++i) {
    const Rect mbr = SeededRect(&rng);
    ASSERT_TRUE(durable->Insert(mbr, Rid{i + 1, 0}).ok());
    oracle.Insert(mbr, Rid{i + 1, 0});
  }

  storage::FaultPlan plan;
  plan.seed = 99;
  plan.transient_write_error_rate = 1.0;  // every write fails
  faulty.SetPlan(plan);
  EXPECT_FALSE(durable->Insert(Rect(0, 0, 1, 1), Rid{100, 0}).ok());
  EXPECT_TRUE(durable->poisoned());
  // Poisoned: even with the fault gone, mutations stay refused.
  faulty.ClearFaults();
  EXPECT_FALSE(durable->Insert(Rect(0, 0, 1, 1), Rid{101, 0}).ok());

  durable.reset();
  pool.reset();
  wcache.DropUnsynced();
  pool = std::make_unique<BufferPool>(&wcache, 4096);
  auto reopened = DurableRTree::Open(pool.get(), meta, anchor, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  durable = std::move(reopened).value();
  EXPECT_FALSE(durable->poisoned());
  ExpectValid(durable->tree());
  ExpectMatchesOracle(durable->tree(), oracle);
  // Writable again after recovery.
  ASSERT_TRUE(durable->Insert(Rect(0, 0, 1, 1), Rid{100, 0}).ok());
}

// BulkLoad seeds an empty durable tree and is immediately
// crash-durable (it checkpoints as a snapshot).
TEST(WalCrashTest, BulkLoadSurvivesCrash) {
  CrashEnv env;
  Oracle oracle;
  std::vector<rtree::Entry> entries;
  std::mt19937_64 rng(29);
  for (uint32_t i = 0; i < 200; ++i) {
    rtree::Entry e;
    e.mbr = SeededRect(&rng);
    e.payload = rtree::Entry::PayloadFromRid(Rid{i + 1, 0});
    entries.push_back(e);
    oracle.Insert(e.mbr, Rid{i + 1, 0});
  }
  ASSERT_TRUE(env.durable->BulkLoad(entries).ok());
  const RecoveryInfo info = env.Crash();
  EXPECT_TRUE(info.recovered);
  EXPECT_EQ(info.snapshot_entries, 200u);
  ExpectValid(env.durable->tree());
  ExpectMatchesOracle(env.durable->tree(), oracle);
}

// --- Latched concurrency (the TSan target) ----------------------------------

// Readers hammer the service with window/point/knn queries while the
// main thread streams logged mutations through the service write path.
// Epoch guards + frame latches must keep every traversal safe; the
// final state must match the oracle and validate.
TEST(WalCrashTest, ConcurrentReadersVsWriter) {
  CrashEnv env;
  // Seed so queries have something to chew on from the start.
  std::vector<rtree::Entry> seed;
  std::mt19937_64 rng(31);
  for (uint32_t i = 0; i < 300; ++i) {
    rtree::Entry e;
    e.mbr = SeededRect(&rng);
    e.payload = rtree::Entry::PayloadFromRid(Rid{i + 1, 0});
    seed.push_back(e);
  }
  ASSERT_TRUE(env.durable->BulkLoad(seed).ok());

  service::ServiceOptions sopts;
  sopts.num_threads = 4;
  sopts.queue_capacity = 1024;
  service::QueryService svc(&env.durable->tree(), nullptr, sopts);
  svc.BindWriter(env.durable.get());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::thread reader([&] {
    std::mt19937_64 qrng(37);
    while (!stop.load(std::memory_order_relaxed)) {
      std::uniform_real_distribution<double> pos(0.0, 1000.0);
      const double x = pos(qrng), y = pos(qrng);
      auto make_query = [&]() -> service::Query {
        switch (qrng() % 3) {
          case 0:
            return service::WindowQuery{Rect(x, y, x + 60, y + 60), false};
          case 1:
            return service::PointQuery{Point(x, y)};
          default:
            return service::KnnQuery{Point(x, y), 4};
        }
      };
      auto submitted = svc.Submit(make_query());
      if (!submitted.ok()) continue;  // queue full: shed and retry
      auto result = submitted->get();
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  Oracle oracle;
  for (const rtree::Entry& e : seed) {
    oracle.Insert(e.mbr, Rid{static_cast<PageId>(e.payload >> 16),
                             static_cast<uint16_t>(e.payload & 0xFFFF)});
  }
  // Make sure the race is real: readers in flight before the first
  // write, and still querying after the last one.
  while (completed.load(std::memory_order_relaxed) < 1) {
    std::this_thread::yield();
  }
  const uint64_t before_writes = completed.load(std::memory_order_relaxed);
  std::vector<std::pair<Rect, Rid>> live;
  for (uint32_t i = 0; i < 400; ++i) {
    const uint32_t roll = static_cast<uint32_t>(rng() % 10);
    if (live.size() > 4 && roll < 3) {
      auto [mbr, rid] = live.back();
      live.pop_back();
      ASSERT_TRUE(
          svc.ExecuteWrite(service::DeleteOp{mbr, rid}).ok());
      ASSERT_TRUE(oracle.Delete(mbr, rid));
    } else {
      const Rect mbr = SeededRect(&rng);
      const Rid rid{1000 + i, 0};
      ASSERT_TRUE(svc.ExecuteWrite(service::InsertOp{mbr, rid}).ok());
      oracle.Insert(mbr, rid);
      live.emplace_back(mbr, rid);
    }
  }
  while (completed.load(std::memory_order_relaxed) < before_writes + 20) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  svc.Shutdown();
  EXPECT_GT(completed.load(), before_writes);
  const service::WriteMetricsSnapshot wm = svc.write_metrics();
  EXPECT_EQ(wm.committed(), 400u);
  EXPECT_EQ(wm.failed, 0u);
  ExpectValid(env.durable->tree());
  ExpectMatchesOracle(env.durable->tree(), oracle);

  // And the whole thing survives one more power loss.
  const RecoveryInfo info = env.Crash();
  EXPECT_TRUE(info.opened);
  ExpectMatchesOracle(env.durable->tree(), oracle);
}

}  // namespace
}  // namespace pictdb::wal
