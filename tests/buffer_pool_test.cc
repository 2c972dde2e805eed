// Buffer pool, pager ping-pong and paged-storage recovery edges:
//  - pin/evict/flush ordering and the WAL-ahead rule (a dirty page is never
//    written back past the durable log frontier);
//  - torn page writes falling back to the surviving ping-pong slot;
//  - equal-LSN rewrites strictly superseding the older slot (regression:
//    a recovery-undo writeback that ties the checkpoint-flushed copy's
//    version must not lose to it and resurrect an undone loser row);
//  - torn checkpoint-image anchors at EVERY prefix boundary falling back to
//    the previous anchor + log redo;
//  - a workload bigger than the pool staying correct through eviction and
//    a crash/restart;
//  - concurrent DML on a tiny pool (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "sqldb/buffer_pool.h"
#include "sqldb/database.h"
#include "sqldb/pager.h"
#include "sqldb/wal.h"

namespace datalinks::sqldb {
namespace {

// --------------------------------------------------------------------------
// Pool-level fixtures: a DurableStore + Pager + WAL + BufferPool wired the
// way Database wires them, but driven directly.
// --------------------------------------------------------------------------

struct PoolRig {
  explicit PoolRig(size_t capacity_pages, FaultInjector* fault = nullptr)
      : store(std::make_shared<DurableStore>()),
        pager(store, 4096, fault, nullptr),
        wal(store, 1 << 20),
        pool(&pager, capacity_pages) {
    pool.set_wal(&wal);
  }

  /// Dirty `id`, formatting it as a heap page carrying `marker` right after
  /// the header, logging one record; returns the record LSN.  Mirrors the
  /// heap mutator protocol: MarkDirtyProvisional BEFORE the append, page
  /// header LSN + NoteAppliedLsn after (the flusher reads the LSN it must
  /// force from the page header).
  Lsn DirtyPage(PageId id, const std::string& marker) {
    BufferPool::PageRef ref = pool.Pin(id);
    std::unique_lock<sim::SharedMutex> latch(ref.latch());
    ref.MarkDirtyProvisional();
    LogRecord rec{0, /*txn=*/1, LogRecordType::kInsert, /*table=*/1,
                  /*rid=*/static_cast<RowId>(id), {}, {}};
    rec.page = id;
    Lsn lsn = kInvalidLsn;
    EXPECT_TRUE(wal.Append(std::move(rec), /*exempt=*/false, &lsn).ok());
    page::Init(&ref.bytes(), 4096, kPageTypeHeap);
    ref.bytes().replace(kPageHeaderSize, marker.size(), marker);
    page::SetLsn(&ref.bytes(), lsn);
    ref.NoteAppliedLsn(lsn);
    return lsn;
  }

  /// The marker `DirtyPage` stamped into durable page `id`; "" when the
  /// page never reached the pager.
  std::string ReadMarker(PageId id, size_t len) {
    std::string out;
    pager.Read(id, &out);
    if (out.size() < kPageHeaderSize + len) return "";
    return out.substr(kPageHeaderSize, len);
  }

  std::shared_ptr<DurableStore> store;
  Pager pager;
  WriteAheadLog wal;
  BufferPool pool;
};

// Crc32 guards every durable page slot and checkpoint-image anchor, so its
// output is part of the on-disk format: pin it to the CRC-32/ISO-HDLC check
// value and to a bit-at-a-time reference of the same reflected polynomial
// at every length and alignment the slice-by-8 loop distinguishes.
TEST(PageCrc32, MatchesCheckValueAndBitwiseReference) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  auto reference = [](std::string_view d) {
    uint32_t c = 0xFFFFFFFFu;
    for (unsigned char ch : d) {
      c ^= ch;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::string buf(8 + 64, '\0');
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>(i * 37 + 11);
  }
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view v(buf.data() + off, len);
      EXPECT_EQ(Crc32(v), reference(v)) << "offset " << off << " length " << len;
    }
  }
}

TEST(BufferPool, FillsToCapacityBeforeEvicting) {
  PoolRig rig(8);
  for (PageId id = 1; id <= 8; ++id) BufferPool::PageRef r = rig.pool.Pin(id);
  BufferPool::Stats s = rig.pool.stats();
  EXPECT_EQ(s.cached_pages, 8u);
  EXPECT_EQ(s.evictions, 0u);
  { BufferPool::PageRef r = rig.pool.Pin(9); }
  s = rig.pool.stats();
  EXPECT_EQ(s.cached_pages, 8u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.overflow_frames, 0u);
}

TEST(BufferPool, PinMissThenHitCountsStats) {
  PoolRig rig(4);
  { BufferPool::PageRef r = rig.pool.Pin(1); }
  { BufferPool::PageRef r = rig.pool.Pin(1); }
  const BufferPool::Stats s = rig.pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.cached_pages, 1u);
}

TEST(BufferPool, EvictionFlushesDirtyVictimAndObeysWalAhead) {
  PoolRig rig(4);  // pool capacity clamps to a 4-frame minimum
  const Lsn lsn = rig.DirtyPage(1, "payload-1");
  // Nothing forced yet: the WAL-ahead rule is live.
  ASSERT_LT(rig.store->max_forced_lsn(), lsn);

  // Pin-and-hold the other three frames, then pin a fifth page: the only
  // evictable victim is the dirty, unpinned page 1.
  BufferPool::PageRef h2 = rig.pool.Pin(2);
  BufferPool::PageRef h3 = rig.pool.Pin(3);
  BufferPool::PageRef h4 = rig.pool.Pin(4);
  { BufferPool::PageRef r5 = rig.pool.Pin(5); }

  const BufferPool::Stats s = rig.pool.stats();
  EXPECT_GE(s.evictions, 1u);
  EXPECT_GE(s.flushes, 1u);
  // The eviction wrote page 1 back -- so the log MUST have been forced
  // through the page's LSN first (write-ahead), and the payload must be
  // readable from the pager.
  EXPECT_GE(rig.store->max_forced_lsn(), lsn);
  EXPECT_EQ(rig.ReadMarker(1, 9), "payload-1");
}

TEST(BufferPool, MinDirtyRecLsnIsConservativeAndClearsOnFlush) {
  PoolRig rig(4);
  EXPECT_EQ(rig.pool.MinDirtyRecLsn(), kInvalidLsn);
  const Lsn lsn = rig.DirtyPage(1, "x");
  const Lsn floor = rig.pool.MinDirtyRecLsn();
  ASSERT_NE(floor, kInvalidLsn);
  // MarkDirtyProvisional runs BEFORE the append, so the recorded rec_lsn
  // can never exceed the record that dirtied the page.
  EXPECT_LE(floor, lsn);
  ASSERT_TRUE(rig.pool.FlushAll().ok());
  EXPECT_EQ(rig.pool.MinDirtyRecLsn(), kInvalidLsn);
  EXPECT_EQ(rig.pool.stats().dirty_pages, 0u);
}

TEST(BufferPool, OverflowFramesWhenEveryFrameIsPinned) {
  PoolRig rig(4);  // 4-frame minimum capacity
  BufferPool::PageRef a = rig.pool.Pin(1);
  BufferPool::PageRef b = rig.pool.Pin(2);
  BufferPool::PageRef d = rig.pool.Pin(3);
  BufferPool::PageRef e = rig.pool.Pin(4);
  BufferPool::PageRef c = rig.pool.Pin(5);  // beyond capacity: overflow frame
  EXPECT_TRUE(a && b && d && e && c);
  {
    std::unique_lock<sim::SharedMutex> l(c.latch());
    c.bytes() = "overflow";
  }
  EXPECT_GE(rig.pool.stats().overflow_frames, 1u);
}

TEST(BufferPool, DiscardDropsDirtyPageWithoutWriteback) {
  PoolRig rig(4);
  rig.DirtyPage(5, "doomed");
  rig.pool.Discard(5);
  ASSERT_TRUE(rig.pool.FlushAll().ok());
  std::string out;
  rig.pager.Read(5, &out);
  EXPECT_TRUE(out.empty());  // never reached the durable store
}

TEST(BufferPool, FlushFailureLeavesPageDirtyForRetry) {
  FaultInjector fault;
  PoolRig rig(4, &fault);
  rig.DirtyPage(1, "sticky");

  FaultInjector::Spec spec;
  spec.action = FaultInjector::Action::kError;
  fault.Arm(failpoints::kSqldbPageFlush, spec);
  EXPECT_FALSE(rig.pool.FlushAll().ok());
  BufferPool::Stats s = rig.pool.stats();
  EXPECT_GE(s.flush_failures, 1u);
  EXPECT_EQ(s.dirty_pages, 1u);  // still dirty: retry must be possible

  fault.Disarm(failpoints::kSqldbPageFlush);
  EXPECT_TRUE(rig.pool.FlushAll().ok());
  EXPECT_EQ(rig.ReadMarker(1, 6), "sticky");
}

// Regression: the window between an evictor choosing a dirty victim and
// FlushFrame re-acquiring the pool mutex could see the victim frame
// Discarded (and free-listed), cleaned by a concurrent FlushAll, or claimed
// by another evictor.  The evictor then reused the frame anyway, mapping
// two page ids onto one frame — two B-trees ended up writing into each
// other's node bytes (caught by TSan under the E16 multi-shard bench).
// Stress the exact triangle — eviction pressure + Discard + checkpoint —
// and require every page read to carry its own stamp.
TEST(BufferPoolConcurrency, EvictDiscardCheckpointRaceNeverAliasesFrames) {
  PoolRig rig(4);  // minimum pool: every pin beyond 4 pages evicts
  constexpr int kWorkers = 4;
  constexpr int kPagesPerWorker = 8;
  constexpr int kIters = 600;
  auto stamp = [](PageId id) {
    std::string s = std::to_string(id);
    s.resize(8, '#');
    return s;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> aliased{0};
  std::thread checkpointer([&] {
    while (!stop.load()) (void)rig.pool.FlushAll();
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      // Disjoint page-id universe per worker: each page is only ever
      // stamped with its own id, so any foreign stamp is frame aliasing,
      // not a logical write-write conflict.
      for (int i = 0; i < kIters; ++i) {
        const PageId id = 1 + static_cast<PageId>(w) * kPagesPerWorker +
                          static_cast<PageId>(i % kPagesPerWorker);
        const int op = i % 8;
        if (op == 6) {
          rig.pool.Discard(id);
        } else if ((op & 1) != 0) {
          rig.DirtyPage(id, stamp(id));
        } else {
          BufferPool::PageRef ref = rig.pool.Pin(id);
          std::shared_lock<sim::SharedMutex> latch(ref.latch());
          const std::string& pg = ref.bytes();
          // Empty = never flushed before a Discard dropped it; anything
          // else must be this page's own stamp.
          if (pg.size() >= kPageHeaderSize + 8 &&
              pg.compare(kPageHeaderSize, 8, stamp(id)) != 0) {
            aliased.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true);
  checkpointer.join();
  EXPECT_EQ(aliased.load(), 0) << "a frame served two live pages";
}

// --------------------------------------------------------------------------
// Pager ping-pong slots.
// --------------------------------------------------------------------------

TEST(Pager, TornWriteFallsBackToSurvivingSlot) {
  FaultInjector fault;
  auto store = std::make_shared<DurableStore>();
  Pager pager(store, 4096, &fault, nullptr);

  ASSERT_TRUE(pager.Write(7, "version-one", 10).ok());

  FaultInjector::Spec spec;
  spec.action = FaultInjector::Action::kError;
  fault.Arm(failpoints::kSqldbPagePartialWrite, spec);
  EXPECT_FALSE(pager.Write(7, "version-two", 20).ok());
  EXPECT_GE(pager.stats().torn_writes, 1u);

  // The torn slot fails its CRC; the previous good version is the page.
  std::string out;
  pager.Read(7, &out);
  EXPECT_EQ(out, "version-one");

  // A retried write (post-"repair") targets the torn slot and wins.
  fault.Disarm(failpoints::kSqldbPagePartialWrite);
  ASSERT_TRUE(pager.Write(7, "version-two", 20).ok());
  pager.Read(7, &out);
  EXPECT_EQ(out, "version-two");
}

TEST(Pager, EqualVersionRewriteStrictlySupersedes) {
  // Regression: recovery undo can write a page whose LSN ties the copy a
  // fuzzy checkpoint already flushed (the undo is logical and the page
  // header LSN is a monotone max).  The slot version is a recency
  // discriminator, so the NEWER write must always win the read -- otherwise
  // the stale pre-undo image resurrects an undone loser row after the next
  // crash.
  auto store = std::make_shared<DurableStore>();
  Pager pager(store, 4096, nullptr, nullptr);
  ASSERT_TRUE(pager.Write(9, "stale", 5).ok());
  ASSERT_TRUE(pager.Write(9, "fresh", 5).ok());
  std::string out;
  pager.Read(9, &out);
  EXPECT_EQ(out, "fresh");
  ASSERT_TRUE(pager.Write(9, "freshest", 5).ok());
  pager.Read(9, &out);
  EXPECT_EQ(out, "freshest");
}

// --------------------------------------------------------------------------
// Database-level: torn checkpoint anchors, bigger-than-pool workloads.
// --------------------------------------------------------------------------

DatabaseOptions SmallOpts(size_t pool_pages = 1024) {
  DatabaseOptions o;
  o.lock_timeout_micros = 500 * 1000;
  o.buffer_pool_pages = pool_pages;
  return o;
}

TableSchema FileSchema() {
  TableSchema s;
  s.name = "files";
  s.columns = {{"name", ValueType::kString, false},
               {"state", ValueType::kString, false}};
  return s;
}

std::vector<std::string> Names(Database* db) {
  TableId t = *db->TableByName("files");
  Transaction* r = db->Begin();
  auto rows = db->Select(r, t, {});
  EXPECT_TRUE(rows.ok());
  std::vector<std::string> names;
  for (const Row& row : *rows) names.push_back(row[0].as_string());
  EXPECT_TRUE(db->Commit(r).ok());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(TornCheckpoint, EveryPrefixBoundaryFallsBackToPreviousAnchor) {
  // Build one scenario to learn the image size, then replay it once per
  // prefix length p, simulating a crash that tore the in-flight anchor
  // write after exactly p bytes.  Recovery must CRC-reject the torn anchor,
  // fall back to the previous one plus log redo, and still undo the loser.
  size_t image_size = 0;
  for (size_t prefix = 0;; ++prefix) {
    auto db = std::move(Database::Open(SmallOpts())).value();
    TableId t = *db->CreateTable(FileSchema());
    ASSERT_TRUE(db->CreateIndex(IndexDef{"ix", t, {0}, true}).ok());
    TableSchema aux_schema;
    aux_schema.name = "aux";
    aux_schema.columns = {{"k", ValueType::kInt, false}};
    TableId aux = *db->CreateTable(aux_schema);

    Transaction* base = db->Begin();
    ASSERT_TRUE(db->Insert(base, t, {Value("a"), Value("linked")}).ok());
    ASSERT_TRUE(db->Insert(base, t, {Value("b"), Value("linked")}).ok());
    ASSERT_TRUE(db->Commit(base).ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // anchor A; log truncated to A

    // Post-anchor traffic, all newer than anchor A: a committed insert, a
    // loser insert, and a committed write on the lock-disjoint aux table
    // whose commit forces the loser's records into the durable log (force
    // is global across WAL shards).
    Transaction* winner = db->Begin();
    ASSERT_TRUE(db->Insert(winner, t, {Value("c"), Value("linked")}).ok());
    ASSERT_TRUE(db->Commit(winner).ok());
    Transaction* loser = db->Begin();
    ASSERT_TRUE(db->Insert(loser, t, {Value("z"), Value("loser")}).ok());
    Transaction* forcer = db->Begin();
    ASSERT_TRUE(db->Insert(forcer, aux, {Value(int64_t{1})}).ok());
    ASSERT_TRUE(db->Commit(forcer).ok());

    auto durable = db->SimulateCrash();
    // Simulate a checkpoint whose anchor write tore after `prefix` bytes:
    // the new active slot holds a truncated image with the full image's
    // CRC.  (Log truncation never ran -- exactly the crash-mid-SetCheckpoint
    // state.)  A fresh catalog image for this scenario serves as the
    // in-flight payload.
    const std::string image = durable->checkpoint_image();
    ASSERT_FALSE(image.empty());
    if (image_size == 0) image_size = image.size();
    ASSERT_EQ(image.size(), image_size) << "image size must be deterministic";
    const Lsn anchor_lsn = durable->checkpoint_lsn();
    durable->SetCheckpoint(image, anchor_lsn);
    durable->CorruptActiveCheckpoint(prefix);

    auto reopened = Database::Open(SmallOpts(), durable);
    ASSERT_TRUE(reopened.ok()) << "prefix " << prefix << ": "
                               << reopened.status().ToString();
    auto db2 = std::move(reopened).value();
    EXPECT_EQ(Names(db2.get()), (std::vector<std::string>{"a", "b", "c"}))
        << "prefix " << prefix;
    EXPECT_TRUE(db2->CheckIntegrity().ok()) << "prefix " << prefix;
    if (prefix >= image_size) break;  // last iteration: CRC-clean anchor
  }
}

TEST(PagedStorage, BiggerThanPoolWorkloadSurvivesEvictionAndCrash) {
  constexpr int kRows = 300;
  DatabaseOptions o = SmallOpts(/*pool_pages=*/4);
  o.page_size_bytes = 1024;
  auto db = std::move(Database::Open(o)).value();
  TableId t = *db->CreateTable(FileSchema());
  ASSERT_TRUE(db->CreateIndex(IndexDef{"ix", t, {0}, true}).ok());

  for (int i = 0; i < kRows; i += 10) {
    Transaction* txn = db->Begin();
    for (int j = i; j < i + 10; ++j) {
      ASSERT_TRUE(
          db->Insert(txn, t, {Value("f" + std::to_string(1000 + j)), Value("linked")}).ok());
    }
    ASSERT_TRUE(db->Commit(txn).ok());
  }

  EXPECT_EQ(Names(db.get()).size(), static_cast<size_t>(kRows));
  EXPECT_TRUE(db->CheckIntegrity().ok());
  const BufferPool::Stats s = db->buffer_pool_stats();
  EXPECT_GT(s.evictions, 0u) << "workload must not fit the 4-page pool";
  EXPECT_GT(s.hits, 0u);

  auto durable = db->SimulateCrash();
  auto db2 = std::move(Database::Open(o, durable)).value();
  EXPECT_EQ(Names(db2.get()).size(), static_cast<size_t>(kRows));
  EXPECT_TRUE(db2->CheckIntegrity().ok());
}

TEST(PagedStorage, ConcurrentDmlOnTinyPool) {
  // Stress the pool's latch/eviction paths from several writers at once;
  // run under TSan in CI.  Disjoint key ranges per thread keep lock waits
  // out of the picture -- the contention under test is frame-level.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  DatabaseOptions o = SmallOpts(/*pool_pages=*/4);
  o.page_size_bytes = 1024;
  auto db = std::move(Database::Open(o)).value();
  TableId t = *db->CreateTable(FileSchema());
  ASSERT_TRUE(db->CreateIndex(IndexDef{"ix", t, {0}, true}).ok());

  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string name = "t" + std::to_string(ti) + "-" + std::to_string(i);
        Transaction* txn = db->Begin();
        if (!db->Insert(txn, t, {Value(name), Value("linked")}).ok()) {
          db->Rollback(txn);
          continue;
        }
        if (i % 3 == 0) {
          (void)db->Update(txn, t, {Pred::Eq("name", name)},
                           {{"state", Operand("unlinked")}});
        }
        ASSERT_TRUE(db->Commit(txn).ok());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(Names(db.get()).size(),
            static_cast<size_t>(kThreads * kOpsPerThread));
  EXPECT_TRUE(db->CheckIntegrity().ok());
  EXPECT_GT(db->buffer_pool_stats().evictions, 0u);
}

}  // namespace
}  // namespace datalinks::sqldb
