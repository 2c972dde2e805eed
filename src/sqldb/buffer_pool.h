// Buffer pool: up to `capacity` in-memory frames caching pages, with clock
// (second-chance) eviction, pin counts, a dirty-page table and the ARIES
// WAL-ahead rule — a dirty page is written back only after the log is
// durable through the page's LSN.
//
// Latching contract (matches the engine's three-tier discipline):
//  - PageRef::latch() is the frame CONTENT latch.  Heap/B+tree writers hold
//    it exclusively while mutating page bytes; readers and the flusher hold
//    it shared.  ALL access to bytes() happens under it.
//  - The pool's internal mutex is a leaf lock below the content latch: it
//    is never held while acquiring a content latch or doing I/O.
//  - Evicting/flushing a frame marks it io_in_progress under the mutex,
//    releases the mutex, then does WAL-force + page write under a SHARED
//    content latch; concurrent Pin() of that page waits on a condvar.
//
// Dirty bookkeeping closes the append/apply race: MarkDirtyProvisional()
// is called BEFORE the WAL append for the mutation (recording a rec_lsn
// lower bound of last_lsn + 1), so a fuzzy checkpoint computing
// MinDirtyRecLsn() can never miss a record that is appended but not yet
// reflected in the dirty table.
//
// Pin() never fails and never blocks on pool pressure: when every frame is
// pinned or unflushable, it allocates a temporary OVERFLOW frame beyond
// capacity (counted in stats — bounded in practice by concurrent pin
// holders, which the executor keeps O(statements)).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/sim.h"
#include "common/status.h"
#include "sqldb/page.h"
#include "sqldb/pager.h"

namespace datalinks::sqldb {

class WriteAheadLog;

class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t flushes = 0;
    uint64_t flush_failures = 0;
    uint64_t overflow_frames = 0;  // pins served beyond capacity
    size_t cached_pages = 0;
    size_t dirty_pages = 0;
  };

  /// `prefix` names the metrics counters (sqldb.pool.{hit,miss,...}); pass
  /// a null registry for metric-less private pools (unit tests, the default
  /// BTree constructor).
  BufferPool(Pager* pager, size_t capacity_pages,
             metrics::Registry* registry = nullptr,
             const std::string& prefix = "sqldb.pool");
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The WAL whose durability gates dirty-page writeback.  Set once right
  /// after the WAL is constructed; a pool with no WAL (index-only/private)
  /// flushes without forcing.
  void set_wal(WriteAheadLog* wal) { wal_ = wal; }

  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&& o) noexcept { *this = std::move(o); }
    PageRef& operator=(PageRef&& o) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef() { Release(); }

    explicit operator bool() const { return pool_ != nullptr; }
    PageId id() const { return id_; }
    /// Frame bytes; every access must hold latch().  Empty when the page
    /// was never written — the caller runs page::Init under an exclusive
    /// latch before use.
    std::string& bytes();
    sim::SharedMutex& latch();

    /// Enter the frame into the dirty table BEFORE the WAL append of the
    /// mutation (see header comment).  Caller holds latch() exclusively.
    /// `rec_lsn_hint` overrides the last_lsn+1 lower bound when the
    /// mutation's LSN is already known (recovery redo).
    void MarkDirtyProvisional(Lsn rec_lsn_hint = kInvalidLsn);
    /// Record the mutation's assigned LSN (mirrors the page-header LSN for
    /// the WAL-ahead check).  Caller holds latch() exclusively.
    void NoteAppliedLsn(Lsn lsn);

    void Release();

   private:
    friend class BufferPool;
    BufferPool* pool_ = nullptr;
    size_t frame_ = 0;
    PageId id_ = kInvalidPageId;
  };

  /// Pins `id`, reading it from the pager on a miss (evicting if needed).
  PageRef Pin(PageId id);

  /// Drops a cached page without writing it back (dropped tables, temp
  /// pages of a destroyed index).  The page must be unpinned.
  void Discard(PageId id);

  /// Writes one dirty page back (WAL-force first).  OK if clean/uncached.
  Status FlushPage(PageId id);

  /// Flushes every dirty DATA page (fuzzy checkpoint).  Best effort: a
  /// failed write leaves the page dirty; the first error is returned after
  /// attempting the rest.  Temp pages are skipped (they are not durable).
  Status FlushAll();

  /// Oldest rec_lsn over dirty data pages — the fuzzy checkpoint's redo
  /// floor; kInvalidLsn when none are dirty.
  Lsn MinDirtyRecLsn() const;

  Stats stats() const;
  size_t capacity() const { return capacity_; }
  Pager* pager() { return pager_; }

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    std::string bytes;
    uint32_t pins = 0;
    bool dirty = false;
    bool io = false;   // read or writeback in flight
    bool ref = false;  // clock second-chance bit
    Lsn rec_lsn = kInvalidLsn;   // oldest LSN that dirtied this copy
    Lsn page_lsn = kInvalidLsn;  // newest LSN applied (mirror of header)
    uint64_t dirty_epoch = 0;    // bumped per MarkDirty; guards flush races
    // sim::SharedMutex: the flusher holds it shared across the WAL force
    // (a simulation yield point), so contenders must park in the
    // scheduler rather than the kernel.
    sim::SharedMutex content;
  };

  /// Picks an evictable frame (mu_ held): clean unpinned victim preferred;
  /// a dirty one is flushed (mu_ released during I/O).  Returns the frame
  /// index with its slot cleared, or SIZE_MAX when nothing can be evicted.
  size_t EvictLocked(std::unique_lock<sim::Mutex>& lk);

  /// Flush machinery shared by FlushPage/FlushAll/eviction.  mu_ NOT held.
  /// `for_evict` additionally removes the frame from the table on success.
  /// `expect` (eviction only): the page the caller chose as victim.  The
  /// frame is re-verified under mu_ — the window between the evictor
  /// dropping mu_ and this call re-acquiring it can see the frame
  /// Discarded, cleaned by a checkpoint, or claimed by another evictor,
  /// and reusing it then would map two pages onto one frame.
  Status FlushFrame(size_t fi, bool for_evict, PageId expect = kInvalidPageId);

  void Unpin(size_t fi);

  Pager* pager_;
  WriteAheadLog* wal_ = nullptr;
  const size_t capacity_;

  // sim:: types: Pin() waits out in-flight I/O and eviction forces the
  // WAL — both simulation yield points.
  mutable sim::Mutex mu_;
  sim::CondVar io_cv_;
  // Frames are created on demand up to capacity_, then by overflow only;
  // a deque grows without moving them.
  std::deque<Frame> frames_;
  std::unordered_map<PageId, size_t> table_;
  std::vector<size_t> free_frames_;  // Discarded frames, reused first
  size_t clock_hand_ = 0;

  metrics::Counter* hits_ = nullptr;
  metrics::Counter* misses_ = nullptr;
  metrics::Counter* evictions_ = nullptr;
  metrics::Counter* flushes_ = nullptr;
  Stats stats_;
};

}  // namespace datalinks::sqldb
