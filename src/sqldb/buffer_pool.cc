#include "sqldb/buffer_pool.h"

#include <algorithm>
#include <cassert>

#include "common/trace.h"
#include "sqldb/wal.h"

namespace datalinks::sqldb {

BufferPool::BufferPool(Pager* pager, size_t capacity_pages,
                       metrics::Registry* registry, const std::string& prefix)
    : pager_(pager), capacity_(std::max<size_t>(capacity_pages, 4)) {
  if (registry != nullptr) {
    hits_ = registry->GetCounter(prefix + ".hits");
    misses_ = registry->GetCounter(prefix + ".misses");
    evictions_ = registry->GetCounter(prefix + ".evictions");
    flushes_ = registry->GetCounter(prefix + ".flushes");
  }
}

BufferPool::~BufferPool() = default;

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    id_ = o.id_;
    o.pool_ = nullptr;
  }
  return *this;
}

std::string& BufferPool::PageRef::bytes() {
  return pool_->frames_[frame_].bytes;
}

sim::SharedMutex& BufferPool::PageRef::latch() {
  return pool_->frames_[frame_].content;
}

void BufferPool::PageRef::MarkDirtyProvisional(Lsn rec_lsn_hint) {
  BufferPool* p = pool_;
  Frame& f = p->frames_[frame_];
  std::lock_guard<sim::Mutex> lk(p->mu_);
  // rec_lsn lower-bounds the LSN the pending append will be assigned: LSNs
  // are monotone, so last_lsn + 1 is conservative.  If the append then
  // fails the page is spuriously dirty — harmless.
  const Lsn lower = rec_lsn_hint != kInvalidLsn
                        ? rec_lsn_hint
                        : (p->wal_ != nullptr ? p->wal_->last_lsn() + 1 : 1);
  if (!f.dirty) {
    f.dirty = true;
    f.rec_lsn = lower;
  } else if (f.rec_lsn == kInvalidLsn || lower < f.rec_lsn) {
    f.rec_lsn = lower;
  }
  ++f.dirty_epoch;
}

void BufferPool::PageRef::NoteAppliedLsn(Lsn lsn) {
  BufferPool* p = pool_;
  Frame& f = p->frames_[frame_];
  std::lock_guard<sim::Mutex> lk(p->mu_);
  f.page_lsn = std::max(f.page_lsn, lsn);
}

void BufferPool::PageRef::Release() {
  if (pool_ == nullptr) return;
  pool_->Unpin(frame_);
  pool_ = nullptr;
}

void BufferPool::Unpin(size_t fi) {
  std::lock_guard<sim::Mutex> lk(mu_);
  Frame& f = frames_[fi];
  assert(f.pins > 0);
  --f.pins;
  f.ref = true;
}

size_t BufferPool::EvictLocked(std::unique_lock<sim::Mutex>& lk) {
  // Clock sweep with an inline dirty-writeback attempt.  Two full passes:
  // the first clears ref bits, the second takes any unpinned frame.
  const size_t n = frames_.size();
  size_t dirty_candidate = SIZE_MAX;
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame& f = frames_[clock_hand_];
    const size_t fi = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (f.id == kInvalidPageId || f.pins > 0 || f.io) continue;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    if (!f.dirty) {
      table_.erase(f.id);
      f.id = kInvalidPageId;
      f.bytes.clear();
      stats_.evictions++;
      if (evictions_ != nullptr) evictions_->Add(1);
      return fi;
    }
    if (dirty_candidate == SIZE_MAX) dirty_candidate = fi;
  }
  if (dirty_candidate == SIZE_MAX) return SIZE_MAX;
  // Write the dirty victim back.  FlushFrame drops mu_ for the I/O; on
  // success it also removes the frame from the table for us.  Pass the
  // victim's identity: the frame may be Discarded, checkpoint-cleaned, or
  // claimed by a concurrent evictor once mu_ drops, and FlushFrame only
  // succeeds if it still holds this exact page.
  const size_t fi = dirty_candidate;
  const PageId victim = frames_[fi].id;
  lk.unlock();
  Status st = FlushFrame(fi, /*for_evict=*/true, victim);
  lk.lock();
  if (!st.ok()) return SIZE_MAX;
  stats_.evictions++;
  if (evictions_ != nullptr) evictions_->Add(1);
  return fi;
}

BufferPool::PageRef BufferPool::Pin(PageId id) {
  std::unique_lock<sim::Mutex> lk(mu_);
  while (true) {
    auto it = table_.find(id);
    if (it != table_.end()) {
      Frame& f = frames_[it->second];
      if (f.io) {
        // A read or writeback is in flight; wait and re-look the page up —
        // the frame may have been evicted/reused by the time io clears.
        io_cv_.wait(lk);
        continue;
      }
      ++f.pins;
      f.ref = true;
      stats_.hits++;
      if (hits_ != nullptr) hits_->Add(1);
      PageRef ref;
      ref.pool_ = this;
      ref.frame_ = it->second;
      ref.id_ = id;
      return ref;
    }
    // Miss: grab a frame (free list, then a new frame while the pool is
    // below capacity, then eviction, then overflow).
    size_t fi;
    if (!free_frames_.empty()) {
      fi = free_frames_.back();
      free_frames_.pop_back();
    } else if (frames_.size() < capacity_) {
      frames_.emplace_back();
      fi = frames_.size() - 1;
    } else {
      fi = EvictLocked(lk);
      if (fi == SIZE_MAX) {
        // Everything is pinned or unflushable: degrade gracefully by
        // growing past capacity instead of deadlocking the caller.
        frames_.emplace_back();
        fi = frames_.size() - 1;
        stats_.overflow_frames++;
      } else if (table_.count(id) != 0) {
        // The eviction I/O window let another thread cache `id`; recycle
        // the frame we just freed and retry the lookup.
        free_frames_.push_back(fi);
        continue;
      }
    }
    Frame& f = frames_[fi];
    f.id = id;
    f.pins = 1;
    f.ref = true;
    f.dirty = false;
    f.io = true;  // read in progress: lookups of `id` wait on io_cv_
    f.rec_lsn = kInvalidLsn;
    f.page_lsn = kInvalidLsn;
    table_[id] = fi;
    stats_.misses++;
    if (misses_ != nullptr) misses_->Add(1);
    lk.unlock();
    const int64_t m0 = trace::AmbientNowMicros();
    pager_->Read(id, &f.bytes);
    trace::Interval("sqldb.pool.miss", m0, trace::AmbientNowMicros());
    const Lsn disk_lsn =
        f.bytes.size() >= kPageHeaderSize ? page::GetLsn(f.bytes) : kInvalidLsn;
    lk.lock();
    f.io = false;
    f.page_lsn = disk_lsn;
    io_cv_.notify_all();
    PageRef ref;
    ref.pool_ = this;
    ref.frame_ = fi;
    ref.id_ = id;
    return ref;
  }
}

Status BufferPool::FlushFrame(size_t fi, bool for_evict, PageId expect) {
  std::unique_lock<sim::Mutex> lk(mu_);
  Frame& f = frames_[fi];
  if (for_evict) {
    // Success here means "frame fi is free and unmapped, reuse it".  The
    // caller chose the victim before re-locking mu_, so anything may have
    // happened to the frame since: verify it still holds the victim page,
    // unpinned and not mid-IO, before touching it.
    if (f.id != expect || f.id == kInvalidPageId) {
      return Status::Unavailable("frame recycled before evict");
    }
    if (f.io) return Status::Unavailable("frame io in progress");
    if (f.pins > 0) return Status::Unavailable("frame pinned");
    if (!f.dirty) {
      // A checkpoint cleaned the victim during the window: evict directly.
      table_.erase(f.id);
      f.id = kInvalidPageId;
      f.bytes.clear();
      return Status::OK();
    }
  } else {
    if (f.id == kInvalidPageId || !f.dirty) return Status::OK();
    if (f.io) return Status::OK();  // another flusher's write is happening
  }
  const PageId id = f.id;
  f.io = true;
  lk.unlock();

  // Copy the bytes under a SHARED content latch (mutators hold it
  // exclusively), then force the WAL through the LSN the copy actually
  // carries — copy first, force second, so a mutation applied between the
  // two cannot slip an unforced LSN onto disk.
  std::string copy;
  uint64_t epoch;
  Lsn copy_lsn;
  {
    std::shared_lock<sim::SharedMutex> cl(f.content);
    copy = f.bytes;
    std::lock_guard<sim::Mutex> slk(mu_);
    epoch = f.dirty_epoch;
    copy_lsn = copy.size() >= kPageHeaderSize ? page::GetLsn(copy) : kInvalidLsn;
  }
  Status st = Status::OK();
  if (wal_ != nullptr && !IsTempPage(id) && copy_lsn != kInvalidLsn) {
    st = wal_->ForceTo(copy_lsn);
  }
  if (st.ok() && !copy.empty()) st = pager_->Write(id, copy, copy_lsn);

  lk.lock();
  f.io = false;
  if (st.ok()) {
    stats_.flushes++;
    if (flushes_ != nullptr) flushes_->Add(1);
    if (f.dirty_epoch == epoch) {
      f.dirty = false;
      f.rec_lsn = kInvalidLsn;
    }
    // else: a mutation landed after our copy; the frame stays dirty with
    // its original rec_lsn (conservative — the copy already covers it, but
    // correctness only needs rec_lsn <= every unflushed mutation).
    if (for_evict && !f.dirty && f.pins == 0) {
      table_.erase(f.id);
      f.id = kInvalidPageId;
      f.bytes.clear();
    } else if (for_evict) {
      st = Status::Unavailable("frame re-dirtied or re-pinned during flush");
    }
  } else {
    stats_.flush_failures++;
  }
  io_cv_.notify_all();
  return st;
}

void BufferPool::Discard(PageId id) {
  std::unique_lock<sim::Mutex> lk(mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return;
  size_t fi = it->second;
  while (frames_[fi].io) {
    io_cv_.wait(lk);
    it = table_.find(id);
    if (it == table_.end()) return;
    fi = it->second;
  }
  Frame& f = frames_[fi];
  assert(f.pins == 0);
  table_.erase(it);
  f.id = kInvalidPageId;
  f.bytes.clear();
  f.dirty = false;
  f.rec_lsn = kInvalidLsn;
  f.page_lsn = kInvalidLsn;
  free_frames_.push_back(fi);
}

Status BufferPool::FlushPage(PageId id) {
  size_t fi;
  {
    std::lock_guard<sim::Mutex> lk(mu_);
    auto it = table_.find(id);
    if (it == table_.end()) return Status::OK();
    fi = it->second;
  }
  return FlushFrame(fi, /*for_evict=*/false);
}

Status BufferPool::FlushAll() {
  std::vector<size_t> dirty;
  {
    std::lock_guard<sim::Mutex> lk(mu_);
    for (size_t i = 0; i < frames_.size(); ++i) {
      const Frame& f = frames_[i];
      if (f.id != kInvalidPageId && f.dirty && !IsTempPage(f.id)) {
        dirty.push_back(i);
      }
    }
  }
  Status first = Status::OK();
  for (size_t fi : dirty) {
    // Re-check identity: the frame may have been evicted/reused since the
    // snapshot; FlushFrame handles clean/invalid frames as no-ops, and
    // flushing a reused (different-page) dirty frame is harmless.
    Status st = FlushFrame(fi, /*for_evict=*/false);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Lsn BufferPool::MinDirtyRecLsn() const {
  std::lock_guard<sim::Mutex> lk(mu_);
  Lsn min_lsn = kInvalidLsn;
  for (const Frame& f : frames_) {
    if (f.id == kInvalidPageId || !f.dirty || IsTempPage(f.id)) continue;
    if (f.rec_lsn == kInvalidLsn) continue;
    if (min_lsn == kInvalidLsn || f.rec_lsn < min_lsn) min_lsn = f.rec_lsn;
  }
  return min_lsn;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<sim::Mutex> lk(mu_);
  Stats s = stats_;
  s.cached_pages = table_.size();
  for (const Frame& f : frames_) {
    if (f.id != kInvalidPageId && f.dirty) s.dirty_pages++;
  }
  return s;
}

}  // namespace datalinks::sqldb
