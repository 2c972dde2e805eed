// Per-transaction tracing.  The host session mints a trace id at Begin and
// stamps it on every rpc request (DlfmRequest::meta); each component records
// timed spans (host.begin, dlfm.prepare, dlfm.harden, sqldb.lock.wait,
// dlfm.archive.copy, ...) into a bounded ring.
//
// Spans carry a process-unique span id, a parent span id (0 = root), a start
// timestamp and a duration.  Durations come from the *injected* Clock of the
// component that opened the span — never from the steady-clock shortcut in
// metrics — so simulation runs produce byte-identical virtual-time spans.
//
// Trace context is ambient: a component entry point (host session statement,
// DLFM api dispatch) installs a thread-local TraceContextScope naming the
// trace id, txn, ring, clock and component, and everything beneath it — the
// lock manager, the WAL force path, the buffer pool — attributes child spans
// via SpanScope / Point / Interval without any signature changes.  Under the
// deterministic simulator every task is a fiber on one thread, and
// SimExecutor swaps the ambient context at each fiber switch
// (ExchangeCurrentTraceContext), so it stays per-task.
//
// The ring is deliberately tiny and lossy: a fixed-capacity buffer that drops
// the oldest event on overflow, so tracing can stay on in production paths.
// `TraceRing::Default()` is shared process-wide — in this simulated world the
// host and all DLFMs live in one process, so one default ring sees a
// transaction end to end; tests that need isolation pass their own ring via
// the component options.
//
// Span events are also routed through the logger at debug level (component
// "trace"), so `Logger::SetLevel(kDebug)` tails spans live.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace datalinks {
class Clock;
namespace metrics {
class Counter;
class Registry;
}  // namespace metrics
}  // namespace datalinks

namespace datalinks::trace {

using TraceId = uint64_t;
using SpanId = uint64_t;

/// Process-wide monotonic trace-id mint; never returns 0 (0 = "no trace").
TraceId NextTraceId();

/// Process-wide monotonic span-id mint; never returns 0 (0 = "no parent").
SpanId NextSpanId();

/// Rewinds the trace-id mint.  ONLY for deterministic-simulation tests:
/// byte-identical trace dumps across runs need the ids to restart at the
/// same point for every scenario.  Never call concurrently with traffic.
void ResetNextTraceIdForTest(TraceId next = 1);

/// Rewinds the span-id mint; same rules as ResetNextTraceIdForTest.
void ResetNextSpanIdForTest(SpanId next = 1);

struct SpanEvent {
  TraceId trace = 0;
  SpanId span = 0;         // unique per process, 0 never minted
  SpanId parent = 0;       // enclosing span, 0 = root of its trace
  uint64_t txn = 0;        // global transaction id, 0 if not applicable
  std::string name;        // e.g. "dlfm.prepare"
  std::string component;   // e.g. "hostdb", "srv1"
  int64_t ts_micros = 0;   // span start, from the component's injected Clock
  int64_t dur_micros = 0;  // 0 = instantaneous point event
};

class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceRing(size_t capacity = kDefaultCapacity);

  /// Point event: mints a span id, parent 0.  Kept for callers that carry
  /// explicit trace/txn ids (daemons resolving TraceForTxn).
  void Record(TraceId trace, uint64_t txn, const std::string& name,
              const std::string& component, int64_t ts_micros);

  /// Fully specified span (SpanScope and the ambient helpers land here).
  void Record(SpanEvent ev);

  /// Buffered events, oldest first.
  std::vector<SpanEvent> Snapshot() const;
  /// Events for one trace id, oldest first.
  std::vector<SpanEvent> ForTrace(TraceId trace) const;

  /// {"capacity":n,"dropped":n,"spans":[{"trace":..,"span":..,"parent":..,
  ///   "txn":..,"name":..,"component":..,"ts_micros":..,"dur_micros":..},...]}
  std::string DumpJson() const;

  size_t capacity() const { return capacity_; }
  /// Events evicted to make room (total recorded - buffered).
  uint64_t dropped() const;
  void Clear();

  /// Mirrors drops into a `trace.ring.dropped` counter in `reg` so a lossy
  /// ring is visible in stats snapshots, not just in the dump.  A shared
  /// ring bound from several components keeps the last binding.
  void BindMetrics(metrics::Registry* reg);

  /// Process-global ring shared by components constructed without one.
  static const std::shared_ptr<TraceRing>& Default();

 private:
  const size_t capacity_;
  std::atomic<metrics::Counter*> dropped_counter_{nullptr};
  mutable std::mutex mu_;
  std::vector<SpanEvent> ring_;  // grows to capacity_, then circular
  size_t next_ = 0;              // write cursor once full
  uint64_t total_ = 0;           // events ever recorded
};

/// Ambient per-thread trace context (per task under a sim::SimExecutor,
/// which swaps it at every fiber switch).  trace == 0 means "not traced": every
/// helper below is then a cheap no-op (one thread-local load).
struct TraceContext {
  TraceId trace = 0;
  uint64_t txn = 0;
  TraceRing* ring = nullptr;
  const Clock* clock = nullptr;
  std::string component;
  SpanId current = 0;  // innermost open SpanScope; parent for new children
};

/// Installs the ambient context for the current thread; restores the previous
/// one on destruction.  Install at component entry points (one per host
/// statement / DLFM api call), not per span.
class TraceContextScope {
 public:
  TraceContextScope(TraceId trace, uint64_t txn, TraceRing* ring,
                    const Clock* clock, std::string component);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext ctx_;
  TraceContext* prev_;
};

/// Current thread's ambient context, or nullptr if none installed.
TraceContext* CurrentTraceContext();

/// Installs `ctx` as the current thread's ambient context and returns the
/// one it replaces.  The sim executor swaps contexts at every fiber switch
/// so each sim task keeps its own; everything else uses TraceContextScope.
TraceContext* ExchangeCurrentTraceContext(TraceContext* ctx);

/// NowMicros from the ambient clock, or 0 when the thread is untraced.  Lets
/// engine code bracket a wait without touching any clock on the fast path.
int64_t AmbientNowMicros();

/// Records an instantaneous event against the ambient context (no-op when
/// untraced), parented under the innermost open SpanScope.
void Point(const std::string& name);

/// Records a completed interval [start_micros, end_micros] against the
/// ambient context — for wait sites that bracketed the time themselves via
/// AmbientNowMicros.  No-op when untraced or start_micros == 0.
void Interval(const std::string& name, int64_t start_micros,
              int64_t end_micros);

/// RAII timed span over the ambient context.  Opens at construction (start
/// timestamp from the ambient clock), records at destruction, and makes
/// itself the parent of any span opened underneath it on this thread.
class SpanScope {
 public:
  explicit SpanScope(std::string name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Span id, 0 when the thread is untraced (scope is a no-op).
  SpanId id() const { return span_; }

 private:
  TraceContext* ctx_ = nullptr;  // nullptr = disabled
  std::string name_;
  SpanId span_ = 0;
  SpanId saved_parent_ = 0;
  int64_t t0_ = 0;
};

}  // namespace datalinks::trace
