#include "common/sim.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "common/trace.h"

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define DLX_TSAN_FIBERS 1
#endif

namespace datalinks::sim {

namespace {
// The simulation discovery hook: set while a sim task's fiber runs, null
// on every real thread (and on the Run() thread between switches).
// g_task is the SimExecutor::Task* of the current task (opaque here; cast
// inside member functions).
thread_local SimExecutor* g_exec = nullptr;
thread_local void* g_task = nullptr;

// Usable stack per task fiber, plus one PROT_NONE guard page below it so
// an overflow faults instead of scribbling over a neighbour.  Only touched
// pages are ever backed.
constexpr size_t kFiberStackBytes = 512 * 1024;
}  // namespace

SimExecutor* CurrentSimExecutor() noexcept { return g_exec; }

struct SimExecutor::Fiber {
  ucontext_t ctx{};
  char* map = nullptr;  // guard page + stack; null for the Run() thread
  size_t map_bytes = 0;
  void* tsan = nullptr;  // TSan's fiber handle (TSan builds only)

  ~Fiber() {
#ifdef DLX_TSAN_FIBERS
    if (map != nullptr) __tsan_destroy_fiber(tsan);
#endif
    if (map != nullptr) munmap(map, map_bytes);
  }
};

// ---------------------------------------------------------------------------
// TaskHandle
// ---------------------------------------------------------------------------

TaskHandle& TaskHandle::operator=(TaskHandle&& o) noexcept {
  if (this != &o) {
    if (joinable()) join();
    thread_ = std::move(o.thread_);
    exec_ = o.exec_;
    task_id_ = o.task_id_;
    sim_joinable_ = o.sim_joinable_;
    o.exec_ = nullptr;
    o.sim_joinable_ = false;
  }
  return *this;
}

void TaskHandle::join() {
  if (thread_.joinable()) {
    thread_.join();
    return;
  }
  if (sim_joinable_) {
    sim_joinable_ = false;
    exec_->JoinTask(task_id_);
  }
}

RealExecutor* RealExecutor::Instance() {
  static RealExecutor instance;
  return &instance;
}

// ---------------------------------------------------------------------------
// VirtualClock
// ---------------------------------------------------------------------------

int64_t VirtualClock::NowMicros() const { return exec_->NowVirtualMicros(); }

void VirtualClock::SleepForMicros(int64_t micros) {
  if (micros <= 0) return;
  if (g_exec == exec_) {
    exec_->SleepCurrent(micros);
  } else {
    // Setup/teardown code outside Run(): nothing else is scheduled, so a
    // sleep is just a clock advance (the pre-fix SimClock behaviour).
    exec_->AdvanceVirtual(micros);
  }
}

// ---------------------------------------------------------------------------
// SimExecutor
// ---------------------------------------------------------------------------

SimExecutor::SimExecutor(uint64_t seed)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL), vclock_(this) {}

SimExecutor::~SimExecutor() = default;

uint64_t SimExecutor::SpawnLocked(std::string name, std::function<void()> fn,
                                  std::unique_lock<std::mutex>& lk) {
  (void)lk;
  auto task = std::make_unique<Task>();
  Task* t = task.get();
  t->id = tasks_.size();
  t->name = std::move(name);
  t->owner = this;
  t->fn = std::move(fn);
  t->state = State::kRunnable;
  tasks_.push_back(std::move(task));
  // The fiber is created when the scheduler first picks the task;
  // spawning is not a scheduling point.
  return t->id;
}

TaskHandle SimExecutor::Spawn(std::string name, std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  const uint64_t id = SpawnLocked(std::move(name), std::move(fn), lk);
  return TaskHandle(this, id);
}

void SimExecutor::FiberEntry(unsigned lo, unsigned hi) noexcept {
  Task* t = reinterpret_cast<Task*>((static_cast<uintptr_t>(hi) << 32) | lo);
  SimExecutor* self = t->owner;
  t->fn();
  t->fn = nullptr;
  {
    std::unique_lock<std::mutex> lk(self->mu_);
    t->state = State::kDone;
    for (auto& o : self->tasks_) {
      if (o->state == State::kBlocked && o->kind == BlockKind::kJoin &&
          o->join_target == t->id) {
        o->state = State::kRunnable;
        o->kind = BlockKind::kNone;
      }
    }
    self->done_cv_.notify_all();  // non-sim joiners poll per-task completion
  }
  // The scheduler frees this fiber (and its stack) once we are off it.
  self->SwitchOut(t);
  std::abort();  // a finished task is never picked again
}

SimExecutor::Task* SimExecutor::PickNextLocked(std::unique_lock<std::mutex>& lk) {
  (void)lk;
  for (;;) {
    std::vector<Task*> runnable;
    size_t done = 0;
    for (auto& t : tasks_) {
      if (t->state == State::kRunnable) {
        runnable.push_back(t.get());
      } else if (t->state == State::kDone) {
        ++done;
      }
    }
    if (!runnable.empty()) {
      size_t idx = 0;
      if (replay_active_) {
        if (replay_pos_ < replay_.size() &&
            replay_[replay_pos_] < runnable.size()) {
          idx = replay_[replay_pos_++];
        } else {
          // The recorded schedule stopped matching this binary's behaviour
          // (stale artifact): fall back to the seed's PRNG so the run
          // still terminates, and surface the divergence to the caller.
          diverged_.store(true, std::memory_order_release);
          replay_active_ = false;
          idx = runnable.size() == 1 ? 0 : rng_.Uniform(runnable.size());
        }
      } else {
        idx = runnable.size() == 1 ? 0 : rng_.Uniform(runnable.size());
      }
      decisions_.push_back(static_cast<uint32_t>(idx));
      Task* next = runnable[idx];
      next->state = State::kRunning;
      return next;
    }
    if (done == tasks_.size()) {
      if (replay_active_ && replay_pos_ < replay_.size()) {
        diverged_.store(true, std::memory_order_release);  // leftover decisions
      }
      return nullptr;
    }
    // Nobody is runnable: time advances when idle.  Jump the virtual
    // clock to the nearest deadline and wake everything due.
    int64_t min_deadline = -1;
    for (auto& t : tasks_) {
      if (t->state == State::kBlocked && t->deadline >= 0 &&
          (min_deadline < 0 || t->deadline < min_deadline)) {
        min_deadline = t->deadline;
      }
    }
    if (min_deadline < 0) DeadlockAbortLocked();
    if (min_deadline > now_.load(std::memory_order_acquire)) {
      now_.store(min_deadline, std::memory_order_release);
    }
    for (auto& t : tasks_) {
      if (t->state == State::kBlocked && t->deadline >= 0 &&
          t->deadline <= now_.load(std::memory_order_acquire)) {
        t->state = State::kRunnable;
        t->kind = BlockKind::kNone;
        t->notified = false;  // deadline wake, not a notify
      }
    }
  }
}

void SimExecutor::DeadlockAbortLocked() {
  std::fprintf(stderr,
               "SimExecutor: simulation deadlock — every task is blocked and "
               "no deadline is pending (virtual now=%lld)\n",
               static_cast<long long>(now_.load()));
  for (const auto& t : tasks_) {
    const char* state = t->state == State::kDone      ? "done"
                        : t->state == State::kBlocked ? "blocked"
                        : t->state == State::kRunning ? "running"
                                                      : "runnable";
    const char* kind = t->kind == BlockKind::kSleep  ? "sleep"
                       : t->kind == BlockKind::kCond ? "cond"
                       : t->kind == BlockKind::kJoin ? "join"
                                                     : "-";
    std::fprintf(stderr,
                 "  task %llu '%s': %s/%s deadline=%lld key=%p join=%llu\n",
                 static_cast<unsigned long long>(t->id), t->name.c_str(), state,
                 kind, static_cast<long long>(t->deadline), t->key,
                 static_cast<unsigned long long>(t->join_target));
  }
  std::abort();
}

void SimExecutor::SwitchInto(Task* t) {
  if (!t->fiber) {
    auto f = std::make_unique<Fiber>();
    const size_t guard = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    f->map_bytes = guard + kFiberStackBytes;
    void* map = mmap(nullptr, f->map_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED || mprotect(map, guard, PROT_NONE) != 0) {
      std::perror("SimExecutor: fiber stack");
      std::abort();
    }
    f->map = static_cast<char*>(map);
    getcontext(&f->ctx);
    f->ctx.uc_stack.ss_sp = f->map + guard;
    f->ctx.uc_stack.ss_size = kFiberStackBytes;
    f->ctx.uc_link = nullptr;  // FiberEntry never returns
    const auto bits = reinterpret_cast<uintptr_t>(t);
    makecontext(&f->ctx, reinterpret_cast<void (*)()>(&SimExecutor::FiberEntry),
                2, static_cast<unsigned>(bits & 0xffffffffu),
                static_cast<unsigned>(bits >> 32));
#ifdef DLX_TSAN_FIBERS
    f->tsan = __tsan_create_fiber(0);
    __tsan_set_fiber_name(f->tsan, t->name.c_str());
#endif
    t->fiber = std::move(f);
  }
  // Swap the ambient thread-locals to the task's for the duration of the
  // switch; whatever the Run() thread had comes back afterwards.
  SimExecutor* const outer_exec = g_exec;
  void* const outer_task = g_task;
  trace::TraceContext* const outer_trace =
      trace::ExchangeCurrentTraceContext(t->trace_ctx);
  g_exec = this;
  g_task = t;
#ifdef DLX_TSAN_FIBERS
  __tsan_switch_to_fiber(t->fiber->tsan, 0);
#endif
  swapcontext(&sched_->ctx, &t->fiber->ctx);
  t->trace_ctx = trace::ExchangeCurrentTraceContext(outer_trace);
  g_exec = outer_exec;
  g_task = outer_task;
}

void SimExecutor::SwitchOut(Task* t) {
#ifdef DLX_TSAN_FIBERS
  __tsan_switch_to_fiber(sched_->tsan, 0);
#endif
  swapcontext(&t->fiber->ctx, &sched_->ctx);
}

void SimExecutor::BlockCurrent(BlockKind kind, int64_t deadline,
                               const void* key, uint64_t join_target) {
  Task* t = static_cast<Task*>(g_task);
  {
    std::lock_guard<std::mutex> lk(mu_);
    t->state = State::kBlocked;
    t->kind = kind;
    t->deadline = deadline;
    t->key = key;
    t->join_target = join_target;
    t->notified = false;
  }
  SwitchOut(t);
  std::lock_guard<std::mutex> lk(mu_);
  t->kind = BlockKind::kNone;
  t->deadline = -1;
  t->key = nullptr;
}

void SimExecutor::Yield() {
  Task* t = static_cast<Task*>(g_task);
  {
    std::lock_guard<std::mutex> lk(mu_);
    t->state = State::kRunnable;
  }
  SwitchOut(t);
}

void SimExecutor::SleepCurrent(int64_t micros) {
  if (micros <= 0) {
    Yield();
    return;
  }
  BlockCurrent(BlockKind::kSleep,
               now_.load(std::memory_order_acquire) + micros, nullptr, 0);
}

bool SimExecutor::WaitOnKey(const void* key, int64_t deadline_micros) {
  Task* t = static_cast<Task*>(g_task);
  BlockCurrent(BlockKind::kCond, deadline_micros, key, 0);
  return t->notified;
}

void SimExecutor::NotifyKey(const void* key) {
  std::unique_lock<std::mutex> lk(mu_);
  for (auto& t : tasks_) {
    if (t->state == State::kBlocked && t->kind == BlockKind::kCond &&
        t->key == key) {
      t->state = State::kRunnable;
      t->kind = BlockKind::kNone;
      t->deadline = -1;
      t->key = nullptr;
      t->notified = true;
    }
  }
}

void SimExecutor::JoinTask(uint64_t id) {
  if (g_exec == this) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (tasks_[id]->state == State::kDone) return;
    }
    // No race: the current task keeps running between the check and the
    // park, so the target cannot finish in between.
    BlockCurrent(BlockKind::kJoin, -1, nullptr, id);
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return tasks_[id]->state == State::kDone; });
}

void SimExecutor::AdvanceVirtual(int64_t micros) {
  now_.fetch_add(micros, std::memory_order_acq_rel);
}

void SimExecutor::SetReplay(std::vector<uint32_t> decisions) {
  replay_ = std::move(decisions);
  replay_pos_ = 0;
  replay_active_ = true;
}

void SimExecutor::Run(std::function<void()> root) {
  sched_ = std::make_unique<Fiber>();
#ifdef DLX_TSAN_FIBERS
  sched_->tsan = __tsan_get_current_fiber();
#endif
  std::unique_lock<std::mutex> lk(mu_);
  SpawnLocked("root", std::move(root), lk);
  while (Task* next = PickNextLocked(lk)) {
    lk.unlock();
    SwitchInto(next);
    lk.lock();
    if (next->state == State::kDone) next->fiber.reset();
  }
}

// ---------------------------------------------------------------------------
// Blocking primitives
// ---------------------------------------------------------------------------

// Sim-mode locking: contention parks the task on the primitive's address
// and every release notifies it.  The retry loop (rather than a handoff)
// keeps real and sim semantics identical: whoever is scheduled first after
// the wake wins the lock.

void Mutex::lock() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.lock();
    return;
  }
  while (sim_held_) e->WaitOnKey(this, -1);
  sim_held_ = true;
}

bool Mutex::try_lock() {
  if (g_exec == nullptr) return mu_.try_lock();
  if (sim_held_) return false;
  sim_held_ = true;
  return true;
}

void Mutex::unlock() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.unlock();
    return;
  }
  sim_held_ = false;
  e->NotifyKey(this);
}

void SharedMutex::lock() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.lock();
    return;
  }
  while (sim_state_ != 0) e->WaitOnKey(this, -1);
  sim_state_ = -1;
}

bool SharedMutex::try_lock() {
  if (g_exec == nullptr) return mu_.try_lock();
  if (sim_state_ != 0) return false;
  sim_state_ = -1;
  return true;
}

void SharedMutex::unlock() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.unlock();
    return;
  }
  sim_state_ = 0;
  e->NotifyKey(this);
}

void SharedMutex::lock_shared() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.lock_shared();
    return;
  }
  while (sim_state_ < 0) e->WaitOnKey(this, -1);
  ++sim_state_;
}

bool SharedMutex::try_lock_shared() {
  if (g_exec == nullptr) return mu_.try_lock_shared();
  if (sim_state_ < 0) return false;
  ++sim_state_;
  return true;
}

void SharedMutex::unlock_shared() {
  SimExecutor* e = g_exec;
  if (e == nullptr) {
    mu_.unlock_shared();
    return;
  }
  --sim_state_;
  e->NotifyKey(this);
}

}  // namespace datalinks::sim
