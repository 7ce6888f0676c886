#include "runner/scheduler.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/parallel.h"

namespace metaopt::runner {

namespace {

// Identity of the current thread as a scheduler worker (-1 / nullptr
// when it is an external thread). Keyed by scheduler instance out of
// caution, though only the global() instance exists today.
thread_local Scheduler* t_sched = nullptr;
thread_local int t_sched_index = -1;

const obs::Counter c_tasks = obs::counter("sched.tasks");
const obs::Counter c_steals = obs::counter("sched.steals");
const obs::Counter c_inline_joins = obs::counter("sched.inline_joins");
const obs::Gauge g_threads = obs::gauge("sched.threads");
const obs::Histogram h_task_depth = obs::histogram("sched.task_depth");

}  // namespace

Scheduler& Scheduler::global() {
  // Function-local static: constructed on first use, destroyed (workers
  // joined) after main() returns. Every user drains its own work before
  // then — ThreadPool in its destructor, the B&B before run() returns —
  // so the queues are empty at teardown.
  static Scheduler sched;
  return sched;
}

int Scheduler::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  const int n = num_workers_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) workers_[i]->thread.join();
}

void Scheduler::ensure_threads(int n) {
  n = std::clamp(n, 1, kMaxWorkers);
  if (num_workers_.load(std::memory_order_acquire) >= n) return;
  std::lock_guard<std::mutex> grow(grow_mutex_);
  const int cur = num_workers_.load(std::memory_order_relaxed);
  if (cur >= n) return;
  for (int i = cur; i < n; ++i) workers_[i] = std::make_unique<Worker>();
  // Publish the constructed slots before starting their threads: a
  // thief that observes the new count must find fully-built deques.
  num_workers_.store(n, std::memory_order_release);
  for (int i = cur; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
  g_threads.set(static_cast<double>(n));
}

TaskHandle Scheduler::submit(std::function<void()> fn, int depth) {
  if (num_workers_.load(std::memory_order_acquire) == 0) ensure_threads(1);
  auto task = std::make_shared<detail::SchedTask>();
  task->fn = std::move(fn);
  task->depth = depth;

  const int self = t_sched == this ? t_sched_index : -1;
  const auto n =
      static_cast<std::size_t>(num_workers_.load(std::memory_order_acquire));
  const std::size_t target = self >= 0 ? static_cast<std::size_t>(self)
                                       : next_worker_.fetch_add(1) % n;
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    if (self >= 0) {
      workers_[target]->tasks.push_front(task);  // LIFO for the owner
    } else {
      workers_[target]->tasks.push_back(task);
    }
  }
  {
    // Increment under wake_mutex_ so the change is ordered against a
    // worker's predicate check: without the lock, a worker could see
    // queued_ == 0, then miss this notify_one before blocking — a lost
    // wakeup that strands the task until the next submission.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    queued_.fetch_add(1);
  }
  wake_cv_.notify_one();
  return task;
}

void Scheduler::join(const TaskHandle& task) {
  if (task == nullptr) return;
  int expected = 0;
  if (task->state.compare_exchange_strong(expected, 1,
                                          std::memory_order_acq_rel)) {
    // Still pending: run it here, on the joining thread's stack. The
    // husk left in some deque is popped and skipped by whoever finds it.
    c_inline_joins.inc();
    execute(*task);
    return;
  }
  if (task->state.load(std::memory_order_acquire) == 2) return;
  std::unique_lock<std::mutex> lock(task->mutex);
  task->done_cv.wait(lock, [&task] {
    return task->state.load(std::memory_order_acquire) == 2;
  });
}

TaskHandle Scheduler::try_pop(int self) {
  if (queued_.load() == 0) return nullptr;
  const auto n =
      static_cast<std::size_t>(num_workers_.load(std::memory_order_acquire));
  // Own deque first (front = most recently pushed by us), then sweep
  // the siblings and steal from the back (their oldest, outermost work)
  // to keep each owner's hot end undisturbed.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (static_cast<std::size_t>(self) + k) % n;
    Worker& w = *workers_[i];
    TaskHandle task;
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      if (w.tasks.empty()) continue;
      if (k == 0) {
        task = std::move(w.tasks.front());
        w.tasks.pop_front();
      } else {
        task = std::move(w.tasks.back());
        w.tasks.pop_back();
      }
    }
    queued_.fetch_sub(1);
    if (k != 0 && task->state.load(std::memory_order_relaxed) == 0) {
      c_steals.inc();
    }
    return task;
  }
  return nullptr;
}

void Scheduler::execute(detail::SchedTask& task) {
  c_tasks.inc();
  h_task_depth.observe(static_cast<std::uint64_t>(std::max(0, task.depth)));
  {
    const util::ScopedTaskDepth depth(task.depth);
    task.fn();
  }
  task.fn = nullptr;  // release captured state before signalling done
  {
    std::lock_guard<std::mutex> lock(task.mutex);
    task.state.store(2, std::memory_order_release);
  }
  task.done_cv.notify_all();
}

void Scheduler::worker_loop(int self) {
  t_sched = this;
  t_sched_index = self;
  for (;;) {
    if (TaskHandle task = try_pop(self); task != nullptr) {
      int expected = 0;
      if (task->state.compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel)) {
        execute(*task);
      }
      // else: an inline join claimed it first — skip the husk.
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] { return stop_ || queued_.load() > 0; });
    if (stop_ && queued_.load() == 0) return;
  }
}

}  // namespace metaopt::runner
