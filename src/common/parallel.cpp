#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bb::common {

namespace {

std::atomic<int> g_thread_override{0};

// ThreadPool::SetWorkerHookForTest; nullptr outside tests.
std::atomic<void (*)()> g_worker_hook{nullptr};

thread_local bool t_in_parallel_region = false;

int DefaultThreadCount() {
  if (const char* env = std::getenv("BB_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<int>(std::min(v, 256L));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// RAII guard for the nested-region flag.
struct RegionGuard {
  bool previous = t_in_parallel_region;
  RegionGuard() { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = previous; }
};

}  // namespace

int ThreadCount() {
  const int o = g_thread_override.load(std::memory_order_relaxed);
  if (o >= 1) return o;
  // Resolve once; the env and hardware do not change mid-process.
  static const int resolved = DefaultThreadCount();
  return resolved;
}

void SetThreadCount(int n) {
  g_thread_override.store(n >= 1 ? std::min(n, 256) : 0,
                          std::memory_order_relaxed);
}

bool InParallelRegion() { return t_in_parallel_region; }

int NumShards(std::int64_t items, std::int64_t grain) {
  if (items <= 0) return 1;
  if (grain < 1) grain = 1;
  const std::int64_t by_grain = (items + grain - 1) / grain;
  return static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(ThreadCount(),
                                                       by_grain)));
}

// ---- ThreadPool ------------------------------------------------------------

struct ThreadPool::Impl {
  // One Run() call. Workers hold it by shared_ptr, so a worker that took
  // a job late can only claim from that job's counter, never a task of the
  // next job.
  struct Job {
    const std::function<void(int)>* fn = nullptr;
    int task_count = 0;
    std::atomic<int> next_task{0};
    int unfinished = 0;                // tasks not yet completed; under mu
    std::exception_ptr first_error;    // under mu
  };

  std::mutex mu;
  std::condition_variable work_cv;   // workers wait here for a job
  std::condition_variable done_cv;   // Run() waits here for completion
  std::vector<std::thread> workers;

  std::uint64_t epoch = 0;           // bumped per job; under mu
  std::shared_ptr<Job> job;          // current job; under mu
  bool shutdown = false;

  // Serializes Run() callers; the pool executes one job at a time.
  std::mutex run_mu;

  void WorkerLoop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      work_cv.wait(lock, [&] { return shutdown || epoch != seen; });
      if (shutdown) return;
      seen = epoch;
      const std::shared_ptr<Job> taken = job;
      lock.unlock();
      if (taken) {
        if (void (*hook)() = g_worker_hook.load()) hook();
        DrainTasks(*taken);
      }
      lock.lock();
    }
  }

  // Claims and runs tasks until none remain; records completions. Run()
  // returns only once every task was claimed, so a worker that took the
  // job late claims nothing and never calls the (by then dead) fn.
  void DrainTasks(Job& j) {
    RegionGuard region;
    int done_here = 0;
    std::exception_ptr error;
    for (;;) {
      const int task = j.next_task.fetch_add(1, std::memory_order_relaxed);
      if (task >= j.task_count) break;
      try {
        (*j.fn)(task);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
      ++done_here;
    }
    if (done_here > 0 || error) {
      std::lock_guard<std::mutex> lock(mu);
      j.unfinished -= done_here;
      if (error && !j.first_error) j.first_error = error;
      if (j.unfinished == 0) done_cv.notify_all();
    }
  }

  void EnsureWorkers(int n) {
    // Called with mu held.
    while (static_cast<int>(workers.size()) < n) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
  }
};

ThreadPool::Impl* ThreadPool::impl() {
  // The pool is a leaked singleton (see Instance()), so impl_ lives for the
  // process; guard only the first construction.
  static std::once_flag once;
  std::call_once(once, [this] { impl_ = new Impl; });
  return impl_;
}

ThreadPool& ThreadPool::Instance() {
  // Leaked intentionally: worker threads may outlive static destruction
  // order otherwise. The OS reclaims everything at exit.
  static ThreadPool* pool = new ThreadPool;
  return *pool;
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

int ThreadPool::worker_count() const {
  if (!impl_) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return static_cast<int>(impl_->workers.size());
}

void ThreadPool::Run(int max_workers, int task_count,
                     const std::function<void(int)>& fn) {
  if (task_count <= 0) return;
  if (max_workers <= 1 || task_count == 1 || t_in_parallel_region) {
    // Serial path: identical to a plain loop, no pool involvement.
    RegionGuard region;
    for (int i = 0; i < task_count; ++i) fn(i);
    return;
  }

  Impl* p = impl();
  std::lock_guard<std::mutex> run_lock(p->run_mu);
  const int helpers = std::min(max_workers, task_count) - 1;
  const auto job = std::make_shared<Impl::Job>();
  job->fn = &fn;
  job->task_count = task_count;
  job->unfinished = task_count;
  {
    std::lock_guard<std::mutex> lock(p->mu);
    p->EnsureWorkers(helpers);
    p->job = job;
    ++p->epoch;
  }
  p->work_cv.notify_all();

  // The caller participates instead of idling.
  p->DrainTasks(*job);

  std::unique_lock<std::mutex> lock(p->mu);
  p->done_cv.wait(lock, [&] { return job->unfinished == 0; });
  p->job = nullptr;
  if (job->first_error) {
    lock.unlock();
    std::rethrow_exception(job->first_error);
  }
}

void ThreadPool::SetWorkerHookForTest(void (*hook)()) {
  g_worker_hook.store(hook);
}

// ---- Helpers ---------------------------------------------------------------

void ParallelShards(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
  const std::int64_t items = end - begin;
  if (items <= 0) return;
  const int shards = InParallelRegion() ? 1 : NumShards(items, grain);
  if (shards == 1) {
    RegionGuard region;
    fn(0, begin, end);
    return;
  }
  // Balanced contiguous split: shard s covers
  // [begin + s * items / shards, begin + (s + 1) * items / shards).
  ThreadPool::Instance().Run(shards, shards, [&](int s) {
    const std::int64_t b = begin + items * s / shards;
    const std::int64_t e = begin + items * (s + 1) / shards;
    if (b < e) fn(s, b, e);
  });
}

void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t)>& fn) {
  const std::int64_t items = end - begin;
  if (items <= 0) return;
  if (grain < 1) grain = 1;
  if (items < 2 * grain || ThreadCount() == 1 || InParallelRegion()) {
    RegionGuard region;
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  ParallelShards(begin, end, grain,
                 [&](int /*shard*/, std::int64_t b, std::int64_t e) {
                   for (std::int64_t i = b; i < e; ++i) fn(i);
                 });
}

}  // namespace bb::common
