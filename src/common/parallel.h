// Dependency-free parallel runtime for the reconstruction pipeline.
//
// Design goals (see DESIGN.md "Concurrency"):
//   * Determinism. Every helper decomposes its index range into contiguous
//     chunks whose boundaries depend only on the range and the configured
//     thread count - never on timing. Callers either write disjoint outputs
//     (ParallelFor) or accumulate into per-shard state that is reduced
//     serially in shard order (ParallelShards), so results are bit-identical
//     across runs and, for integer-valued accumulations, across thread
//     counts too.
//   * Exact serial fallback. With an effective thread count of 1 (or a range
//     smaller than the grain) the loop body runs inline on the calling
//     thread, taking the same code path a serial build would.
//   * No nested fan-out. A worker that re-enters the runtime runs the inner
//     loop inline; the pool can never deadlock on itself.
//
// Thread-count resolution: SetThreadCount() override > BB_THREADS env >
// std::thread::hardware_concurrency(), clamped to >= 1.
#pragma once

#include <cstdint>
#include <functional>

namespace bb::common {

// Effective worker count used by the helpers below. Always >= 1.
int ThreadCount();

// Overrides the thread count (the CLI's --threads flag lands here).
// n <= 0 restores the default BB_THREADS / hardware_concurrency resolution.
void SetThreadCount(int n);

// Number of contiguous shards ParallelShards would split `items` into:
// min(ThreadCount(), items / grain) but at least 1. Depends only on its
// arguments and the configured thread count.
int NumShards(std::int64_t items, std::int64_t grain = 1);

// Splits [begin, end) into NumShards(end - begin, grain) contiguous chunks
// and invokes fn(shard, chunk_begin, chunk_end) for each, concurrently.
// Shard boundaries are a pure function of the range and shard count. Blocks
// until every chunk completed; rethrows the first exception thrown by fn.
void ParallelShards(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(int shard, std::int64_t chunk_begin,
                             std::int64_t chunk_end)>& fn);

// Statically-chunked parallel loop: invokes fn(i) for every i in
// [begin, end). `grain` is the minimum number of iterations worth handing
// to a thread; ranges below 2 * grain run inline. fn must write disjoint
// state per index (row-parallel kernels do).
void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t i)>& fn);

// Lazily-initialized shared worker pool. Most code wants the helpers above;
// the pool is exposed for tests and benches that need direct control.
class ThreadPool {
 public:
  // The process-wide pool. Created on first use; workers are added lazily
  // as larger thread counts are requested.
  static ThreadPool& Instance();

  // Runs tasks fn(0) .. fn(task_count - 1) on up to `max_workers` threads
  // (the calling thread participates). Blocks until all tasks completed;
  // rethrows the first exception. Task indices are claimed dynamically, so
  // only use this when fn's effects are order-independent.
  void Run(int max_workers, int task_count,
           const std::function<void(int task)>& fn);

  // Workers currently alive (for tests).
  int worker_count() const;

  // Test seam: `hook` runs on a pool worker after it has taken a job and
  // before it claims any task of it. nullptr (the default) removes it.
  static void SetWorkerHookForTest(void (*hook)());

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() = default;
  struct Impl;
  Impl* impl();  // lazily constructed, never destroyed before workers join

  Impl* impl_ = nullptr;
};

// True while the calling thread is executing inside a ParallelFor /
// ParallelShards / ThreadPool::Run body; used to run nested parallelism
// inline.
bool InParallelRegion();

}  // namespace bb::common
