#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace bb::common {
namespace {

// Restores the default thread-count resolution after each test.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetThreadCount(0); }
};

TEST_F(ParallelTest, ThreadCountOverrideAndReset) {
  SetThreadCount(3);
  EXPECT_EQ(ThreadCount(), 3);
  SetThreadCount(0);
  EXPECT_GE(ThreadCount(), 1);
}

TEST_F(ParallelTest, NumShardsRespectsGrainAndThreads) {
  SetThreadCount(4);
  EXPECT_EQ(NumShards(0), 1);
  EXPECT_EQ(NumShards(1), 1);
  EXPECT_EQ(NumShards(100), 4);
  EXPECT_EQ(NumShards(100, 50), 2);   // grain limits the split
  EXPECT_EQ(NumShards(3), 3);         // never more shards than items
  SetThreadCount(1);
  EXPECT_EQ(NumShards(100), 1);
}

TEST_F(ParallelTest, ParallelForVisitsEveryIndexOnce) {
  SetThreadCount(4);
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(0, 1000, 1, [&](std::int64_t i) {
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST_F(ParallelTest, ParallelForSmallRangeRunsInline) {
  SetThreadCount(4);
  int count = 0;  // non-atomic: safe only if inline
  ParallelFor(0, 5, 100, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 5);
}

TEST_F(ParallelTest, ShardsCoverRangeContiguously) {
  SetThreadCount(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks(8);
  ParallelShards(10, 110, 1, [&](int s, std::int64_t b, std::int64_t e) {
    chunks[static_cast<std::size_t>(s)] = {b, e};
  });
  // Exactly the first NumShards chunks are filled, back to back.
  std::int64_t expect_begin = 10;
  for (int s = 0; s < NumShards(100); ++s) {
    EXPECT_EQ(chunks[static_cast<std::size_t>(s)].first, expect_begin);
    expect_begin = chunks[static_cast<std::size_t>(s)].second;
  }
  EXPECT_EQ(expect_begin, 110);
}

TEST_F(ParallelTest, ShardBoundariesAreAPureFunctionOfTheRange) {
  SetThreadCount(4);
  auto capture = [&] {
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    std::mutex mu;
    ParallelShards(0, 97, 1, [&](int s, std::int64_t b, std::int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.resize(std::max<std::size_t>(chunks.size(),
                                          static_cast<std::size_t>(s) + 1));
      chunks[static_cast<std::size_t>(s)] = {b, e};
    });
    return chunks;
  };
  const auto first = capture();
  for (int rep = 0; rep < 10; ++rep) EXPECT_EQ(capture(), first);
}

TEST_F(ParallelTest, PerShardIntegerSumsReduceExactly) {
  // The Reconstructor's accumulation pattern in miniature: integer-valued
  // doubles summed per shard then reduced serially must equal the serial
  // sum bit-for-bit.
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 1);

  SetThreadCount(1);
  double serial = 0.0;
  ParallelShards(0, 10000, 1, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      // Single-threaded by construction (SetThreadCount(1) above): this IS
      // the serial reference the sharded sum is checked against.
      // bblint: allow(no-unshared-float-accumulation)
      serial += data[static_cast<std::size_t>(i)];
    }
  });

  SetThreadCount(4);
  std::vector<double> partial(static_cast<std::size_t>(NumShards(10000)),
                              0.0);
  ParallelShards(0, 10000, 1, [&](int s, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      partial[static_cast<std::size_t>(s)] +=
          data[static_cast<std::size_t>(i)];
    }
  });
  double reduced = 0.0;
  for (double p : partial) reduced += p;
  EXPECT_EQ(serial, reduced);
}

TEST_F(ParallelTest, NestedParallelismRunsInline) {
  SetThreadCount(4);
  std::atomic<int> total{0};
  ParallelFor(0, 8, 1, [&](std::int64_t) {
    EXPECT_TRUE(InParallelRegion());
    int inner = 0;  // non-atomic: inner loop must be inline
    ParallelFor(0, 100, 1, [&](std::int64_t) { ++inner; });
    total.fetch_add(inner);
  });
  EXPECT_EQ(total.load(), 800);
}

TEST_F(ParallelTest, ExceptionsPropagateToCaller) {
  SetThreadCount(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](std::int64_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ok{0};
  ParallelFor(0, 100, 1, [&](std::int64_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 100);
}

TEST_F(ParallelTest, RepeatedJobsReuseThePool) {
  SetThreadCount(4);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<long> sum{0};
    ParallelFor(0, 256, 1, [&](std::int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 256L * 255 / 2);
  }
  EXPECT_LE(ThreadPool::Instance().worker_count(), 4);
}

// Shared with the worker hook, which must be a plain function pointer.
struct LateWorkerState {
  std::mutex mu;
  std::condition_variable cv;
  std::thread::id parked_worker;
  bool parked = false;
  bool released = false;
  bool rejoined = false;
  bool second_job_running = false;

  template <typename Pred>
  void WaitFor(Pred pred) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, pred);
  }
  void Set(bool* flag) {
    std::lock_guard<std::mutex> lock(mu);
    *flag = true;
    cv.notify_all();
  }
};
LateWorkerState* g_late = nullptr;

// Parks the first worker that takes a job until released, and reports when
// that worker takes a job again.
void ParkFirstWorker() {
  LateWorkerState& st = *g_late;
  std::unique_lock<std::mutex> lock(st.mu);
  if (!st.parked) {
    st.parked = true;
    st.parked_worker = std::this_thread::get_id();
    st.cv.notify_all();
    st.cv.wait(lock, [&] { return st.released; });
  } else if (std::this_thread::get_id() == st.parked_worker) {
    st.rejoined = true;
    st.cv.notify_all();
  }
}

// A worker delayed between taking a job and claiming a task must not claim
// tasks of the next job once the first job completed without it.
TEST_F(ParallelTest, WorkerThatTookAJobLateNeverRunsTheNextJobsTasks) {
  LateWorkerState st;
  g_late = &st;
  ThreadPool::SetWorkerHookForTest(&ParkFirstWorker);
  // More tasks than the pool has threads, so the second job still has
  // unclaimed tasks while its running tasks block.
  constexpr int kTasks = 512;
  std::vector<std::atomic<int>> first_runs(kTasks), second_runs(kTasks);
  // Both bodies outlive both jobs, so a task run by the wrong body shows up
  // in the counts instead of as a crash.
  const std::function<void(int)> first = [&](int i) {
    if (i == 0) st.WaitFor([&] { return st.parked; });
    first_runs[static_cast<std::size_t>(i)].fetch_add(1);
  };
  const std::function<void(int)> second = [&](int i) {
    st.Set(&st.second_job_running);
    st.WaitFor([&] { return st.rejoined; });
    second_runs[static_cast<std::size_t>(i)].fetch_add(1);
  };

  ThreadPool& pool = ThreadPool::Instance();
  // The first job completes while the worker that took it is parked...
  pool.Run(2, kTasks, first);
  // ...and the parked worker resumes only once the second job is running.
  std::thread second_run([&] { pool.Run(2, kTasks, second); });
  st.WaitFor([&] { return st.second_job_running; });
  st.Set(&st.released);
  second_run.join();
  ThreadPool::SetWorkerHookForTest(nullptr);
  g_late = nullptr;

  int first_extra = 0, second_missing = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    first_extra += first_runs[i].load() - 1;
    second_missing += second_runs[i].load() != 1;
  }
  EXPECT_EQ(first_extra, 0) << "tasks of the second job ran the first body";
  EXPECT_EQ(second_missing, 0) << "tasks of the second job not run once";
}

}  // namespace
}  // namespace bb::common
