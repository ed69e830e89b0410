#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace bigcity::util {
namespace {

TEST(ThreadPoolTest, CoversEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, kN, 64, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  pool.ParallelFor(0, 100, 10, [&](int64_t, int64_t) {
    if (std::this_thread::get_id() != caller) off_thread++;
  });
  EXPECT_EQ(off_thread.load(), 0);
}

// Regression for the serve runtime's usage: several request workers all
// forward through the one global pool at the same time. Before ParallelFor
// was serialized on a submit mutex, a second caller could overwrite the
// in-flight job's descriptor fields and chunks were lost or double-run.
TEST(ThreadPoolTest, ConcurrentCallersEachSeeCompleteJobs) {
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kRounds = 25;
  constexpr int64_t kN = 512;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<std::atomic<int>> hits(kN);
      for (int round = 0; round < kRounds; ++round) {
        for (auto& h : hits) h.store(0);
        // Caller-specific grain so concurrent jobs have different chunk
        // geometry (the overwrite bug corrupted exactly these fields).
        const int64_t grain = 16 + 8 * (c % 4);
        pool.ParallelFor(0, kN, grain, [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            hits[static_cast<size_t>(i)]++;
          }
        });
        for (int64_t i = 0; i < kN; ++i) {
          if (hits[static_cast<size_t>(i)].load() != 1) {
            failures++;
            return;
          }
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolTest, ShutdownUnderLoadJoinsCleanly) {
  // Destroy pools while external threads are still submitting work right
  // up to the end; the destructor must wait for the in-flight job and the
  // workers must exit without touching freed state (ASan/UBSan lane).
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::atomic<bool> stop{false};
    std::atomic<int64_t> sum{0};
    std::atomic<int> progressed{0};  // Submitters past one ParallelFor.
    bool all_progressed = false;
    {
      ThreadPool pool(3);
      std::vector<std::thread> submitters;
      for (int s = 0; s < 3; ++s) {
        submitters.emplace_back([&] {
          bool counted = false;
          while (!stop.load()) {
            pool.ParallelFor(0, 256, 32, [&](int64_t begin, int64_t end) {
              sum.fetch_add(end - begin, std::memory_order_relaxed);
            });
            if (!counted) {
              counted = true;
              progressed.fetch_add(1);
            }
          }
        });
      }
      // At least 5 ms of load, then wait for progress: under CPU
      // contention a submitter may not get scheduled within that window.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (progressed.load() < 3 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      all_progressed = progressed.load() == 3;
      stop.store(true);
      for (auto& submitter : submitters) submitter.join();
      // Pool destructor runs here with no job in flight but workers live.
    }
    EXPECT_TRUE(all_progressed) << "a submitter finished no ParallelFor in 10s";
    EXPECT_GT(sum.load(), 0);
  }
}

TEST(ThreadPoolTest, GlobalPoolResizeRoundTrips) {
  const int before = GlobalThreadCount();
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadCount(), 3);
  std::atomic<int64_t> sum{0};
  GlobalThreadPool().ParallelFor(0, 100, 7, [&](int64_t begin, int64_t end) {
    sum.fetch_add(end - begin);
  });
  EXPECT_EQ(sum.load(), 100);
  SetGlobalThreadCount(before);
  EXPECT_EQ(GlobalThreadCount(), before);
}

}  // namespace
}  // namespace bigcity::util
