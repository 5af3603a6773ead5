#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/governor.h"

namespace rox {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, AsyncReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Async([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, AsyncPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.Async([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, TasksRunOffTheSubmittingThread) {
  ThreadPool pool(2);
  auto f = pool.Async([] { return std::this_thread::get_id(); });
  EXPECT_NE(f.get(), std::this_thread::get_id());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        count.fetch_add(1);
      });
    }
  }  // ~ThreadPool joins after the queue is empty
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  auto f = pool.Async([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPoolTest, ParallelTasksOverlap) {
  // With 4 workers, 4 tasks that wait for each other must all be in
  // flight at once — proves tasks are not serialized.
  ThreadPool pool(4);
  std::atomic<int> arrived{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.Async([&arrived] {
      arrived.fetch_add(1);
      while (arrived.load() < 4) std::this_thread::yield();
    }));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
  }
}

// --- governance / abort interaction (DESIGN.md §13) --------------------------

TEST(ThreadPoolTest, CancelledBacklogDrainsThroughDestructor) {
  // Tasks queued behind a cancelled token must still be *executed* by
  // the destructor's drain (the pool never discards work), but each one
  // observes the token and skips its real work.
  CancellationToken token;
  token.Cancel();
  std::atomic<int> executed{0};
  std::atomic<int> worked{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] {
        executed.fetch_add(1);
        if (StopRequested(&token)) return;  // governed early-exit
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        worked.fetch_add(1);
      });
    }
  }  // ~ThreadPool drains all 200, none doing real work
  EXPECT_EQ(executed.load(), 200);
  EXPECT_EQ(worked.load(), 0);
}

}  // namespace
}  // namespace rox
