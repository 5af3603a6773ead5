// A fixed-size pool of worker threads draining one shared FIFO queue.
//
// Deliberately simple — no work stealing, no priorities: the engine's
// unit of work is a whole query (milliseconds to seconds), so a single
// mutex-protected queue is nowhere near contention. Tasks are type-
// erased closures; use Async() to get a std::future for a task's
// return value.

#ifndef ROX_COMMON_THREAD_POOL_H_
#define ROX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rox {

class ThreadPool {
 public:
  // Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  // Drains remaining tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Enqueues a fire-and-forget task. Must not be called after the
  // destructor has begun.
  void Submit(std::function<void()> task);

  // Enqueues `fn` and returns a future for its result. Exceptions
  // thrown by `fn` are captured into the future.
  template <typename F>
  auto Async(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> out = task->get_future();
    Submit([task = std::move(task)]() { (*task)(); });
    return out;
  }

  // Blocks until the queue is empty and every worker is idle. Only
  // meaningful when no other thread is submitting concurrently.
  void WaitIdle();

  // Tasks currently queued (excludes running ones).
  size_t QueueDepth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for tasks
  std::condition_variable idle_cv_;   // WaitIdle waits here
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;  // tasks currently executing
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace rox

#endif  // ROX_COMMON_THREAD_POOL_H_
