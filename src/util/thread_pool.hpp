// Fixed-size thread pool.
//
// The service dispatcher and the federation router run admitted requests
// on it. The pool is a plain mutex/condvar work queue: tasks are coarse
// (whole requests) so a lock-free deque would buy nothing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hxrc::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw: nothing observes a task's
  /// result, so each task answers its own caller (the dispatcher and the
  /// router catch every request failure into an error response), and an
  /// exception escaping a task terminates the process.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace hxrc::util
