#ifndef SIREP_COMMON_SYNC_H_
#define SIREP_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace sirep {

/// Counting semaphore. Used by the cluster harness to model per-replica
/// worker capacity (a statement occupies one slot for its service time).
class Semaphore {
 public:
  explicit Semaphore(int initial = 0) : count_(initial) {}

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ > 0; });
    --count_;
  }

  bool TryAcquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ <= 0) return false;
    --count_;
    return true;
  }

  void Release(int n = 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      count_ += n;
    }
    if (n == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

/// One-shot latch: threads block in Wait() until the count reaches zero.
class CountDownLatch {
 public:
  explicit CountDownLatch(int count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }

  bool WaitFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

/// Unbounded MPMC queue with shutdown. Pop() returns nullopt after Close()
/// once drained. Used for GCS delivery queues and middleware work queues.
template <typename T>
class WorkQueue {
 public:
  /// Enqueues an item; returns false if the queue is closed.
  bool Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks for the next item. Returns nullopt when closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace sirep

#endif  // SIREP_COMMON_SYNC_H_
