// Bounded MPMC completion queue — the hand-off primitive between
// pipeline stages that run on one shared ThreadPool.
//
// The shape it exists for (pipeline::run, src/pipeline/sink.cpp):
// stage-A tasks on pool workers push completed work items; a
// dispatcher thread pops and submits stage-B continuations to the same
// pool, so the stages overlap instead of meeting at a barrier. The
// bounded capacity is backpressure — producers block while the
// dispatcher falls behind, so parsed-but-unconverted results can never
// pile up without limit.
//
// Semantics:
//  - push() blocks while the queue is full; returns false (item
//    dropped) if the queue was closed while waiting. try_push() never
//    blocks and returns false when full or closed.
//  - pop() blocks until an item is available; items pushed by one
//    producer are popped in that producer's push order (single global
//    FIFO). After close(), pops drain the remaining items and then
//    return nullopt — or rethrow the close error, if one was given.
//  - close(error) is how a failing producer propagates its exception
//    across the stage boundary: every pop after the drain rethrows.
//  - All operations are safe from any thread; close() is idempotent
//    (the first close wins).
//
// The untyped synchronization core (capacity bookkeeping, blocking,
// close + error state) lives in stage_queue.cpp; this header only adds
// the typed item storage on top of it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

namespace st {

namespace detail {

/// Untyped core of StageQueue: one mutex, the two condition variables,
/// size/capacity bookkeeping and the closed/error state. StageQueue<T>
/// holds the item storage and drives this under the core's mutex.
class StageQueueCore {
 public:
  explicit StageQueueCore(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 protected:
  /// Blocks until there is room for one more item or the queue is
  /// closed. True = slot acquired (caller must push + finish_push).
  bool acquire_push_slot(std::unique_lock<std::mutex>& lock);

  /// Blocks until an item is available or the queue is closed and
  /// drained. True = an item may be popped (caller must finish_pop).
  /// When the queue is closed, drained and carries an error, the error
  /// is rethrown instead of returning false.
  bool acquire_item(std::unique_lock<std::mutex>& lock);

  void finish_push(std::unique_lock<std::mutex>& lock);
  void finish_pop(std::unique_lock<std::mutex>& lock);
  void do_close(std::exception_ptr error);

  [[nodiscard]] bool closed_locked() const { return closed_; }
  [[nodiscard]] bool full_locked() const { return size_ >= capacity_; }
  [[nodiscard]] std::size_t size_locked() const { return size_; }

  mutable std::mutex mutex_;

 private:
  std::condition_variable space_cv_;  ///< producers waiting for room
  std::condition_variable item_cv_;   ///< consumers waiting for items
  std::size_t capacity_;
  std::size_t size_ = 0;
  bool closed_ = false;
  std::exception_ptr error_;
};

}  // namespace detail

template <class T>
class StageQueue : private detail::StageQueueCore {
 public:
  /// A queue holding at most `capacity` items (>= 1 enforced).
  explicit StageQueue(std::size_t capacity) : StageQueueCore(capacity) {}

  using StageQueueCore::capacity;

  /// Blocks while full. True = enqueued; false = the queue was closed
  /// (the item is dropped — producers treat this as "consumer gone").
  bool push(T item) {
    std::unique_lock lock(mutex_);
    if (!acquire_push_slot(lock)) return false;
    items_.push_back(std::move(item));
    finish_push(lock);
    return true;
  }

  /// Non-blocking push; false when the queue is full or closed.
  bool try_push(T item) {
    std::unique_lock lock(mutex_);
    if (closed_locked() || full_locked()) return false;
    items_.push_back(std::move(item));
    finish_push(lock);
    return true;
  }

  /// Blocks until an item arrives or the queue is closed and drained
  /// (then nullopt — or the close error rethrown, if one was set).
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    if (!acquire_item(lock)) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    finish_pop(lock);
    return out;
  }

  /// No more pushes; pending and future pops drain then end. The first
  /// close wins; later closes (with or without error) are ignored.
  void close() { do_close(nullptr); }

  /// close() carrying a producer-side failure: once drained, every pop
  /// rethrows `error` instead of returning nullopt.
  void close(std::exception_ptr error) { do_close(std::move(error)); }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_locked();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return size_locked();
  }

 private:
  std::deque<T> items_;  ///< guarded by StageQueueCore::mutex_
};

}  // namespace st
