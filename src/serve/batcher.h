#ifndef BIGCITY_SERVE_BATCHER_H_
#define BIGCITY_SERVE_BATCHER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace bigcity::serve {

/// The one queue between Submit and the workers (DESIGN.md §4.11, §4.14):
/// bounded admission with explicit load shedding, and continuous batching
/// on dispatch. TryPush never blocks — a full queue rejects at once, so
/// overload turns into fast kResourceExhausted responses instead of
/// unbounded latency growth — and the bound counts every admitted item no
/// worker has taken yet. Workers call NextBatch(), which hands out
/// same-key batches. A group dispatches when
///   - it reaches `batch_max` items,
///   - its oldest item has waited `window_us` since a worker first
///     examined it,
///   - any member is urgent — remaining deadline within the caller's
///     margin — so a nearly-expired request never waits for batch fill, or
///   - the queue is closed (drain-then-stop shutdown).
/// Items with a negative key are never batched: they dispatch alone,
/// immediately. Thread-safe: any number of producers and workers share one
/// mutex and one condition variable. Header-only template so the item type
/// (request + promise + deadline bookkeeping) stays private to the server.
template <typename T>
class Batcher {
 public:
  struct Options {
    size_t capacity = 16;
    int batch_max = 8;
    double window_us = 200.0;
  };

  /// `key_fn` maps an item to its batch group (< 0 = dispatch alone);
  /// `remaining_us_fn` returns the item's remaining deadline budget in
  /// microseconds (infinity when it carries no deadline); `margin_us_fn`
  /// is the urgency threshold, typically window + max(p95 forward,
  /// window) so an urgent item still fits one forward after dispatch.
  /// Optional `dispatch_fn` runs (under the queue mutex) for every
  /// dispatched item with the microseconds it waited since a worker first
  /// examined it — the server stamps per-request batch-wait attribution
  /// from it. Optional `batch_max_fn` overrides Options::batch_max per
  /// dispatch decision; the overload controller shrinks batches under
  /// memory pressure through it.
  Batcher(Options options, std::function<int(const T&)> key_fn,
          std::function<double(const T&)> remaining_us_fn,
          std::function<double()> margin_us_fn,
          std::function<void(T&, double)> dispatch_fn = nullptr,
          std::function<int()> batch_max_fn = nullptr)
      : options_(options),
        key_fn_(std::move(key_fn)),
        remaining_us_fn_(std::move(remaining_us_fn)),
        margin_us_fn_(std::move(margin_us_fn)),
        dispatch_fn_(std::move(dispatch_fn)),
        batch_max_fn_(std::move(batch_max_fn)),
        effective_capacity_(options.capacity) {}

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// False when the queue is closed or effective_capacity() items already
  /// wait. Takes an rvalue reference so a rejected item is NOT consumed —
  /// the caller still owns it and can resolve its promise with the shed
  /// status.
  bool TryPush(T&& item) {
    const int key = key_fn_(item);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || depth_ >= effective_capacity_) return false;
      auto group = std::find_if(groups_.begin(), groups_.end(),
                                [key](const Group& g) { return g.key == key; });
      if (group == groups_.end()) group = groups_.insert(group, Group{key, {}});
      group->items.push_back(PendingItem{std::move(item), kUnseen});
      ++depth_;
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks for the next batch; an empty result means the queue is closed
  /// and every admitted item has been handed out (worker shutdown).
  std::vector<T> NextBatch() {
    for (;;) {
      // The margin may sort the forward-latency window: compute it before
      // taking the lock producers share.
      const double margin_us = margin_us_fn_();
      const int batch_max =
          std::max(1, batch_max_fn_ ? batch_max_fn_() : options_.batch_max);
      std::unique_lock<std::mutex> lock(mu_);
      const Clock::time_point now = Clock::now();
      StampUnseenLocked(now);
      std::vector<T> batch = ExtractLocked(now, margin_us, batch_max);
      if (!batch.empty()) {
        const bool waiting = depth_ > 0;
        lock.unlock();
        // Waiting items need a babysitter: wake another worker so their
        // window timer keeps running while this one forwards.
        if (waiting) cv_.notify_one();
        return batch;
      }
      if (depth_ == 0) {
        if (closed_) return {};
        cv_.wait(lock, [&] { return closed_ || depth_ > 0; });
      } else {
        cv_.wait_for(lock, std::chrono::duration<double, std::micro>(
                               WaitHintLocked(now, margin_us)));
      }
    }
  }

  /// Stops admissions and wakes every worker. Items already admitted are
  /// still handed out (drain-then-stop shutdown).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Items admitted but not yet handed to a worker.
  size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return depth_;
  }

  /// Tightens (or restores) the admission bound without touching waiting
  /// items; Options::capacity stays the hard ceiling. The overload
  /// controller shrinks this under memory pressure so the backlog stops
  /// growing before allocation failure.
  void SetEffectiveCapacity(size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    effective_capacity_ =
        std::min(options_.capacity, std::max<size_t>(1, capacity));
  }

  size_t effective_capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return effective_capacity_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Stamp of an item no worker has examined yet.
  static constexpr Clock::time_point kUnseen{};

  struct PendingItem {
    T item;
    Clock::time_point seen;  // When a worker first examined it.
  };
  struct Group {
    int key = 0;
    std::vector<PendingItem> items;  // FIFO by admission.
  };

  /// Ends the queue wait of every item admitted since the last
  /// examination. Unseen items sit at the tail of their group.
  void StampUnseenLocked(Clock::time_point now) {
    for (Group& group : groups_) {
      for (auto it = group.items.rbegin();
           it != group.items.rend() && it->seen == kUnseen; ++it) {
        it->seen = now;
      }
    }
  }

  bool DispatchableLocked(const Group& group, Clock::time_point now,
                          double margin_us, int batch_max) const {
    if (group.key < 0) return true;  // Unbatchable: alone, immediately.
    if (closed_) return true;
    if (static_cast<int>(group.items.size()) >= batch_max) return true;
    const double oldest_us = std::chrono::duration<double, std::micro>(
                                 now - group.items.front().seen)
                                 .count();
    if (oldest_us >= options_.window_us) return true;
    for (const PendingItem& pending : group.items) {
      if (remaining_us_fn_(pending.item) <= margin_us) return true;
    }
    return false;
  }

  /// Removes and returns the dispatchable group with the oldest head
  /// (fairness across tasks); empty when nothing may dispatch yet.
  std::vector<T> ExtractLocked(Clock::time_point now, double margin_us,
                               int batch_max) {
    size_t best = groups_.size();
    for (size_t i = 0; i < groups_.size(); ++i) {
      if (!DispatchableLocked(groups_[i], now, margin_us, batch_max)) {
        continue;
      }
      if (best == groups_.size() ||
          groups_[i].items.front().seen < groups_[best].items.front().seen) {
        best = i;
      }
    }
    std::vector<T> batch;
    if (best == groups_.size()) return batch;
    Group& group = groups_[best];
    const size_t take =
        group.key < 0 ? 1
                      : std::min(group.items.size(),
                                 static_cast<size_t>(batch_max));
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      if (dispatch_fn_) {
        dispatch_fn_(group.items[i].item,
                     std::chrono::duration<double, std::micro>(
                         now - group.items[i].seen)
                         .count());
      }
      batch.push_back(std::move(group.items[i].item));
    }
    group.items.erase(group.items.begin(),
                      group.items.begin() + static_cast<ptrdiff_t>(take));
    if (group.items.empty()) {
      groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(best));
    }
    depth_ -= take;
    return batch;
  }

  /// Microseconds until the nearest dispatch trigger among waiting items
  /// (window expiry or deadline urgency), floored so a wait is never a
  /// pure spin.
  double WaitHintLocked(Clock::time_point now, double margin_us) const {
    double hint = options_.window_us;
    for (const Group& group : groups_) {
      if (group.key < 0) continue;
      const double oldest_us = std::chrono::duration<double, std::micro>(
                                   now - group.items.front().seen)
                                   .count();
      hint = std::min(hint, options_.window_us - oldest_us);
      for (const PendingItem& pending : group.items) {
        const double remaining = remaining_us_fn_(pending.item);
        if (std::isfinite(remaining)) {
          hint = std::min(hint, remaining - margin_us);
        }
      }
    }
    return std::max(hint, 50.0);
  }

  const Options options_;
  const std::function<int(const T&)> key_fn_;
  const std::function<double(const T&)> remaining_us_fn_;
  const std::function<double()> margin_us_fn_;
  const std::function<void(T&, double)> dispatch_fn_;
  const std::function<int()> batch_max_fn_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Group> groups_;  // Never holds an empty group.
  size_t depth_ = 0;           // Items across groups_.
  size_t effective_capacity_;
  bool closed_ = false;
};

}  // namespace bigcity::serve

#endif  // BIGCITY_SERVE_BATCHER_H_
