// Closed-loop load against serve::InferenceServer from one generator
// thread. Each in-flight slot sends its next request only after its
// previous one completed. The generator never polls: one blocked watcher
// thread per slot waits on that slot's future and hands the response
// back, stamped with the moment it became ready, so latency is measured
// in completion order rather than submit order.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/request.h"
#include "serve/server.h"

namespace perfbench {

class ClosedLoop {
 public:
  /// Fills `*request` with `slot`'s next request; false ends the slot.
  using NextFn =
      std::function<bool(int slot, bigcity::serve::Request* request)>;
  /// Observes one completion: what was sent, what came back, the
  /// generator-observed Submit-to-completion latency in microseconds, and
  /// when it completed, in seconds since the phase started.
  using DoneFn = std::function<void(int slot, bigcity::serve::Request request,
                                    bigcity::serve::Response response,
                                    double latency_us, double completed_s)>;

  ClosedLoop(bigcity::serve::InferenceServer* server, int slots);
  ~ClosedLoop();

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Keeps every slot busy until `seconds` have passed (a negative value
  /// means until every slot's source ends), then drains what is in
  /// flight. Returns the phase's wall time, from the first Submit to the
  /// last completion. With tracing enabled, records one "bench.request"
  /// span per request stamped with its Response::trace_id.
  double Run(double seconds, const NextFn& next, const DoneFn& done);

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<std::future<bigcity::serve::Response>> future;
    bool stop = false;
    // Generator-only state.
    bigcity::serve::Request request;
    Clock::time_point submitted;
    uint64_t submitted_trace_us = 0;
  };
  struct Completion {
    int slot = 0;
    bigcity::serve::Response response;
    Clock::time_point at;
  };

  void Submit(int slot, bigcity::serve::Request request);
  void Watch(int slot);

  bigcity::serve::InferenceServer* server_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::deque<Completion> done_;
  std::vector<std::thread> watchers_;  // Joined by the destructor.
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
