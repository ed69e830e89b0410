#include "load.h"

#include "obs/trace.h"

namespace perfbench {

using bigcity::serve::Request;
using bigcity::serve::Response;

ClosedLoop::ClosedLoop(bigcity::serve::InferenceServer* server, int slots)
    : server_(server) {
  for (int i = 0; i < slots; ++i) slots_.push_back(std::make_unique<Slot>());
  for (int i = 0; i < slots; ++i) {
    watchers_.emplace_back([this, i] { Watch(i); });
  }
}

ClosedLoop::~ClosedLoop() {
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->stop = true;
    slot->cv.notify_one();
  }
  for (auto& watcher : watchers_) watcher.join();
}

void ClosedLoop::Watch(int index) {
  Slot& slot = *slots_[static_cast<size_t>(index)];
  for (;;) {
    std::future<Response> future;
    {
      std::unique_lock<std::mutex> lock(slot.mu);
      slot.cv.wait(lock, [&] { return slot.future.has_value() || slot.stop; });
      if (!slot.future.has_value()) return;
      future = std::move(*slot.future);
      slot.future.reset();
    }
    future.wait();
    Completion completion{index, future.get(), Clock::now()};
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back(std::move(completion));
    }
    done_cv_.notify_one();
  }
}

void ClosedLoop::Submit(int index, Request request) {
  Slot& slot = *slots_[static_cast<size_t>(index)];
  slot.request = request;
  if (bigcity::obs::TracingEnabled()) {
    slot.submitted_trace_us = bigcity::obs::TraceNowMicros();
  }
  slot.submitted = Clock::now();
  std::future<Response> future = server_->Submit(std::move(request));
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.future = std::move(future);
  slot.cv.notify_one();
}

double ClosedLoop::Run(double seconds, const NextFn& next, const DoneFn& done) {
  const Clock::time_point start = Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds < 0 ? 0 : seconds));
  Clock::time_point last = start;
  int in_flight = 0;
  Request request;
  for (int i = 0; i < static_cast<int>(slots_.size()); ++i) {
    if (next(i, &request)) {
      Submit(i, std::move(request));
      ++in_flight;
    }
  }
  while (in_flight > 0) {
    Completion completion;
    {
      std::unique_lock<std::mutex> lock(done_mu_);
      done_cv_.wait(lock, [&] { return !done_.empty(); });
      completion = std::move(done_.front());
      done_.pop_front();
    }
    --in_flight;
    last = std::max(last, completion.at);
    Slot& slot = *slots_[static_cast<size_t>(completion.slot)];
    const double latency_us =
        std::chrono::duration<double, std::micro>(completion.at -
                                                  slot.submitted)
            .count();
    if (bigcity::obs::TracingEnabled()) {
      bigcity::obs::TraceEvent span;
      span.name = "bench.request";
      span.category = "bench";
      span.start_us = slot.submitted_trace_us;
      span.duration_us = static_cast<uint64_t>(latency_us);
      span.thread_id = bigcity::obs::TraceThreadId();
      span.trace_id = completion.response.trace_id;
      bigcity::obs::TraceBuffer::Global().Record(span);
    }
    done(completion.slot, std::move(slot.request),
         std::move(completion.response), latency_us,
         std::chrono::duration<double>(completion.at - start).count());
    const bool more = seconds < 0 || Clock::now() < stop_at;
    if (more && next(completion.slot, &request)) {
      Submit(completion.slot, std::move(request));
      ++in_flight;
    }
  }
  return std::chrono::duration<double>(last - start).count();
}

}  // namespace perfbench
