#include "common/thread_pool.hpp"

#include <algorithm>
#include <memory>

#include "obs/clock.hpp"
#include "obs/telemetry.hpp"

namespace propane {

namespace {

/// Microseconds between pool.queue_depth event samples.
constexpr std::uint64_t kQueueDepthEventIntervalUs = 250'000;

/// what() of the in-flight exception; safe for non-std exceptions.
std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-std exception";
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, const obs::Telemetry* telemetry) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (telemetry != nullptr) {
    tasks_completed_ = obs::find_counter(telemetry, "pool.tasks.completed");
    tasks_failed_ = obs::find_counter(telemetry, "pool.tasks.failed");
    suppressed_metric_ =
        obs::find_counter(telemetry, "pool.exceptions.suppressed");
    task_latency_us_ = obs::find_histogram(
        telemetry, "pool.task.latency_us", obs::one_two_five_bounds(1, 1e8));
    queue_depth_ = obs::find_gauge(telemetry, "pool.queue.depth");
    events_ = telemetry->events;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  PROPANE_REQUIRE(task != nullptr);
  std::size_t depth = 0;
  {
    std::unique_lock lock(mu_);
    PROPANE_REQUIRE_MSG(!shutting_down_, "submit() after shutdown");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  work_available_.notify_one();
  if (queue_depth_ != nullptr) {
    queue_depth_->set(static_cast<double>(depth));
  }
  if (events_ != nullptr) {
    // Sampled, not per-submit: one queue_depth event per interval.
    const std::uint64_t now = obs::steady_now_us();
    std::uint64_t last = queue_event_last_us_.load(std::memory_order_relaxed);
    if ((last == ~0ULL || now - last >= kQueueDepthEventIntervalUs) &&
        queue_event_last_us_.compare_exchange_strong(
            last, now, std::memory_order_relaxed)) {
      events_->emit(obs::make_event("pool.queue_depth",
                                    {{"depth", obs::Value(depth)}}));
    }
  }
}

void ThreadPool::wait_idle() {
  std::exception_ptr err;
  std::size_t suppressed = 0;
  std::string first_suppressed;
  {
    std::unique_lock lock(mu_);
    idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    err = first_error_;
    first_error_ = nullptr;
    suppressed = suppressed_errors_;
    suppressed_errors_ = 0;
    first_suppressed = std::move(first_suppressed_message_);
    first_suppressed_message_.clear();
  }
  if (!err) return;
  if (suppressed == 0) std::rethrow_exception(err);
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    throw TaskGroupError(
        std::string(e.what()) + " [+" + std::to_string(suppressed) +
            " suppressed task exception(s); first suppressed: " +
            first_suppressed + "]",
        suppressed, first_suppressed);
  } catch (...) {
    throw;  // non-std exception: nothing to annotate, pass it through
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  PROPANE_REQUIRE(begin <= end);
  if (begin == end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, thread_count() * 4);
  auto next = std::make_shared<std::atomic<std::size_t>>(begin);
  for (std::size_t c = 0; c < chunks; ++c) {
    submit([next, end, &body] {
      for (std::size_t i = next->fetch_add(1); i < end;
           i = next->fetch_add(1)) {
        body(i);
      }
    });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      if (queue_depth_ != nullptr) {
        queue_depth_->set(static_cast<double>(queue_.size()));
      }
    }
    // Only pay for the clock when a latency consumer is attached.
    const std::uint64_t start_us =
        task_latency_us_ != nullptr ? obs::steady_now_us() : 0;
    bool failed = false;
    try {
      task();
    } catch (...) {
      failed = true;
      const std::string message = describe_current_exception();
      std::unique_lock lock(mu_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      } else {
        ++suppressed_errors_;
        if (first_suppressed_message_.empty()) {
          first_suppressed_message_ = message;
        }
        if (suppressed_metric_ != nullptr) suppressed_metric_->add(1);
      }
    }
    if (task_latency_us_ != nullptr) {
      task_latency_us_->observe(
          static_cast<double>(obs::steady_now_us() - start_us));
    }
    if (failed) {
      if (tasks_failed_ != nullptr) tasks_failed_->add(1);
    } else if (tasks_completed_ != nullptr) {
      tasks_completed_->add(1);
    }
    {
      std::unique_lock lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace propane
