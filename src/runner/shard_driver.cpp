#include "runner/shard_driver.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/streaming.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace gtrix {

namespace {

/// What the barrier completion decided the workers should do next.
enum class WindowKind : std::uint8_t {
  kRunBefore,  ///< run events strictly below `horizon`
  kRunUntil,   ///< final window: run events <= `horizon` (the deadline)
  kStop,
};

struct WindowPlan {
  WindowKind kind = WindowKind::kStop;
  SimTime horizon = 0.0;
};

}  // namespace

void ShardDriver::run(SimTime deadline) {
  const std::size_t shards = sims_.size();
  GTRIX_CHECK_MSG(shards >= 1, "ShardDriver requires a shard");
  const SimTime lookahead = net_.cross_shard_lookahead();
  GTRIX_CHECK_MSG(lookahead > 0.0, "cross-shard lookahead must be positive");
  GTRIX_CHECK_MSG(shards == 1 || lookahead < kTimeInfinity, "no edge crosses the shard cut");

  WindowPlan plan;
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  // Serial section between windows: runs on exactly one thread while every
  // worker waits at the barrier, so it may touch all shards' state.
  auto completion = [&]() noexcept {
    try {
      if (failed.load(std::memory_order_acquire)) {
        plan = WindowPlan{WindowKind::kStop, 0.0};
        return;
      }
      if (stream_ != nullptr) stream_->exchange();  // the cut nodes' commits
      // Hand the window's cross-shard sends over to the receivers: only here,
      // with every worker parked at the barrier, is it safe to move them out
      // of the send-side cells (workers drain the published buffer while the
      // NEXT window's sends are already appending).
      net_.publish_mailboxes();
      SimTime gmin = net_.earliest_mailbox_time();
      for (Simulator* sim : sims_) gmin = std::min(gmin, sim->next_event_time());
      if (gmin > deadline || gmin == kTimeInfinity) {
        plan = WindowPlan{WindowKind::kStop, 0.0};
        return;
      }
      const SimTime horizon = gmin + lookahead;
      if (horizon > deadline || horizon == kTimeInfinity) {
        // Final window, inclusive: anything sent in it arrives after the
        // deadline (gmin + L > deadline) and stays parked. One shard has no
        // cut (L is infinite), so its first window is the final one.
        plan = WindowPlan{WindowKind::kRunUntil, deadline};
      } else {
        plan = WindowPlan{WindowKind::kRunBefore, horizon};
      }
    } catch (...) {
      // Surface an error of the exchange instead of terminating (the
      // completion must be noexcept).
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_release);
      plan = WindowPlan{WindowKind::kStop, 0.0};
    }
  };

  // `sync` ends a window: the barrier's arrive_and_wait, or at one shard
  // the completion itself, called inline.
  auto worker = [&](std::size_t shard, auto&& sync) {
    Simulator& sim = *sims_[shard];
    Telemetry::Lane* lane =
        obs_.telemetry != nullptr ? &obs_.telemetry->lane(static_cast<std::uint32_t>(shard))
                                  : nullptr;
    TraceCollector* trace = obs_.trace;
    // Timing is one branch + at most three clock reads per WINDOW (windows
    // are milliseconds of work); with no observers attached the loop below
    // is the untimed pre-telemetry loop.
    const bool timed = lane != nullptr || trace != nullptr;
    using Clock = std::chrono::steady_clock;
    while (true) {
      Clock::time_point t_arrive{};
      if (timed) t_arrive = Clock::now();
      sync();
      if (plan.kind == WindowKind::kStop) return;
      Clock::time_point t_start{};
      std::uint64_t executed_before = 0;
      const WindowKind kind = plan.kind;
      if (timed) {
        t_start = Clock::now();
        executed_before = sim.executed_events();
      }
      try {
        net_.drain_mailbox(static_cast<std::uint32_t>(shard));
        if (kind == WindowKind::kRunBefore) {
          sim.run_before(plan.horizon);
        } else {
          sim.run_until(plan.horizon);
        }
      } catch (...) {
        // Keep arriving at the barrier so the other workers don't deadlock;
        // the completion sees `failed` and stops everyone.
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
      if (timed) {
        const Clock::time_point t_end = Clock::now();
        const std::uint64_t executed = sim.executed_events() - executed_before;
        if (lane != nullptr) {
          ++lane->windows;
          lane->window_events.add(executed);
          lane->barrier_wait_seconds +=
              std::chrono::duration<double>(t_start - t_arrive).count();
          lane->busy_seconds += std::chrono::duration<double>(t_end - t_start).count();
        }
        if (trace != nullptr) {
          const std::uint32_t tid = static_cast<std::uint32_t>(shard);
          trace->add_complete(obs_.trace_pid, tid, "barrier", trace->us_at(t_arrive),
                              trace->us_at(t_start) - trace->us_at(t_arrive));
          trace->add_complete(obs_.trace_pid, tid,
                              kind == WindowKind::kRunBefore ? "window" : "window-final",
                              trace->us_at(t_start),
                              trace->us_at(t_end) - trace->us_at(t_start),
                              static_cast<std::int64_t>(executed));
        }
      }
    }
  };

  if (obs_.trace != nullptr) {
    for (std::size_t shard = 0; shard < shards; ++shard) {
      obs_.trace->set_thread_name(obs_.trace_pid, static_cast<std::uint32_t>(shard),
                                  "shard " + std::to_string(shard));
    }
  }

  if (shards == 1) {
    worker(0, completion);  // the serial engine: no thread, no barrier
  } else {
    std::barrier barrier(static_cast<std::ptrdiff_t>(shards), completion);
    std::vector<std::jthread> threads;
    threads.reserve(shards);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      threads.emplace_back([&, shard] { worker(shard, [&] { barrier.arrive_and_wait(); }); });
    }
  }  // jthreads join here

  if (first_error) std::rethrow_exception(first_error);
  if (deadline != kTimeInfinity) {
    // run_until semantics: every shard's clock ends at the deadline even if
    // its events ran dry earlier, so follow-up scheduling is relative to it.
    for (Simulator* sim : sims_) sim->advance_to(deadline);
  }
}

}  // namespace gtrix
