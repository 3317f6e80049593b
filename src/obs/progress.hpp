// Live campaign progress heartbeat (gtrix_campaign --progress[=SECONDS]).
//
// One stderr line per interval:
//
//   [quickstart-grid] 3/8 cells | 1.82M ev/s | 4.1s elapsed | eta 6.8s
//
// The meter is fed from the campaign's worker threads (cell_done is two
// relaxed atomic adds -- safe from any thread, nanoseconds of work) and
// printed from its own heartbeat thread, so a stalled cell still heartbeats
// and the workers never block on I/O. Progress is presentation only: it
// writes stderr exclusively, touches no result state, and therefore cannot
// perturb the JSONL determinism contract.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace gtrix {

class ProgressMeter {
 public:
  /// Starts the heartbeat thread; `interval_seconds` > 0. `label` prefixes
  /// every line (the scenario name).
  ProgressMeter(std::string label, std::uint64_t total_cells, double interval_seconds);

  /// Stops the heartbeat thread (prints one final line if any cell ran).
  ~ProgressMeter();

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Reports one finished cell and its logical event count. Thread-safe.
  void cell_done(std::uint64_t logical_events) {
    events_.fetch_add(logical_events, std::memory_order_relaxed);
    done_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  void heartbeat_loop(double interval_seconds);
  void print_line() const;

  std::string label_;
  std::uint64_t total_cells_;
  std::chrono::steady_clock::time_point started_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> events_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace gtrix
