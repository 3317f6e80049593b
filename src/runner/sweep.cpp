#include "runner/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace gtrix {

namespace {

unsigned resolve_threads(unsigned requested, std::size_t work_items) {
  unsigned threads = requested;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;  // hardware_concurrency may be unknown
  }
  if (work_items < threads) threads = static_cast<unsigned>(work_items);
  return threads == 0 ? 1 : threads;
}

}  // namespace

void parallel_for_index(std::size_t n, unsigned threads,
                        const std::function<void(std::size_t)>& fn) {
  GTRIX_CHECK_MSG(static_cast<bool>(fn), "parallel_for_index requires a body");
  if (n == 0) return;
  const unsigned workers = resolve_threads(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Keep draining: siblings finish their current item and exit via the
        // cursor; aborting mid-item would leave result slots half-written.
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gtrix
