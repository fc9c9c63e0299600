#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <system_error>
#include <thread>
#include <vector>

#include "util/request_context.h"
#include "util/trace.h"

namespace floq {

size_t DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : size_t(hw);
}

void ParallelFor(size_t jobs, size_t count, FunctionRef<void(size_t)> fn) {
  jobs = std::min(jobs, count);
  if (jobs <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Relaxed is enough: the counter only hands out indices, and join()
  // publishes what fn wrote.
  std::atomic<size_t> next{0};
  // One slot per worker: a failing worker stops claiming and the others
  // drain the remaining indices.
  std::vector<std::exception_ptr> errors(jobs);
  auto work = [&](size_t worker) {
    try {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    } catch (...) {
      errors[worker] = std::current_exception();
    }
  };

  const RequestContext* context = CurrentRequestContext();
  const bool suppressed = TraceSuppress::active();
  std::vector<std::thread> threads;
  threads.reserve(jobs - 1);
  for (size_t worker = 1; worker < jobs; ++worker) {
    try {
      threads.emplace_back([&, worker] {
        ScopedRequestContext scoped(context);
        std::optional<TraceSuppress> quiet;
        if (suppressed) quiet.emplace();
        work(worker);
      });
    } catch (const std::system_error&) {
      break;  // out of threads: the workers already running drain the rest
    }
  }
  work(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace floq
