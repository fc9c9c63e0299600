#ifndef FLOQ_UTIL_PARALLEL_FOR_H_
#define FLOQ_UTIL_PARALLEL_FOR_H_

#include <cstddef>

#include "util/function_ref.h"

// The batch engine's fan-out (DESIGN.md §8): no pool, no task queue. A
// call starts its own workers, they claim indices one at a time from one
// atomic counter, and the call joins them before it returns. Items are
// coarse (a row of a containment batch each: its signature tests, its own
// chase and its searches) and their cost is unknown up front, so claiming
// one at a time keeps a slow item from holding up any other: a runaway
// row pins only the worker running it.

namespace floq {

/// std::thread::hardware_concurrency with a fallback for the platforms
/// where it reports 0.
size_t DefaultThreads();

/// Runs fn(0) .. fn(count - 1) on min(jobs, count) workers — the calling
/// thread plus the threads started for this call — and returns once every
/// index has run. jobs <= 1 runs everything on the calling thread. Each
/// started thread runs under the caller's request context and trace
/// suppression (both thread-local), so its spans are attributed and
/// sampled like the caller's own. An exception thrown by fn on any worker
/// is rethrown here after all workers have joined.
void ParallelFor(size_t jobs, size_t count, FunctionRef<void(size_t)> fn);

}  // namespace floq

#endif  // FLOQ_UTIL_PARALLEL_FOR_H_
