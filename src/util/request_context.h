#ifndef FLOQ_UTIL_REQUEST_CONTEXT_H_
#define FLOQ_UTIL_REQUEST_CONTEXT_H_

#include <cstdint>
#include <string>

#include "util/trace.h"

// Request attribution (DESIGN.md §17). The daemon assigns every request a
// process-unique id, reads the client's optional "trace_id" string, and
// installs a ScopedRequestContext on the connection thread for the
// request's lifetime. Everything downstream that wants attribution —
// structured log lines, trace spans, the reply itself — reads the ambient
// context instead of threading an extra parameter through the engine,
// registry, and WAL signatures.
//
// The context is thread-local. ParallelFor (util/parallel_for.h), the
// batch engine's fan-out, installs the caller's context in every thread it
// starts, so a request's spans and log lines carry its id whichever thread
// emits them.

namespace floq {

struct RequestContext {
  uint64_t id = 0;        // server-assigned, unique per daemon process
  std::string trace_id;   // client-supplied, may be empty
};

/// Installs `context` as this thread's ambient request for the scope.
/// Nested scopes restore the previous context on destruction. The caller
/// keeps ownership; `context` must outlive the scope.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(const RequestContext* context);
  ~ScopedRequestContext();

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  const RequestContext* previous_;
};

/// The ambient request on this thread, or nullptr outside any scope.
const RequestContext* CurrentRequestContext();

/// Attaches the ambient request id to `span` (no-op outside a request
/// scope or when the span is inactive). The trace id is a client string,
/// so it goes to log lines and replies, not span args (span string args
/// must be literals).
inline void AnnotateWithRequest(TraceSpan& span) {
  if (const RequestContext* context = CurrentRequestContext()) {
    span.Arg("request_id", int64_t(context->id));
  }
}

}  // namespace floq

#endif  // FLOQ_UTIL_REQUEST_CONTEXT_H_
