#ifndef FLOQ_SERVER_DAEMON_H_
#define FLOQ_SERVER_DAEMON_H_

#include <cstdint>
#include <string>

#include "server/registry.h"
#include "util/status.h"

// The `floq serve` daemon: an AF_UNIX stream listener speaking the
// length-prefixed JSON protocol (protocol.h) over a durable QueryRegistry
// (registry.h). One thread per connection, with a counting-semaphore
// admission gate in front of request execution: `workers` requests run,
// up to `queue_limit` wait, and anything beyond is shed immediately with
// a typed OVERLOADED response — the daemon never queues unboundedly.
//
// Degradation ladder (DESIGN.md §16): malformed frame → BAD_REQUEST and
// the connection closes; bad command → INVALID; unknown name →
// NOT_FOUND; admission shed → OVERLOADED; budget trip mid-check →
// ok:true with resolution UNKNOWN and a typed reason; internal I/O
// failure → INTERNAL. A verdict is never invented: overload and timeouts
// surface only as OVERLOADED/UNKNOWN.
//
// SIGTERM/SIGINT start a graceful drain: stop accepting, let in-flight
// requests finish (a second signal cancels them through the shared
// CancellationSource every request budget carries), checkpoint the
// registry, unlink the socket, return from Serve with Status::Ok so the
// process exits 0.

namespace floq::server {

struct DaemonOptions {
  // Registry directory (WAL + checkpoint live here). Required.
  std::string dir;
  // Listener path; defaults to dir + "/floq.sock". AF_UNIX paths are
  // limited to ~107 bytes — keep the directory shallow.
  std::string socket_path;
  // Concurrent request executors.
  int workers = 2;
  // Requests allowed to wait for a worker before shedding OVERLOADED.
  int queue_limit = 16;
  // Concurrent client connections; further accepts are shed with an
  // OVERLOADED frame and an immediate close.
  int max_connections = 64;
  // Idle read deadline per connection: a silent client is disconnected.
  int64_t idle_timeout_ms = 30'000;
  // Deadline for writing one reply frame (slow-reader guard).
  int64_t io_timeout_ms = 10'000;
  // Default per-request containment budget; requests may lower but never
  // raise these (<= 0 / 0 = unlimited).
  int64_t request_timeout_ms = 0;
  uint64_t hom_step_budget = 0;
  // Registry checkpoint cadence (mutations between checkpoints).
  int checkpoint_every = 32;
  // Engine fan-out for index inserts.
  int jobs = 1;

  // Observability (DESIGN.md §17). The daemon always arms the metrics
  // registry — a server without counters is not operable — and the
  // E13/E17 benches gate the cost.
  //
  // Structured log sink (JSON lines, util/log.h): empty = stderr.
  std::string log_out;
  // Minimum level that emits: debug|info|warn|error|off.
  std::string log_level = "info";
  // Requests slower than this log a warn-level "request.slow" line with
  // the request id; <= 0 disables the slow-request log.
  int64_t slow_request_ms = 1'000;
  // Sampled tracing: keep every Nth request's span tree in a long-lived
  // trace session, rolled to Chrome-trace files in `trace_dir` at
  // quiescent moments. 0 disables tracing entirely.
  int trace_sample = 0;
  // Rolling trace output directory; defaults to dir + "/traces".
  std::string trace_dir;
  // Loopback HTTP listener serving GET /metrics in Prometheus text
  // exposition, so stock scrapers work unmodified. 0 disables.
  int http_metrics_port = 0;
};

// Runs the daemon until a drain signal, serving on options.socket_path.
// Installs SIGTERM/SIGINT/SIGPIPE handlers. Returns Ok after a graceful
// drain (caller exits 0), an error Status on startup or fatal I/O
// failure (caller exits 4).
Status RunDaemon(const DaemonOptions& options);

}  // namespace floq::server

#endif  // FLOQ_SERVER_DAEMON_H_
