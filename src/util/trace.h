#ifndef FLOQ_UTIL_TRACE_H_
#define FLOQ_UTIL_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

// Scoped-span tracing (DESIGN.md §12): while a TraceSession is installed,
// TraceSpan scopes record complete events ("ph":"X") into per-thread ring
// buffers, and ToJson() renders them in the Chrome trace_event format —
// the output loads directly in chrome://tracing and Perfetto. With no
// session installed a span's constructor is one relaxed pointer load and a
// branch; no clock is read and nothing is written, so uninstrumented runs
// pay essentially nothing (bench_observability_overhead, E13).
//
// Contracts (all honored by the CLI and the tests):
//   * at most one TraceSession exists at a time;
//   * the session is created and destroyed at quiescent points (no span
//     live on any thread), and outlives every thread that traced into it;
//   * span names and string args are string literals (the buffer stores
//     the pointers, not copies);
//   * ToJson() is called while writers are quiescent (after fan-out join).
//
// The per-thread buffers are rings: when a thread exceeds its capacity the
// oldest events are overwritten and the drop is counted, so tracing a long
// batch degrades to "most recent window" instead of unbounded memory. A
// thread that exits hands its ring back to the session, and the next
// thread that starts tracing continues it under the same tid: fan-out that
// starts fresh threads per batch (ParallelFor) holds as many rings as it
// ever ran threads at once, not one per thread it ever started.

namespace floq {

class TraceSession;

/// One key/value span annotation. `str` non-null means a string value
/// (must be a literal); otherwise `num` is the value.
struct TraceArg {
  const char* key = nullptr;
  const char* str = nullptr;
  int64_t num = 0;
};

/// A completed span: [start, start + duration) on one thread.
struct TraceEvent {
  const char* name = nullptr;
  uint32_t tid = 0;
  int64_t start_ns = 0;  // since session start
  int64_t dur_ns = 0;
  uint8_t num_args = 0;
  std::array<TraceArg, 4> args;
};

/// Installs itself as the process-wide trace sink on construction and
/// uninstalls on destruction.
class TraceSession {
 public:
  /// `events_per_thread` bounds each thread's ring buffer.
  explicit TraceSession(size_t events_per_thread = size_t{1} << 14);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The installed session, or nullptr when tracing is off.
  static TraceSession* Current() {
    return current_.load(std::memory_order_acquire);
  }

  /// Chrome trace_event JSON ({"displayTimeUnit", "traceEvents": [...]}).
  /// Call at a quiescent point only.
  std::string ToJson() const;

  /// Events dropped to ring wrap-around, across all threads.
  uint64_t dropped() const;
  /// Events currently buffered, across all threads.
  uint64_t size() const;

 private:
  friend class TraceSpan;

  struct ThreadBuffer;
  struct Impl;
  // This thread's ring within one session; hands it back at thread exit.
  struct ThreadCache;

  /// The calling thread's ring buffer (a handed-back ring, else a new one,
  /// on first use).
  ThreadBuffer& BufferForThisThread();
  void Append(const TraceEvent& event);

  static std::atomic<TraceSession*> current_;
  static thread_local ThreadCache thread_cache_;

  std::chrono::steady_clock::time_point start_;
  size_t events_per_thread_;
  Impl* impl_;
};

/// Thread-local span suppression for sampled tracing: while a
/// TraceSuppress scope is live on a thread, every TraceSpan constructed on
/// that thread is a no-op even though a session is installed. The daemon
/// wraps non-sampled requests in one of these (`--trace-sample N` keeps
/// every N-th request), so a long-lived session records a representative
/// sample instead of everything. Nestable; costs nothing when no session
/// is installed (the span checks the session pointer first).
class TraceSuppress {
 public:
  TraceSuppress();
  ~TraceSuppress();

  TraceSuppress(const TraceSuppress&) = delete;
  TraceSuppress& operator=(const TraceSuppress&) = delete;

  /// True while any TraceSuppress scope is live on this thread.
  static bool active();
};

/// An RAII scope measured on the monotonic clock. Cheap no-op when no
/// session is installed; the session pointer is captured once at
/// construction, so a scope spans consistently even if the session is
/// being torn down elsewhere (forbidden by contract, but cheap to be
/// robust about).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : session_(TraceSession::Current()) {
    if (session_ == nullptr) return;
    if (TraceSuppress::active()) {
      session_ = nullptr;
      return;
    }
    event_.name = name;
    start_ = std::chrono::steady_clock::now();
  }

  ~TraceSpan() {
    if (session_ == nullptr) return;
    Finish();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return session_ != nullptr; }

  /// Attaches a numeric or literal-string annotation (at most 4 per span;
  /// extras are dropped). No-op when inactive.
  TraceSpan& Arg(const char* key, int64_t value) {
    if (session_ != nullptr && event_.num_args < event_.args.size()) {
      event_.args[event_.num_args++] = TraceArg{key, nullptr, value};
    }
    return *this;
  }
  TraceSpan& Arg(const char* key, const char* value) {
    if (session_ != nullptr && event_.num_args < event_.args.size()) {
      event_.args[event_.num_args++] = TraceArg{key, value, 0};
    }
    return *this;
  }

 private:
  void Finish();

  TraceSession* session_;
  std::chrono::steady_clock::time_point start_;
  TraceEvent event_;
};

}  // namespace floq

#endif  // FLOQ_UTIL_TRACE_H_
