#include "util/trace.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "util/check.h"
#include "util/json.h"

namespace floq {

std::atomic<TraceSession*> TraceSession::current_{nullptr};

// One thread's ring. Only its owning thread writes; ToJson reads at a
// quiescent point (contract), so plain fields suffice except the counters
// a concurrent dropped()/size() probe may read.
struct TraceSession::ThreadBuffer {
  explicit ThreadBuffer(uint32_t tid_in, size_t capacity)
      : tid(tid_in), events(capacity) {}

  uint32_t tid;
  std::vector<TraceEvent> events;  // ring storage
  size_t next = 0;                 // write cursor
  std::atomic<uint64_t> recorded{0};
  std::atomic<uint64_t> dropped{0};
};

struct TraceSession::Impl {
  uint64_t generation = 0;  // process-unique id of this session
  std::mutex mu;            // guards registration and hand-back only
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  // Rings whose threads exited, for the next thread that starts tracing.
  std::vector<ThreadBuffer*> handed_back;
};

namespace {

std::atomic<uint64_t> g_session_generation{0};

// Held while a ring is handed back at thread exit and while a session
// uninstalls itself, so a hand-back never reaches a session being freed.
std::mutex g_hand_back_mu;

thread_local int g_suppress_depth = 0;

}  // namespace

// Cache of this thread's buffer within the current session. Keyed on the
// session's process-unique generation, NOT its address: a later session
// can be heap-allocated at a dead session's address, and a pointer tag
// would then hand back a dangling buffer.
struct TraceSession::ThreadCache {
  uint64_t generation = 0;  // 0 never matches a live session
  ThreadBuffer* buffer = nullptr;

  // Thread exit: if the ring's session is still installed, the ring goes
  // back to it. The mutexes order this thread's last appends before the
  // next owner's first.
  ~ThreadCache() {
    if (buffer == nullptr) return;
    std::lock_guard<std::mutex> lock(g_hand_back_mu);
    TraceSession* session = current_.load(std::memory_order_acquire);
    if (session == nullptr || session->impl_->generation != generation) return;
    std::lock_guard<std::mutex> registration(session->impl_->mu);
    session->impl_->handed_back.push_back(buffer);
  }
};

thread_local TraceSession::ThreadCache TraceSession::thread_cache_;

TraceSuppress::TraceSuppress() { ++g_suppress_depth; }
TraceSuppress::~TraceSuppress() { --g_suppress_depth; }
bool TraceSuppress::active() { return g_suppress_depth > 0; }

TraceSession::TraceSession(size_t events_per_thread)
    : start_(std::chrono::steady_clock::now()),
      events_per_thread_(events_per_thread == 0 ? 1 : events_per_thread),
      impl_(new Impl()) {
  impl_->generation =
      g_session_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  TraceSession* expected = nullptr;
  FLOQ_CHECK(current_.compare_exchange_strong(expected, this,
                                              std::memory_order_acq_rel));
}

TraceSession::~TraceSession() {
  {
    std::lock_guard<std::mutex> lock(g_hand_back_mu);
    current_.store(nullptr, std::memory_order_release);
  }
  delete impl_;
}

TraceSession::ThreadBuffer& TraceSession::BufferForThisThread() {
  ThreadCache& cache = thread_cache_;
  if (cache.generation == impl_->generation) return *cache.buffer;
  std::lock_guard<std::mutex> lock(impl_->mu);
  ThreadBuffer* buffer = nullptr;
  if (!impl_->handed_back.empty()) {
    buffer = impl_->handed_back.back();
    impl_->handed_back.pop_back();
  } else {
    impl_->buffers.push_back(std::make_unique<ThreadBuffer>(
        uint32_t(impl_->buffers.size()), events_per_thread_));
    buffer = impl_->buffers.back().get();
  }
  cache.generation = impl_->generation;
  cache.buffer = buffer;
  return *buffer;
}

void TraceSession::Append(const TraceEvent& event) {
  ThreadBuffer& buffer = BufferForThisThread();
  TraceEvent stored = event;
  stored.tid = buffer.tid;
  if (buffer.recorded.load(std::memory_order_relaxed) >=
      buffer.events.size()) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  buffer.events[buffer.next] = stored;
  buffer.next = (buffer.next + 1) % buffer.events.size();
  buffer.recorded.fetch_add(1, std::memory_order_relaxed);
}

void TraceSpan::Finish() {
  auto stop = std::chrono::steady_clock::now();
  event_.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        start_ - session_->start_)
                        .count();
  event_.dur_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start_)
          .count();
  session_->Append(event_);
}

uint64_t TraceSession::dropped() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint64_t total = 0;
  for (const auto& buffer : impl_->buffers) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t TraceSession::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint64_t total = 0;
  for (const auto& buffer : impl_->buffers) {
    uint64_t recorded = buffer->recorded.load(std::memory_order_relaxed);
    total += std::min<uint64_t>(recorded, buffer->events.size());
  }
  return total;
}

namespace {

void AppendEvent(std::string& out, const TraceEvent& event, bool first) {
  char buffer[160];
  // Chrome's ts/dur are microseconds; keep nanosecond precision with
  // fractional values.
  std::snprintf(buffer, sizeof(buffer),
                "%s  {\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                "\"ts\": %.3f, \"dur\": %.3f, \"name\": ",
                first ? "" : ",\n", event.tid, double(event.start_ns) / 1e3,
                double(event.dur_ns) / 1e3);
  out += buffer;
  AppendJsonString(event.name, &out);
  if (event.num_args > 0) {
    out += ", \"args\": {";
    for (uint8_t i = 0; i < event.num_args; ++i) {
      const TraceArg& arg = event.args[i];
      if (i > 0) out += ", ";
      AppendJsonString(arg.key, &out);
      out += ": ";
      if (arg.str != nullptr) {
        AppendJsonString(arg.str, &out);
      } else {
        char num[24];
        std::snprintf(num, sizeof(num), "%lld",
                      static_cast<long long>(arg.num));
        out += num;
      }
    }
    out += "}";
  }
  out += "}";
}

}  // namespace

std::string TraceSession::ToJson() const {
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& buffer : impl_->buffers) {
    uint64_t recorded = buffer->recorded.load(std::memory_order_relaxed);
    size_t count = size_t(std::min<uint64_t>(recorded, buffer->events.size()));
    // Oldest-first: a wrapped ring starts at the write cursor.
    size_t begin = recorded > buffer->events.size() ? buffer->next : 0;
    for (size_t i = 0; i < count; ++i) {
      const TraceEvent& event =
          buffer->events[(begin + i) % buffer->events.size()];
      AppendEvent(out, event, first);
      first = false;
    }
  }
  out += first ? "]" : "\n]";
  out += ",\n\"otherData\": {\"tool\": \"floq\"}}\n";
  return out;
}

}  // namespace floq
