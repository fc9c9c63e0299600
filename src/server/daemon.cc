#include "server/daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "containment/containment.h"
#include "flogic/parser.h"
#include "server/protocol.h"
#include "util/fault.h"
#include "util/file.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/request_context.h"
#include "util/strings.h"
#include "util/trace.h"

namespace floq::server {

namespace {

// ---------------------------------------------------------------------------
// Signals: a self-pipe so the accept loop's poll wakes on SIGTERM/SIGINT.

int g_signal_pipe[2] = {-1, -1};

void OnDrainSignal(int /*sig*/) {
  char byte = 1;
  // Best effort; a full pipe means a wakeup is already pending.
  [[maybe_unused]] ssize_t rc = ::write(g_signal_pipe[1], &byte, 1);
}

Status InstallSignalHandlers() {
  if (g_signal_pipe[0] < 0) {
    if (::pipe(g_signal_pipe) != 0) {
      return ErrnoError("pipe");
    }
    ::fcntl(g_signal_pipe[0], F_SETFL, O_NONBLOCK);
    ::fcntl(g_signal_pipe[1], F_SETFL, O_NONBLOCK);
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnDrainSignal;
  ::sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGTERM, &sa, nullptr) != 0 ||
      ::sigaction(SIGINT, &sa, nullptr) != 0) {
    return ErrnoError("sigaction");
  }
  ::signal(SIGPIPE, SIG_IGN);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Admission gate: `workers` permits, a bounded wait queue, immediate shed
// beyond it.

class AdmissionGate {
 public:
  AdmissionGate(int workers, int queue_limit)
      : workers_(std::max(workers, 1)), queue_limit_(std::max(queue_limit, 0)) {}

  // True once a permit is held; false = shed (reply OVERLOADED).
  bool Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    if (active_ < workers_) {
      ++active_;
      PublishGaugesLocked();
      return true;
    }
    if (waiting_ >= queue_limit_) return false;
    ++waiting_;
    PublishGaugesLocked();
    cv_.wait(lock, [&] { return active_ < workers_; });
    --waiting_;
    ++active_;
    PublishGaugesLocked();
    return true;
  }

  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    PublishGaugesLocked();
    cv_.notify_one();
  }

  int active() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
  }

 private:
  // Under mu_, so the two gauges are mutually consistent.
  void PublishGaugesLocked() {
    if (!MetricsRegistry::enabled()) return;
    static Gauge& inflight = MetricsRegistry::Get().gauge("serve.inflight");
    static Gauge& depth = MetricsRegistry::Get().gauge("serve.queue.depth");
    inflight.Set(active_);
    depth.Set(waiting_);
  }

  const int workers_;
  const int queue_limit_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int active_ = 0;
  int waiting_ = 0;
};

// ---------------------------------------------------------------------------
// Responses

// Stamps the ambient request attribution (util/request_context.h) into a
// reply before serializing: the request_id in the reply is the same id the
// span tree and every log line of this request carry. Replies built
// outside a request scope (accept-path sheds, stream-level errors) pass
// through unstamped.
std::string Finalize(Json reply) {
  if (const RequestContext* context = CurrentRequestContext()) {
    reply.Set("request_id", Json::Number(double(context->id)));
    if (!context->trace_id.empty()) {
      reply.Set("trace_id", Json::String(context->trace_id));
    }
  }
  return reply.Serialize();
}

std::string ErrorReply(const char* code, const std::string& message) {
  Json reply = Json::Object();
  reply.Set("ok", Json::Bool(false));
  reply.Set("code", Json::String(code));
  reply.Set("error", Json::String(message));
  return Finalize(std::move(reply));
}

const char* CodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return "INVALID";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kFailedPrecondition:
      return "INVALID";
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return "UNKNOWN";
    default:
      return "INTERNAL";
  }
}

std::string StatusReply(const Status& status) {
  return ErrorReply(CodeForStatus(status), status.message());
}

// ---------------------------------------------------------------------------
// Daemon

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& options)
      : options_(Normalize(options)),
        registry_(RegistryOptions{
            options_.dir,
            BatchContainmentOptions{
                ContainmentOptions{},
                options_.jobs,
            },
            options_.checkpoint_every,
        }),
        gate_(options_.workers, options_.queue_limit) {}

  Status Run() {
    FLOQ_RETURN_IF_ERROR(ConfigureObservability());
    FLOQ_RETURN_IF_ERROR(InstallSignalHandlers());
    DrainPendingSignals();
    FLOQ_RETURN_IF_ERROR(registry_.Open());
    FLOQ_RETURN_IF_ERROR(Listen());
    FLOQ_RETURN_IF_ERROR(StartHttpMetrics());
    FLOQ_LOG(Info, "serve.listening")
        .Str("socket", options_.socket_path)
        .Num("queries", int64_t(registry_.Snapshot()->entries.size()));
    Serve();
    return Drain();
  }

 private:
  static DaemonOptions Normalize(DaemonOptions options) {
    if (options.socket_path.empty()) {
      options.socket_path = options.dir + "/floq.sock";
    }
    options.workers = std::max(options.workers, 1);
    options.queue_limit = std::max(options.queue_limit, 0);
    options.max_connections = std::max(options.max_connections, 1);
    return options;
  }

  Status Listen() {
    struct sockaddr_un addr;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      return InvalidArgumentError("socket path too long for AF_UNIX: " +
                                  options_.socket_path);
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return ErrnoError("socket");
    }
    // A stale socket file from a crashed daemon would make bind fail;
    // remove it (exclusive ownership of the registry dir is assumed —
    // this is a single-process design).
    ::unlink(options_.socket_path.c_str());
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return ErrnoError("bind(" + options_.socket_path + ")");
    }
    if (::listen(listen_fd_, 64) != 0) {
      return ErrnoError("listen");
    }
    return Status::Ok();
  }

  Status ConfigureObservability() {
    // A long-lived server is not operable blind: metrics are always on
    // (the cost is gated by E13/E17), logging level and sink follow the
    // options, tracing is opt-in via --trace-sample.
    MetricsRegistry::set_enabled(true);
    LogLevel level = LogLevel::kInfo;
    if (!options_.log_level.empty() &&
        !ParseLogLevel(options_.log_level, &level)) {
      return InvalidArgumentError("unknown log level '" + options_.log_level +
                                  "' (debug|info|warn|error|off)");
    }
    Logger::Get().set_level(level);
    if (!options_.log_out.empty()) {
      FLOQ_RETURN_IF_ERROR(Logger::Get().OpenFile(options_.log_out));
    }
    if (options_.trace_sample > 0) {
      trace_dir_ = options_.trace_dir.empty() ? options_.dir + "/traces"
                                              : options_.trace_dir;
      if (::mkdir(trace_dir_.c_str(), 0755) != 0 && errno != EEXIST) {
        return ErrnoError("mkdir(" + trace_dir_ + ")");
      }
      trace_session_ = std::make_unique<TraceSession>();
    }
    return Status::Ok();
  }

  // Writes the buffered spans to the next rolling trace file and restarts
  // the session. Callers must guarantee quiescence (no connection thread
  // live): the accept loop rotates only when connections_ == 0, and Drain
  // rotates after joining every connection thread — the TraceSession
  // single-writer contract (trace.h) holds at both sites.
  void RotateTraceLocked() {
    if (trace_session_ == nullptr || trace_session_->size() == 0) return;
    std::string path =
        StrCat(trace_dir_, "/floq-trace-", trace_file_seq_++, ".json");
    if (Status written = WriteFile(path, trace_session_->ToJson());
        !written.ok()) {
      FLOQ_LOG(Warn, "trace.rotate_failed")
          .Str("path", path)
          .Str("error", written.ToString());
    } else {
      FLOQ_LOG(Info, "trace.rotated")
          .Str("path", path)
          .Num("events", int64_t(trace_session_->size()))
          .Num("dropped", int64_t(trace_session_->dropped()));
      if (MetricsRegistry::enabled()) {
        static Counter& rotations =
            MetricsRegistry::Get().counter("serve.trace.rotations");
        rotations.Add(1);
      }
    }
    // Destroy-then-recreate at this quiescent point; the generation-keyed
    // thread cache makes reuse of the old address safe.
    trace_session_.reset();
    trace_session_ = std::make_unique<TraceSession>();
  }

  Status StartHttpMetrics() {
    if (options_.http_metrics_port <= 0) return Status::Ok();
    http_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (http_fd_ < 0) {
      return ErrnoError("socket(http)");
    }
    int one = 1;
    ::setsockopt(http_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never public
    addr.sin_port = htons(uint16_t(options_.http_metrics_port));
    if (::bind(http_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(http_fd_, 16) != 0) {
      Status st = ErrnoError(
          StrCat("bind(http 127.0.0.1:", options_.http_metrics_port, ")"));
      ::close(http_fd_);
      http_fd_ = -1;
      return st;
    }
    FLOQ_LOG(Info, "serve.http_metrics.listening")
        .Num("port", options_.http_metrics_port);
    http_thread_ = std::thread([this] { ServeHttpMetrics(); });
    return Status::Ok();
  }

  // Minimal HTTP/1.0 exposition endpoint: GET /metrics -> Prometheus text
  // format. One request per connection, loopback only, no keep-alive —
  // exactly what a scraper needs and nothing more.
  void ServeHttpMetrics() {
    while (!draining_.load(std::memory_order_acquire)) {
      struct pollfd pfd = {http_fd_, POLLIN, 0};
      int rc = ::poll(&pfd, 1, 200);
      if (rc <= 0 || (pfd.revents & POLLIN) == 0) continue;
      int client = ::accept(http_fd_, nullptr, nullptr);
      if (client < 0) continue;
      struct timeval tv = {1, 0};  // slow-scraper guard
      ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
      std::string head;
      char buf[1024];
      while (head.find("\r\n\r\n") == std::string::npos &&
             head.size() < 8192) {
        ssize_t n = ::recv(client, buf, sizeof(buf), 0);
        if (n <= 0) break;
        head.append(buf, size_t(n));
      }
      bool found = head.rfind("GET /metrics", 0) == 0;
      std::string body =
          found ? MetricsRegistry::Get().Snapshot().ToPrometheus()
                : std::string("not found\n");
      std::string response = StrCat(
          "HTTP/1.0 ", found ? "200 OK" : "404 Not Found",
          "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8"
          "\r\nContent-Length: ", body.size(),
          "\r\nConnection: close\r\n\r\n", body);
      size_t off = 0;
      while (off < response.size()) {
        ssize_t n = ::send(client, response.data() + off,
                           response.size() - off, MSG_NOSIGNAL);
        if (n <= 0) break;
        off += size_t(n);
      }
      ::close(client);
      if (MetricsRegistry::enabled()) {
        static Counter& scrapes =
            MetricsRegistry::Get().counter("serve.http_metrics.scrapes");
        scrapes.Add(1);
      }
    }
  }

  void DrainPendingSignals() {
    char buf[64];
    while (g_signal_pipe[0] >= 0 &&
           ::read(g_signal_pipe[0], buf, sizeof(buf)) > 0) {
    }
  }

  void Serve() {
    while (!draining_.load(std::memory_order_acquire)) {
      struct pollfd fds[2] = {
          {listen_fd_, POLLIN, 0},
          {g_signal_pipe[0], POLLIN, 0},
      };
      int rc = ::poll(fds, 2, 200);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      ReapFinished();
      // Roll the trace file only while no connection thread is live — the
      // only point the accept loop can prove span quiescence.
      if (trace_session_ != nullptr &&
          connections_.load(std::memory_order_acquire) == 0 &&
          trace_session_->size() >= kTraceRotateEvents) {
        RotateTraceLocked();
      }
      if ((fds[1].revents & POLLIN) != 0) {
        DrainPendingSignals();
        if (!StartDrain()) {
          // Second signal: cancel in-flight requests through the shared
          // token so the drain converges within one governor tick batch.
          drain_source_.Cancel();
        }
        break;
      }
      if ((fds[0].revents & POLLIN) == 0) continue;
      int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) continue;
      if (connections_.load(std::memory_order_relaxed) >=
          options_.max_connections) {
        // Typed shed, then close: the client learns it was load, not a
        // protocol error.
        if (MetricsRegistry::enabled()) {
          static Counter& shed =
              MetricsRegistry::Get().counter("serve.shed.connections");
          shed.Add(1);
        }
        FLOQ_LOG(Warn, "connection.shed")
            .Num("connections", connections_.load(std::memory_order_relaxed));
        (void)WriteFrame(client,
                         ErrorReply("OVERLOADED", "connection limit reached"),
                         Deadline::AfterMillis(1000));
        ::close(client);
        continue;
      }
      int now_open = connections_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (MetricsRegistry::enabled()) {
        static Gauge& open =
            MetricsRegistry::Get().gauge("serve.connections");
        open.Set(now_open);
      }
      auto done = std::make_shared<std::atomic<bool>>(false);
      std::lock_guard<std::mutex> lock(threads_mu_);
      threads_.push_back(ConnThread{
          std::thread([this, client, done] {
            HandleConnection(client);
            done->store(true, std::memory_order_release);
          }),
          done});
    }
  }

  // Sets the drain flag; the accept loop notices within one poll slice
  // (200 ms) and connection loops between requests. Returns false when a
  // drain was already in progress.
  bool StartDrain() {
    bool expected = false;
    return draining_.compare_exchange_strong(expected, true);
  }

  Status Drain() {
    // A second SIGTERM while joining still escalates to cancellation.
    std::thread escalation([this] {
      while (connections_.load(std::memory_order_acquire) > 0) {
        char buf[16];
        if (g_signal_pipe[0] >= 0 &&
            ::read(g_signal_pipe[0], buf, sizeof(buf)) > 0) {
          drain_source_.Cancel();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
    {
      std::lock_guard<std::mutex> lock(threads_mu_);
      for (ConnThread& conn : threads_) {
        if (conn.thread.joinable()) conn.thread.join();
      }
      threads_.clear();
    }
    escalation.join();
    if (http_thread_.joinable()) http_thread_.join();
    if (http_fd_ >= 0) {
      ::close(http_fd_);
      http_fd_ = -1;
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    ::unlink(options_.socket_path.c_str());
    // Every connection thread is joined: a quiescent point, so the last
    // trace window can roll out and the final metrics snapshot is exact.
    RotateTraceLocked();
    trace_session_.reset();
    Status st = registry_.Checkpoint();
    if (!st.ok()) {
      // The WAL already holds every acked mutation; a failed final
      // checkpoint costs recovery time, not data.
      FLOQ_LOG(Error, "checkpoint.final_failed").Str("error", st.ToString());
    }
    FLOQ_LOG(Info, "serve.drained")
        .Num("requests", int64_t(requests_served_.load(
                             std::memory_order_relaxed)));
    return Status::Ok();
  }

  void ReapFinished() {
    // Join threads whose connection loop has finished (their done flag is
    // set, so join returns immediately) to keep the vector bounded on
    // long runs; live connections are never joined here.
    std::lock_guard<std::mutex> lock(threads_mu_);
    std::erase_if(threads_, [](ConnThread& conn) {
      if (!conn.done->load(std::memory_order_acquire)) return false;
      if (conn.thread.joinable()) conn.thread.join();
      return true;
    });
  }

  void HandleConnection(int fd) {
    FrameDecoder decoder;
    Deadline idle = Deadline::AfterMillis(options_.idle_timeout_ms);
    while (!draining_.load(std::memory_order_acquire)) {
      // Slice the read so drain and idle are both observed promptly.
      Deadline slice = Deadline::Min(idle, Deadline::AfterMillis(200));
      Result<std::string> frame = ReadFrame(fd, decoder, slice);
      if (!frame.ok()) {
        if (frame.status().code() == StatusCode::kDeadlineExceeded) {
          if (idle.Expired()) break;  // silent client: disconnect
          continue;                   // slice elapsed: re-check drain
        }
        if (frame.status().code() == StatusCode::kNotFound) break;  // EOF
        // Protocol violation (oversized frame, EOF mid-frame): typed
        // reply, then close — the stream is unframeable from here.
        (void)WriteFrame(fd, ErrorReply("BAD_REQUEST",
                                        frame.status().message()),
                         Deadline::AfterMillis(options_.io_timeout_ms));
        break;
      }
      idle = Deadline::AfterMillis(options_.idle_timeout_ms);
      bool close_after = false;
      std::string reply = HandleRequest(*frame, &close_after);
      if (!reply.empty()) {
        Status wst = WriteFrame(
            fd, reply, Deadline::AfterMillis(options_.io_timeout_ms));
        if (!wst.ok()) break;
      }
      if (close_after) break;
    }
    ::close(fd);
    int now_open = connections_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    if (MetricsRegistry::enabled()) {
      static Gauge& open = MetricsRegistry::Get().gauge("serve.connections");
      open.Set(now_open);
    }
  }

  // The per-command latency instruments, resolved once: a dynamic
  // name lookup per request would put the registry mutex on the hot path.
  Histogram& LatencyHistogramFor(const std::string& cmd) {
    static Histogram& reg =
        MetricsRegistry::Get().histogram("serve.cmd.register.latency_us");
    static Histogram& unreg =
        MetricsRegistry::Get().histogram("serve.cmd.unregister.latency_us");
    static Histogram& contain =
        MetricsRegistry::Get().histogram("serve.cmd.contain.latency_us");
    static Histogram& classify =
        MetricsRegistry::Get().histogram("serve.cmd.classify.latency_us");
    static Histogram& lint =
        MetricsRegistry::Get().histogram("serve.cmd.lint.latency_us");
    static Histogram& status =
        MetricsRegistry::Get().histogram("serve.cmd.status.latency_us");
    static Histogram& metrics =
        MetricsRegistry::Get().histogram("serve.cmd.metrics.latency_us");
    static Histogram& ping =
        MetricsRegistry::Get().histogram("serve.cmd.ping.latency_us");
    static Histogram& other =
        MetricsRegistry::Get().histogram("serve.cmd.other.latency_us");
    if (cmd == "register") return reg;
    if (cmd == "unregister") return unreg;
    if (cmd == "contain") return contain;
    if (cmd == "classify") return classify;
    if (cmd == "lint") return lint;
    if (cmd == "status") return status;
    if (cmd == "metrics") return metrics;
    if (cmd == "ping") return ping;
    return other;
  }

  std::string HandleRequest(const std::string& payload, bool* close_after) {
    // Request attribution starts before parsing: even a BAD_REQUEST reply
    // and its log line carry the server-assigned id.
    RequestContext context;
    context.id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    Result<Json> request = ParseJson(payload);
    if (request.ok() && request->is_object()) {
      if (const Json* tid = request->Find("trace_id");
          tid != nullptr && tid->is_string()) {
        context.trace_id = tid->AsString();
      }
    }
    ScopedRequestContext scope(&context);
    // Sampled tracing: non-sampled requests suppress their whole span
    // tree on this thread, so a long-lived session holds every Nth
    // request end to end instead of a uniform smear of all of them.
    std::optional<TraceSuppress> suppress;
    if (trace_session_ != nullptr && options_.trace_sample > 0 &&
        context.id % uint64_t(options_.trace_sample) != 0) {
      suppress.emplace();
    }

    if (!request.ok() || !request->is_object()) {
      *close_after = true;
      return ErrorReply("BAD_REQUEST",
                        request.ok() ? "request must be a JSON object"
                                     : request.status().message());
    }
    Result<std::string> cmd = request->GetString("cmd");
    if (!cmd.ok()) {
      return ErrorReply("INVALID", cmd.status().message());
    }

    auto request_start = std::chrono::steady_clock::now();
    TraceSpan span("serve.request");
    AnnotateWithRequest(span);
    // Admission control guards execution, not parsing: shedding must be
    // cheap or it is no defense.
    if (!gate_.Enter()) {
      if (MetricsRegistry::enabled()) {
        static Counter& shed =
            MetricsRegistry::Get().counter("serve.shed.requests");
        shed.Add(1);
      }
      FLOQ_LOG(Warn, "request.shed").Str("cmd", *cmd);
      return ErrorReply("OVERLOADED", "request queue full");
    }
    fault::MaybeCrash("serve.request.before_execute");
    std::string reply = Execute(*cmd, *request, close_after);
    gate_.Exit();

    auto elapsed = std::chrono::steady_clock::now() - request_start;
    int64_t elapsed_us =
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count();
    if (MetricsRegistry::enabled()) {
      static Counter& requests =
          MetricsRegistry::Get().counter("serve.requests");
      requests.Add(1);
      LatencyHistogramFor(*cmd).Record(uint64_t(elapsed_us));
    }
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (options_.slow_request_ms > 0 &&
        elapsed_us >= options_.slow_request_ms * 1000) {
      FLOQ_LOG(Warn, "request.slow")
          .Str("cmd", *cmd)
          .Num("latency_us", elapsed_us);
    } else {
      FLOQ_LOG(Debug, "request.done")
          .Str("cmd", *cmd)
          .Num("latency_us", elapsed_us);
    }
    fault::MaybeCrash("serve.request.before_reply");
    return reply;
  }

  std::string Execute(const std::string& cmd, const Json& request,
                      bool* close_after) {
    if (cmd == "register") return CmdRegister(request);
    if (cmd == "unregister") return CmdUnregister(request);
    if (cmd == "contain") return CmdContain(request);
    if (cmd == "classify") return CmdClassify();
    if (cmd == "lint") return CmdLint(request);
    if (cmd == "status") return CmdStatus();
    if (cmd == "metrics") return CmdMetrics(request);
    if (cmd == "ping") {
      Json reply = Json::Object();
      reply.Set("ok", Json::Bool(true));
      return Finalize(std::move(reply));
    }
    if (cmd == "shutdown") {
      *close_after = true;
      StartDrain();
      Json reply = Json::Object();
      reply.Set("ok", Json::Bool(true));
      reply.Set("draining", Json::Bool(true));
      return Finalize(std::move(reply));
    }
    return ErrorReply("INVALID", "unknown command '" + cmd + "'");
  }

  std::string CmdRegister(const Json& request) {
    Result<std::string> name = request.GetString("name");
    Result<std::string> text = request.GetString("query");
    if (!name.ok()) return StatusReply(name.status());
    if (!text.ok()) return StatusReply(text.status());
    Result<QueryRegistry::RegisterOutcome> outcome =
        registry_.Register(*name, *text);
    if (!outcome.ok()) return StatusReply(outcome.status());
    Json reply = Json::Object();
    reply.Set("ok", Json::Bool(true));
    reply.Set("epoch", Json::Number(double(outcome->epoch)));
    reply.Set("already_registered",
              Json::Bool(outcome->already_registered));
    return Finalize(std::move(reply));
  }

  std::string CmdUnregister(const Json& request) {
    Result<std::string> name = request.GetString("name");
    if (!name.ok()) return StatusReply(name.status());
    Result<uint64_t> epoch = registry_.Unregister(*name);
    if (!epoch.ok()) return StatusReply(epoch.status());
    Json reply = Json::Object();
    reply.Set("ok", Json::Bool(true));
    reply.Set("epoch", Json::Number(double(*epoch)));
    return Finalize(std::move(reply));
  }

  // Per-request budget: requests may *lower* the server default, never
  // raise it, and every budget carries the drain cancellation token.
  ResourceBudget RequestBudget(const Json& request) {
    ResourceBudget budget;
    budget.timeout_ms = options_.request_timeout_ms;
    if (const Json* t = request.Find("timeout_ms");
        t != nullptr && t->type() == Json::Type::kNumber) {
      int64_t asked = int64_t(t->AsNumber());
      if (asked > 0 &&
          (budget.timeout_ms <= 0 || asked < budget.timeout_ms)) {
        budget.timeout_ms = asked;
      }
    }
    budget.hom_step_budget = options_.hom_step_budget;
    budget.cancel = drain_source_.token();
    return budget;
  }

  std::string CmdContain(const Json& request) {
    // Stall-type fault point: pins this request (and its admission
    // permit) for a fixed window so overload tests are deterministic.
    fault::MaybeStall("serve.contain.stall", 2000);
    std::shared_ptr<const RegistrySnapshotView> snap = registry_.Snapshot();
    const Json* lhs_name = request.Find("lhs");
    const Json* rhs_name = request.Find("rhs");

    // Both sides registered: answered from the epoch snapshot's
    // maintained relation, by index id — no chase, no hom search, no lock.
    if (lhs_name != nullptr && rhs_name != nullptr) {
      if (!lhs_name->is_string() || !rhs_name->is_string()) {
        return ErrorReply("INVALID", "lhs/rhs must be query names");
      }
      const RegistryEntryView* lhs = snap->Find(lhs_name->AsString());
      const RegistryEntryView* rhs = snap->Find(rhs_name->AsString());
      if (lhs == nullptr || rhs == nullptr) {
        return ErrorReply("NOT_FOUND",
                          "no registered query named '" +
                              (lhs == nullptr ? lhs_name->AsString()
                                              : rhs_name->AsString()) +
                              "'");
      }
      Resolution resolution = snap->resolution[lhs->id][rhs->id];
      Json reply = Json::Object();
      reply.Set("ok", Json::Bool(true));
      reply.Set("resolution", Json::String(ResolutionName(resolution)));
      reply.Set("epoch", Json::Number(double(snap->epoch)));
      reply.Set("cached", Json::Bool(true));
      return Finalize(std::move(reply));
    }

    // Ad-hoc: resolve each side to surface text (a name looks up the
    // registered definition), then decide in a fresh World under the
    // request budget.
    auto side_text = [&](const char* name_key, const char* text_key,
                         std::string* out) -> Status {
      const Json* name = request.Find(name_key);
      if (name != nullptr) {
        if (!name->is_string()) {
          return InvalidArgumentError(std::string(name_key) +
                                      " must be a string");
        }
        const RegistryEntryView* entry = snap->Find(name->AsString());
        if (entry == nullptr) {
          return NotFoundError("no registered query named '" +
                               name->AsString() + "'");
        }
        *out = entry->text;
        return Status::Ok();
      }
      Result<std::string> text = request.GetString(text_key);
      if (!text.ok()) return text.status();
      *out = *text;
      return Status::Ok();
    };
    std::string lhs_text, rhs_text;
    if (Status st = side_text("lhs", "lhs_query", &lhs_text); !st.ok()) {
      return StatusReply(st);
    }
    if (Status st = side_text("rhs", "rhs_query", &rhs_text); !st.ok()) {
      return StatusReply(st);
    }
    World world;
    Result<ConjunctiveQuery> q1 = flogic::ParseQuery(world, lhs_text);
    if (!q1.ok()) return StatusReply(q1.status());
    Result<ConjunctiveQuery> q2 = flogic::ParseQuery(world, rhs_text);
    if (!q2.ok()) return StatusReply(q2.status());
    ContainmentOptions copts;
    copts.budget = RequestBudget(request);
    Result<ContainmentResult> verdict =
        CheckContainment(world, *q1, *q2, copts);
    if (!verdict.ok()) return StatusReply(verdict.status());
    Json reply = Json::Object();
    reply.Set("ok", Json::Bool(true));
    reply.Set("resolution",
              Json::String(ResolutionName(verdict->resolution)));
    if (verdict->resolution == Resolution::kUnknown) {
      reply.Set("reason",
                Json::String(TripReasonName(verdict->unknown_reason)));
    }
    reply.Set("epoch", Json::Number(double(snap->epoch)));
    reply.Set("cached", Json::Bool(false));
    return Finalize(std::move(reply));
  }

  // Deterministic classify payload: equivalence classes (names, in
  // registration order) and Hasse edges over class indexes. No
  // run-dependent counters — the crash-recovery suite compares this
  // string byte-for-byte against an uninterrupted run.
  std::string CmdClassify() {
    std::shared_ptr<const RegistrySnapshotView> snap = registry_.Snapshot();
    Json reply = Json::Object();
    reply.Set("ok", Json::Bool(true));
    reply.Set("epoch", Json::Number(double(snap->epoch)));
    Json classes = Json::Array();
    for (const std::vector<size_t>& cls : snap->taxonomy.classes) {
      Json members = Json::Array();
      for (size_t member : cls) {
        members.Append(Json::String(snap->entries[member].name));
      }
      classes.Append(std::move(members));
    }
    reply.Set("classes", std::move(classes));
    Json hasse = Json::Array();
    for (const auto& [sub, super] : snap->taxonomy.hasse_edges) {
      Json edge = Json::Array();
      edge.Append(Json::Number(double(sub)));
      edge.Append(Json::Number(double(super)));
      hasse.Append(std::move(edge));
    }
    reply.Set("hasse", std::move(hasse));
    return Finalize(std::move(reply));
  }

  std::string CmdLint(const Json& request) {
    Result<std::string> program = request.GetString("program");
    if (!program.ok()) return StatusReply(program.status());
    World world;
    analysis::AnalyzeOptions options;
    options.query.budget = RequestBudget(request);
    std::vector<analysis::Diagnostic> diagnostics =
        analysis::AnalyzeProgramText(world, *program, options);
    Json reply = Json::Object();
    reply.Set("ok", Json::Bool(true));
    Json items = Json::Array();
    bool has_error = false;
    for (const analysis::Diagnostic& d : diagnostics) {
      Json item = Json::Object();
      item.Set("code", Json::String(d.code));
      item.Set("severity",
               Json::String(analysis::SeverityName(d.severity)));
      item.Set("message", Json::String(d.message));
      if (d.span.known()) {
        item.Set("line", Json::Number(double(d.span.line)));
      }
      items.Append(std::move(item));
      if (d.severity == analysis::Severity::kError) has_error = true;
    }
    reply.Set("diagnostics", std::move(items));
    reply.Set("errors", Json::Bool(has_error));
    return Finalize(std::move(reply));
  }

  std::string CmdStatus() {
    std::shared_ptr<const RegistrySnapshotView> snap = registry_.Snapshot();
    const IndexStats& stats = snap->index;
    Json reply = Json::Object();
    reply.Set("ok", Json::Bool(true));
    reply.Set("epoch", Json::Number(double(snap->epoch)));
    reply.Set("queries", Json::Number(double(snap->entries.size())));
    reply.Set("classes",
              Json::Number(double(snap->taxonomy.classes.size())));
    reply.Set("draining",
              Json::Bool(draining_.load(std::memory_order_relaxed)));
    reply.Set("active_requests", Json::Number(double(gate_.active())));
    reply.Set("wal_mutations", Json::Number(double(snap->wal_mutations)));
    Json index = Json::Object();
    index.Set("inserts", Json::Number(double(stats.inserts)));
    index.Set("removed", Json::Number(double(stats.removed)));
    index.Set("engine_queries", Json::Number(double(snap->engine_queries)));
    index.Set("checked_pairs", Json::Number(double(stats.checked_pairs)));
    index.Set("pruned_pairs", Json::Number(double(stats.pruned_pairs)));
    index.Set("unknown_pairs", Json::Number(double(stats.unknown_pairs)));
    reply.Set("index", std::move(index));
    return Finalize(std::move(reply));
  }

  std::string CmdMetrics(const Json& request) {
    std::string format = "json";
    if (const Json* f = request.Find("format");
        f != nullptr && f->is_string()) {
      format = f->AsString();
    }
    if (format == "prometheus") {
      // Text exposition carried in the reply body; `floq client metrics
      // --format prometheus` prints it verbatim for pipe-to-scraper use.
      Json reply = Json::Object();
      reply.Set("ok", Json::Bool(true));
      reply.Set("format", Json::String("prometheus"));
      reply.Set("body",
                Json::String(MetricsRegistry::enabled()
                                 ? MetricsRegistry::Get().Snapshot()
                                       .ToPrometheus()
                                 : std::string()));
      return Finalize(std::move(reply));
    }
    if (format != "json") {
      return ErrorReply("INVALID",
                        "unknown metrics format '" + format +
                            "' (json|prometheus)");
    }
    // The snapshot JSON is canonical (no trailing whitespace —
    // MetricsSnapshot::ToJson), so it embeds raw with no trimming. Spliced
    // as a string to keep uint64 counter values exact: a Json round-trip
    // would route them through double.
    std::string metrics = MetricsRegistry::enabled()
                              ? MetricsRegistry::Get().ToJson()
                              : std::string("{}");
    std::string head = "{\"ok\":true,";
    if (const RequestContext* context = CurrentRequestContext()) {
      head += "\"request_id\":" + std::to_string(context->id) + ",";
      if (!context->trace_id.empty()) {
        head += "\"trace_id\":" +
                Json::String(context->trace_id).Serialize() + ",";
      }
    }
    return head + "\"metrics\":" + metrics + "}";
  }

  struct ConnThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  // Buffered spans that trigger a roll at the next quiescent poll slice.
  static constexpr uint64_t kTraceRotateEvents = 4096;

  const DaemonOptions options_;
  QueryRegistry registry_;
  AdmissionGate gate_;
  CancellationSource drain_source_;
  int listen_fd_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<int> connections_{0};
  std::mutex threads_mu_;
  std::vector<ConnThread> threads_;
  std::atomic<uint64_t> next_request_id_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::unique_ptr<TraceSession> trace_session_;
  std::string trace_dir_;
  uint64_t trace_file_seq_ = 0;
  int http_fd_ = -1;
  std::thread http_thread_;
};

}  // namespace

Status RunDaemon(const DaemonOptions& options) {
  if (options.dir.empty()) {
    return InvalidArgumentError("daemon requires a registry directory");
  }
  struct stat sb;
  if (::stat(options.dir.c_str(), &sb) != 0 || !S_ISDIR(sb.st_mode)) {
    return InvalidArgumentError("registry directory does not exist: " +
                                options.dir);
  }
  Daemon daemon(options);
  return daemon.Run();
}

}  // namespace floq::server
