#include "util/log.h"

#include <chrono>
#include <cstdio>
#include <mutex>

#include "util/json.h"
#include "util/request_context.h"
#include "util/strings.h"

namespace floq {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "info";
}

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  if (text == "debug") { *out = LogLevel::kDebug; return true; }
  if (text == "info") { *out = LogLevel::kInfo; return true; }
  if (text == "warn") { *out = LogLevel::kWarn; return true; }
  if (text == "error") { *out = LogLevel::kError; return true; }
  if (text == "off") { *out = LogLevel::kOff; return true; }
  return false;
}

LogEvent::LogEvent(Logger* logger, LogLevel level, std::string_view msg)
    : logger_(logger) {
  double now = std::chrono::duration<double>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count();
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%.3f", now);
  line_ = StrCat("{\"ts\": ", ts, ", \"level\": \"", LogLevelName(level),
                 "\", \"msg\": ");
  AppendJsonString(msg, &line_);
  // Ambient request attribution: every line inside a request scope carries
  // the same request_id the reply and the span tree do.
  if (const RequestContext* context = CurrentRequestContext()) {
    line_ += StrCat(", \"request_id\": ", context->id);
    if (!context->trace_id.empty()) {
      line_ += ", \"trace_id\": ";
      AppendJsonString(context->trace_id, &line_);
    }
  }
}

LogEvent::~LogEvent() {
  if (logger_ == nullptr) return;
  line_ += "}\n";
  logger_->Emit(line_);
}

LogEvent& LogEvent::Str(std::string_view key, std::string_view value) {
  if (logger_ != nullptr) {
    line_ += ", ";
    AppendJsonString(key, &line_);
    line_ += ": ";
    AppendJsonString(value, &line_);
  }
  return *this;
}

LogEvent& LogEvent::Num(std::string_view key, int64_t value) {
  if (logger_ != nullptr) {
    line_ += ", ";
    AppendJsonString(key, &line_);
    line_ += StrCat(": ", value);
  }
  return *this;
}

// Sink state: a mutex-guarded FILE*. nullptr means stderr (never closed).
struct Logger::Impl {
  std::mutex mu;
  FILE* file = nullptr;
};

Logger::Impl& Logger::impl() const {
  static Impl* impl = new Impl();  // leaked: outlives static destructors
  return *impl;
}

Logger& Logger::Get() {
  static Logger* logger = new Logger();
  return *logger;
}

Status Logger::OpenFile(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    return InternalError(StrCat("log.open: cannot open ", path));
  }
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  if (i.file != nullptr) std::fclose(i.file);
  i.file = file;
  return Status::Ok();
}

void Logger::UseStderr() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  if (i.file != nullptr) std::fclose(i.file);
  i.file = nullptr;
}

LogEvent Logger::Log(LogLevel level, std::string_view msg) {
  if (!ShouldLog(level) || level == LogLevel::kOff) return LogEvent();
  return LogEvent(this, level, msg);
}

void Logger::Emit(const std::string& line) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  FILE* sink = i.file != nullptr ? i.file : stderr;
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fflush(sink);
}

}  // namespace floq
