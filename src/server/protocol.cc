#include "server/protocol.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/file.h"
#include "util/json.h"

namespace floq::server {

// ---------------------------------------------------------------------------
// Json value

void Json::Set(std::string_view key, Json value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<std::string> Json::GetString(std::string_view key) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    return InvalidArgumentError("missing field '" + std::string(key) + "'");
  }
  if (v->type_ != Type::kString) {
    return InvalidArgumentError("field '" + std::string(key) +
                                "' must be a string");
  }
  return v->string_;
}

Result<int64_t> Json::GetInt(std::string_view key) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    return InvalidArgumentError("missing field '" + std::string(key) + "'");
  }
  if (v->type_ != Type::kNumber || !std::isfinite(v->number_) ||
      v->number_ != std::floor(v->number_)) {
    return InvalidArgumentError("field '" + std::string(key) +
                                "' must be an integer");
  }
  return int64_t(v->number_);
}

Result<bool> Json::GetBool(std::string_view key) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    return InvalidArgumentError("missing field '" + std::string(key) + "'");
  }
  if (v->type_ != Type::kBool) {
    return InvalidArgumentError("field '" + std::string(key) +
                                "' must be a bool");
  }
  return v->bool_;
}

namespace {

void AppendNumber(double d, std::string* out) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out->append(buf);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out->append(buf);
}

}  // namespace

void Json::SerializeTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      AppendNumber(number_, out);
      break;
    case Type::kString:
      AppendJsonString(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out->push_back(',');
        first = false;
        item.SerializeTo(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(k, out);
        out->push_back(':');
        v.SerializeTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser (recursive descent, depth-capped)

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    SkipSpace();
    Json value;
    FLOQ_RETURN_IF_ERROR(ParseValue(0, &value));
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgumentError("trailing bytes after JSON value");
    }
    return value;
  }

 private:
  Status ParseValue(int depth, Json* out) {
    if (depth > kMaxJsonDepth) {
      return InvalidArgumentError("JSON nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return InvalidArgumentError("unexpected end of JSON input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        FLOQ_RETURN_IF_ERROR(ParseString(&s));
        *out = Json::String(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          *out = Json::Bool(true);
          return Status::Ok();
        }
        break;
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          *out = Json::Bool(false);
          return Status::Ok();
        }
        break;
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = Json::Null();
          return Status::Ok();
        }
        break;
      default:
        return ParseNumber(out);
    }
    return InvalidArgumentError("malformed JSON value at byte " +
                                std::to_string(pos_));
  }

  Status ParseObject(int depth, Json* out) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return InvalidArgumentError("expected object key");
      }
      std::string key;
      FLOQ_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return InvalidArgumentError("expected ':' after object key");
      }
      ++pos_;
      SkipSpace();
      Json value;
      FLOQ_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
      out->Set(key, std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return InvalidArgumentError("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::Ok();
      }
      return InvalidArgumentError("expected ',' or '}' in object");
    }
  }

  Status ParseArray(int depth, Json* out) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      SkipSpace();
      Json value;
      FLOQ_RETURN_IF_ERROR(ParseValue(depth + 1, &value));
      out->Append(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) {
        return InvalidArgumentError("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::Ok();
      }
      return InvalidArgumentError("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return InvalidArgumentError("raw control byte in JSON string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (pos_ + 1 >= text_.size()) break;
      char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return InvalidArgumentError("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= unsigned(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= unsigned(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= unsigned(h - 'A' + 10);
            } else {
              return InvalidArgumentError("bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // Minimal UTF-8 encode; surrogate pairs are passed through as
          // two separate 3-byte sequences (command frames never need
          // astral-plane text).
          if (code < 0x80) {
            out->push_back(char(code));
          } else if (code < 0x800) {
            out->push_back(char(0xC0 | (code >> 6)));
            out->push_back(char(0x80 | (code & 0x3F)));
          } else {
            out->push_back(char(0xE0 | (code >> 12)));
            out->push_back(char(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(char(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return InvalidArgumentError("bad escape in JSON string");
      }
    }
    return InvalidArgumentError("unterminated JSON string");
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return InvalidArgumentError("malformed JSON number");
    }
    std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE ||
        !std::isfinite(d)) {
      return InvalidArgumentError("malformed JSON number");
    }
    *out = Json::Number(d);
    return Status::Ok();
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

// ---------------------------------------------------------------------------
// Frames

Result<std::optional<std::string>> FrameDecoder::Next() {
  if (poisoned_) {
    return InvalidArgumentError("frame decoder poisoned by oversized frame");
  }
  // Compact once the consumed prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  if (buffer_.size() - consumed_ < 4) return std::optional<std::string>();
  uint32_t len = 0;
  std::memcpy(&len, buffer_.data() + consumed_, 4);
  if (len > kMaxFrameBytes) {
    poisoned_ = true;
    return InvalidArgumentError("frame length " + std::to_string(len) +
                                " exceeds cap " +
                                std::to_string(kMaxFrameBytes));
  }
  if (buffer_.size() - consumed_ < 4 + size_t(len)) {
    return std::optional<std::string>();
  }
  std::string payload = buffer_.substr(consumed_ + 4, len);
  consumed_ += 4 + size_t(len);
  return std::optional<std::string>(std::move(payload));
}

std::string EncodeFrame(std::string_view payload) {
  uint32_t len = uint32_t(payload.size());
  std::string frame(4, '\0');
  std::memcpy(frame.data(), &len, 4);
  frame.append(payload);
  return frame;
}

namespace {

// Remaining milliseconds for poll(2); -1 for an infinite deadline,
// clamped into [0, slice].
int PollTimeoutMs(Deadline deadline, int slice_ms = 200) {
  if (deadline.infinite()) return slice_ms;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline.when() - Deadline::Clock::now())
                  .count();
  if (left <= 0) return 0;
  return int(std::min<int64_t>(left, slice_ms));
}

}  // namespace

Result<std::string> ReadFrame(int fd, FrameDecoder& decoder,
                              Deadline deadline) {
  bool got_bytes_this_call = false;
  while (true) {
    Result<std::optional<std::string>> next = decoder.Next();
    if (!next.ok()) return next.status();
    if (next->has_value()) return std::move(**next);
    if (deadline.Expired()) {
      return DeadlineExceededError("read deadline expired");
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    int rc = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("poll");
    }
    if (rc == 0) continue;  // slice elapsed; re-check the deadline
    char buf[4096];
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ErrnoError("read");
    }
    if (n == 0) {
      if (decoder.pending_bytes() > 0 || got_bytes_this_call) {
        return InvalidArgumentError("connection closed mid-frame");
      }
      return NotFoundError("connection closed");
    }
    got_bytes_this_call = true;
    decoder.Append(buf, size_t(n));
  }
}

Status WriteFrame(int fd, std::string_view payload, Deadline deadline) {
  std::string frame = EncodeFrame(payload);
  size_t off = 0;
  while (off < frame.size()) {
    if (deadline.Expired()) {
      return DeadlineExceededError("write deadline expired");
    }
    struct pollfd pfd = {fd, POLLOUT, 0};
    int rc = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("poll");
    }
    if (rc == 0) continue;
    ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ErrnoError("write");
    }
    off += size_t(n);
  }
  return Status::Ok();
}

}  // namespace floq::server
