#ifndef FLOQ_UTIL_JSON_H_
#define FLOQ_UTIL_JSON_H_

#include <string>
#include <string_view>

// The JSON string writer shared by every floq JSON producer: serve
// replies, structured log lines, metrics and trace exports, diagnostics,
// and the CLI's reports.

namespace floq {

/// Appends `text` to `out` as a quoted JSON string literal. `"`, `\`,
/// newline, carriage return and tab get their short escapes; every other
/// control character becomes \u00XX. Bytes >= 0x20 pass through, so UTF-8
/// input stays UTF-8.
void AppendJsonString(std::string_view text, std::string* out);

}  // namespace floq

#endif  // FLOQ_UTIL_JSON_H_
