#include "analysis/diagnostic.h"

#include <algorithm>
#include <cctype>
#include <tuple>

#include "util/json.h"
#include "util/strings.h"

namespace floq::analysis {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "?";
}

const std::vector<LintCodeInfo>& LintCodes() {
  static const std::vector<LintCodeInfo> kCodes = {
      {"FLD101", "non-weakly-acyclic", Severity::kWarning,
       "the dependency set is not weakly acyclic; the chase may not "
       "terminate"},
      {"FLD102", "jointly-acyclic", Severity::kNote,
       "not weakly acyclic but jointly acyclic: the chase still terminates"},
      {"FLD103", "cyclic-mandatory", Severity::kError,
       "a mandatory-attribute cycle makes the Sigma_FL chase infinite"},
      {"FLD201", "polynomial-blowup", Severity::kWarning,
       "null generation is polynomial of degree >= 2: the chase terminates "
       "but can blow up polynomially"},
      {"FLD202", "cross-join-fanout", Severity::kWarning,
       "variable-disjoint body components multiply the homomorphism-search "
       "fan-out"},
      {"FLD203", "chase-over-budget", Severity::kWarning,
       "the estimated chase exceeds the default governor budget; checks "
       "will degrade to UNKNOWN"},
      {"FLQ000", "parse-error", Severity::kError,
       "the input does not parse"},
      {"FLQ001", "unsafe-head-variable", Severity::kError,
       "a head variable does not occur in the body"},
      {"FLQ002", "singleton-variable", Severity::kWarning,
       "a named variable occurs exactly once (likely a typo; use _)"},
      {"FLQ003", "cartesian-product", Severity::kWarning,
       "the body splits into variable-disjoint components"},
      {"FLQ004", "pfl-misuse", Severity::kWarning,
       "a P_FL position is used against its object/class/attribute role"},
      {"FLQ005", "duplicate-atom", Severity::kWarning,
       "the same atom occurs twice in a body"},
      {"FLQ006", "unsatisfiable-query", Severity::kError,
       "the chase of the query fails: no answers on any legal database"},
      {"FLQ007", "redundant-atom", Severity::kNote,
       "dropping the atom keeps the query equivalent under Sigma_FL"},
  };
  return kCodes;
}

const LintCodeInfo* FindLintCode(std::string_view code) {
  for (const LintCodeInfo& info : LintCodes()) {
    if (code == info.code) return &info;
  }
  return nullptr;
}

Diagnostic MakeDiagnostic(std::string_view code, std::string message,
                          SourceSpan span) {
  Diagnostic diagnostic;
  diagnostic.code = std::string(code);
  const LintCodeInfo* info = FindLintCode(code);
  FLOQ_CHECK(info != nullptr) << "unregistered lint code: " << code;
  diagnostic.severity = info->severity;
  diagnostic.message = std::move(message);
  diagnostic.span = span;
  return diagnostic;
}

Diagnostic DiagnosticFromStatus(const Status& status) {
  // Every floq parser reports "... at L:C: message"; lift the anchor into
  // the span so editors can jump to it.
  std::string_view message = status.message();
  SourceSpan span;
  size_t at = message.rfind(" at ");
  size_t start = at == std::string_view::npos ? 0 : at + 4;
  if (at != std::string_view::npos) {
    int line = 0, column = 0;
    size_t i = start;
    while (i < message.size() &&
           std::isdigit(static_cast<unsigned char>(message[i]))) {
      line = line * 10 + (message[i] - '0');
      ++i;
    }
    if (i < message.size() && message[i] == ':' && i > start) {
      size_t col_start = ++i;
      while (i < message.size() &&
             std::isdigit(static_cast<unsigned char>(message[i]))) {
        column = column * 10 + (message[i] - '0');
        ++i;
      }
      if (i > col_start && i < message.size() && message[i] == ':') {
        span = SourceSpan{line, column, line, column};
      }
    }
  }
  return MakeDiagnostic("FLQ000", std::string(message), span);
}

bool HasErrors(const std::vector<Diagnostic>& diagnostics) {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return true;
  }
  return false;
}

void SortDiagnostics(std::vector<Diagnostic>& diagnostics) {
  auto sort_key = [](const Diagnostic& d) {
    // Unknown spans sort after every located diagnostic.
    int line = d.span.known() ? d.span.line : INT32_MAX;
    int column = d.span.known() ? d.span.column : INT32_MAX;
    return std::make_tuple(line, column, std::string_view(d.code));
  };
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     return sort_key(a) < sort_key(b);
                   });
}

std::string FormatDiagnostic(const Diagnostic& diagnostic,
                             std::string_view filename) {
  std::string out;
  if (!filename.empty()) out = StrCat(filename, ":");
  if (diagnostic.span.known()) {
    out = StrCat(out, diagnostic.span.line, ":", diagnostic.span.column, ":");
  }
  if (!out.empty()) out += ' ';
  out = StrCat(out, SeverityName(diagnostic.severity), ": ",
               diagnostic.message, " [", diagnostic.code, "]");
  for (const std::string& note : diagnostic.notes) {
    out = StrCat(out, "\n    note: ", note);
  }
  return out;
}

std::string FormatDiagnostics(const std::vector<Diagnostic>& diagnostics,
                              std::string_view filename) {
  std::string out;
  int errors = 0, warnings = 0;
  for (const Diagnostic& d : diagnostics) {
    out = StrCat(out, FormatDiagnostic(d, filename), "\n");
    if (d.severity == Severity::kError) ++errors;
    if (d.severity == Severity::kWarning) ++warnings;
  }
  if (!diagnostics.empty()) {
    out = StrCat(out, errors, " error(s), ", warnings, " warning(s)\n");
  }
  return out;
}

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics,
                              std::string_view filename) {
  std::string out = "[";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out += ",";
    const LintCodeInfo* info = FindLintCode(d.code);
    out += "\n  {\"code\": ";
    AppendJsonString(d.code, &out);
    out = StrCat(out, ", \"name\": \"", info != nullptr ? info->name : "",
                 "\", \"severity\": \"", SeverityName(d.severity), "\"");
    if (!filename.empty()) {
      out += ", \"file\": ";
      AppendJsonString(filename, &out);
    }
    out += ", \"message\": ";
    AppendJsonString(d.message, &out);
    if (d.span.known()) {
      out = StrCat(out, ", \"span\": {\"line\": ", d.span.line,
                   ", \"column\": ", d.span.column,
                   ", \"end_line\": ", d.span.end_line,
                   ", \"end_column\": ", d.span.end_column, "}");
    }
    out += ", \"notes\": [";
    for (size_t n = 0; n < d.notes.size(); ++n) {
      if (n > 0) out += ", ";
      AppendJsonString(d.notes[n], &out);
    }
    out += "]}";
  }
  out += diagnostics.empty() ? "]" : "\n]";
  return out;
}

}  // namespace floq::analysis
