#ifndef FLOQ_PERFBENCH_REPORT_H_
#define FLOQ_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"

// Run configuration, timing helpers and the report one workload process
// writes for run.py.

namespace floqbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir;  // scratch space inside the checkout
  std::string out;      // report path
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
/// `values` as a JSON array, for per-sample figures kept in the details.
floq::server::Json JsonArray(const std::vector<double>& values);

/// Peak resident set of this process, in MB.
double PeakRssMb();
/// Current resident set of this process, in MB.
double CurrentRssMb();

class Report {
 public:
  explicit Report(const Config& config);

  void Metric(const std::string& name, double value, const std::string& unit);
  /// Free-form per-run detail (sample counts, layer figures).
  void Detail(const std::string& name, floq::server::Json value);
  void Env(const std::string& name, floq::server::Json value);

  /// One operation attempted; `ok` false counts it failed and keeps the
  /// first few reasons.
  void Attempt(bool ok, const std::string& why = "");
  void Fail(const std::string& why) { Attempt(false, why); }
  /// Folds in a tally kept elsewhere (one per client thread).
  void Merge(uint64_t attempted, uint64_t failed,
             const std::vector<std::string>& failures);

  floq::Status Write(const std::string& path) const;

 private:
  floq::server::Json metrics_ = floq::server::Json::Object();
  floq::server::Json details_ = floq::server::Json::Object();
  floq::server::Json env_ = floq::server::Json::Object();
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace floqbench

#endif  // FLOQ_PERFBENCH_REPORT_H_
