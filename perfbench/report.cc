#include "report.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace floqbench {

using floq::server::Json;

namespace {

std::string FilesystemName(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

Json JsonArray(const std::vector<double>& values) {
  Json array = Json::Array();
  for (double v : values) array.Append(Json::Number(v));
  return array;
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return double(resident) * double(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024);
}

Report::Report(const Config& config) {
  env_.Set("workload", Json::String(config.workload));
  env_.Set("seed", Json::Number(double(config.seed)));
  env_.Set("seconds", Json::Number(config.seconds));
  env_.Set("trace", Json::Bool(config.trace));
  env_.Set("smoke", Json::Bool(config.smoke));
  env_.Set("build_type", Json::String(FLOQ_BENCH_BUILD_TYPE));
  env_.Set("cxx_flags", Json::String(FLOQ_BENCH_CXX_FLAGS));
#if defined(__clang__)
  env_.Set("compiler", Json::String("clang " __clang_version__));
#elif defined(__GNUC__)
  env_.Set("compiler", Json::String("gcc " __VERSION__));
#endif
  env_.Set("floq_native", Json::Bool(FLOQ_BENCH_NATIVE));
  env_.Set("floq_fault_inject", Json::Bool(FLOQ_BENCH_FAULT_INJECT));
  env_.Set("nproc", Json::Number(double(::sysconf(_SC_NPROCESSORS_ONLN))));
  env_.Set("workdir_filesystem", Json::String(FilesystemName(config.workdir)));
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Json metric = Json::Object();
  metric.Set("value", Json::Number(value));
  metric.Set("unit", Json::String(unit));
  metrics_.Set(name, std::move(metric));
}

void Report::Detail(const std::string& name, Json value) {
  details_.Set(name, std::move(value));
}

void Report::Env(const std::string& name, Json value) {
  env_.Set(name, std::move(value));
}

void Report::Attempt(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Report::Merge(uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& failures) {
  attempted_ += attempted;
  failed_ += failed;
  for (const std::string& why : failures) {
    if (failures_.size() < 20) failures_.push_back(why);
  }
}

floq::Status Report::Write(const std::string& path) const {
  Json root = Json::Object();
  root.Set("correct", Json::Bool(failed_ == 0 && attempted_ > 0));
  root.Set("attempted", Json::Number(double(attempted_)));
  root.Set("failed", Json::Number(double(failed_)));
  root.Set("metrics", metrics_);
  root.Set("details", details_);
  root.Set("env", env_);
  Json failures = Json::Array();
  for (const std::string& why : failures_) failures.Append(Json::String(why));
  root.Set("failures", std::move(failures));
  std::ofstream out(path);
  out << root.Serialize() << "\n";
  out.close();
  if (!out) return floq::InternalError("cannot write report " + path);
  return floq::Status::Ok();
}

}  // namespace floqbench
