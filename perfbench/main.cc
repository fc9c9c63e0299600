// floqbench: one workload of the floq benchmark per process. run.py builds
// this binary and calls it; see README.md for the workloads and metrics.
//
//   floqbench --workload classify|serve_read|serve_write --seed N
//             --seconds S --trace 0|1 --workdir DIR --out REPORT.json
//             [--smoke]

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  floqbench::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(64);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--workdir") {
      config.workdir = value();
    } else if (arg == "--out") {
      config.out = value();
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 64;
    }
  }
  if (config.workdir.empty() || config.out.empty() || config.seconds <= 0) {
    std::fprintf(stderr, "--workdir, --out and --seconds > 0 are required\n");
    return 64;
  }
  ::mkdir(config.workdir.c_str(), 0755);

  floqbench::Report report(config);
  floq::Status status;
  if (config.workload == "classify") {
    status = floqbench::RunClassify(config, report);
  } else if (config.workload == "serve_read") {
    status = floqbench::RunServeRead(config, report);
  } else if (config.workload == "serve_write") {
    status = floqbench::RunServeWrite(config, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 64;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  if (floq::Status st = report.Write(config.out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
