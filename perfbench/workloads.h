#ifndef FLOQ_PERFBENCH_WORKLOADS_H_
#define FLOQ_PERFBENCH_WORKLOADS_H_

#include "report.h"
#include "util/status.h"

// The three workloads. Each runs in a process of its own (run.py starts
// one per run): RunDaemon arms process-wide metrics and signal handlers,
// which would otherwise leak into classify and into peak_rss_mb.

namespace floqbench {

/// `floq classify` in process: parse + AddQuery (set-up), then CheckAll and
/// the taxonomy at jobs = 2, repeated on fresh engines for the run.
floq::Status RunClassify(const Config& config, Report& report);

/// Closed-loop reads against an in-process daemon holding R queries.
floq::Status RunServeRead(const Config& config, Report& report);

/// Fill, churn and crash-copy recovery against an in-process daemon.
floq::Status RunServeWrite(const Config& config, Report& report);

}  // namespace floqbench

#endif  // FLOQ_PERFBENCH_WORKLOADS_H_
