#!/usr/bin/env python3
"""floq benchmark driver: builds floqbench from source, runs one workload in
a fresh process, checks that it reported no failed operation, and prints
the metrics as the last line of stdout.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run (see README.md). --smoke runs the small sizes used by smoke.py.
Run from the root of the repository; everything it writes stays under
.bench_build/ (the build) and .bench_run/ (scratch, reports and traces).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of build output

import layer_table  # noqa: E402

WORKLOADS = ("classify", "serve_read", "serve_write")
RUN_TIMEOUT_S = 170


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for a run: every
    workload reports all end-to-end metrics untraced and all per-layer
    metrics traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def fail(message, log=None):
    print(message, file=sys.stderr)
    if log:
        print(log[-4000:], file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "floqbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step), done.stdout)
    return os.path.join(build_dir, "floqbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    binary = build()
    run_root = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(run_root, "%s-%d" % (args.workload, os.getpid()))
    reports = os.path.join(run_root, "reports")
    os.makedirs(reports, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    report_path = os.path.join(reports, tag + ".json")
    # Relative paths keep the daemon's AF_UNIX socket path short.
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.relpath(workdir, ROOT),
               "--out", report_path]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    if done.returncode != 0:
        fail("%s exited with %d" % (args.workload, done.returncode),
             done.stderr)
    with open(report_path) as f:
        report = json.load(f)

    metrics = report["metrics"]
    if args.trace:
        trace_src = os.path.join(ROOT, report["details"]["trace_file"])
        trace_dst = os.path.join(reports, tag + ".trace.json")
        shutil.move(trace_src, trace_dst)
        report["details"]["trace_file"] = os.path.relpath(trace_dst, ROOT)
        metrics, figures, table = layer_table.analyze(report, trace_dst)
        report["layer_metrics"] = metrics
        report["layer_figures"] = figures
        with open(report_path, "w") as f:
            json.dump(report, f)
        print(table)
    shutil.rmtree(workdir, ignore_errors=True)
    declared = declared_metrics(args.trace)
    reported = {name: m["unit"] for name, m in metrics.items()}
    if reported != declared:
        fail("%s reported %s, BENCHMARK.json declares %s" % (
            args.workload, sorted(reported.items()), sorted(declared.items())))

    print("env " + json.dumps(report["env"], sort_keys=True))
    for why in report.get("failures", []):
        print("failure: " + why)
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
