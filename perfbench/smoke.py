#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, at seed 1 and
seed 2, untraced and traced.

    python3 perfbench/smoke.py

Each run must exit 0 (run.py fails a run that does not report exactly the
metrics BENCHMARK.json declares: end-to-end untraced, per-layer traced),
pass every output check with zero failed operations, read no end-to-end
metric as 0, and (traced) drop no span. Takes a couple of minutes, most of
it the first build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of build output

from run import WORKLOADS  # noqa: E402


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None, "exit %d: %s" % (done.returncode, done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def main():
    problems = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                tag = "%s seed %d trace %d" % (workload, seed, trace)
                result, error = run(workload, seed, trace)
                if error:
                    problems.append("%s: %s" % (tag, error))
                    continue
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%s: %d of %d operations failed" % (
                        tag, result["failed"], result["attempted"]))
                metrics = result["metrics"]
                zero = sorted(n for n, m in metrics.items() if m["value"] <= 0)
                if trace == 0 and zero:
                    problems.append("%s: %s read 0" % (tag, zero))
                if trace == 1 and metrics["trace.dropped"]["value"] != 0:
                    problems.append("%s: the trace dropped spans" % tag)
                print("ok " + tag if not problems else ".. " + tag)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
