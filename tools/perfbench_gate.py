#!/usr/bin/env python3
"""Deterministic perf gate: every perfbench workload must be correct.

    python3 tools/perfbench_gate.py

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0`
from the repository root for each of the three workloads, one after the
other (they share perfbench's build directory), and exits 1 unless the last
line of every run says "correct": true. A run is correct only if its result
digest and its work counters equal perfbench/expected.json and every item
was checked, so a change that moves a result or a counter fails here. The
time metrics are not judged.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("certify_sweep", "multicore_resilience", "service_mixed")


def is_correct(stdout):
    """True if the last non-empty line of `stdout` is a JSON object whose
    "correct" field is true."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return False
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return False
    return isinstance(result, dict) and result.get("correct") is True


def main():
    failed = []
    for workload in WORKLOADS:
        command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        ok = is_correct(proc.stdout)
        for line in proc.stdout.splitlines():
            if line.startswith(("counters:", "digest:")):
                print("%s %s" % (workload, line))
        print("%s: %s (exit %d)" % (workload, "correct" if ok else "NOT CORRECT", proc.returncode))
        if not ok:
            failed.append(workload)
            sys.stdout.write(proc.stdout[-4000:])
            sys.stdout.write(proc.stderr[-4000:])
    if failed:
        print("perfbench gate failed: %s" % ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
