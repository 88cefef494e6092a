#!/usr/bin/env python3
"""Builds the library in Release, runs one benchmark workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is built with the repository's own
CMakeLists.txt into .bench_build/rbs (library targets only), the benchmark
package perfbench/ into .bench_build/perfbench. The workload runs in its own
process; its scratch files (journal, WAL, spans) go to .bench_build/run.

Standard output: lines describing the build, the environment and the run,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. A run is correct only if
the workload checked every result, the metric names and units match
BENCHMARK.json, and -- for seeds recorded in perfbench/expected.json -- the
result digest and the work counters equal the recorded ones.

    python3 perfbench/run.py --record 0,1,2

re-records expected.json for the given seeds (do this only in a change that
is meant to change results or counters, and say so).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "rbs")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
RUN_DIR = os.path.join(BUILD, "run")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("certify_sweep", "multicore_resilience", "service_mixed")
LIB_TARGETS = ("rbs_core", "rbs_support", "rbs_gen", "rbs_multi", "rbs_sim",
               "rbs_campaign", "rbs_service")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
COUNTERS = ("core.breakpoints", "multi.analyzer_calls", "sim.events",
            "service.cache_misses", "campaign.journal_bytes")


class BenchError(Exception):
    """Set-up failure: the run ends without a result line."""


def log(line):
    print(line, flush=True)


def run_quiet(cmd, what):
    """Runs a build step; its output goes to stderr only if it fails. The
    compiler's temporary files stay inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=880, env=dict(os.environ, TMPDIR=tmp))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise BenchError("%s failed (exit %d)" % (what, proc.returncode))


def cmake_cache(build_dir):
    values = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(path):
        return values
    with open(path) as cache:
        for line in cache:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                values[key.split(":")[0]] = value
    return values


def build():
    """Builds the library targets and the benchmark; returns the binary."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise BenchError("no %s at %s: run from a checkout of the repository" %
                             (required, ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", LIB_BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                  "configuring the library")
    build_type = cmake_cache(LIB_BUILD).get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release":
        raise BenchError("library build type is '%s', not Release: refusing to measure" %
                         build_type)
    run_quiet(["cmake", "--build", LIB_BUILD, "-j", jobs, "--target"] + list(LIB_TARGETS),
              "building the library")
    if not os.path.exists(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BENCH_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                   "-DRBS_SOURCE_DIR=" + ROOT, "-DRBS_BUILD_DIR=" + LIB_BUILD],
                  "configuring the benchmark")
    run_quiet(["cmake", "--build", BENCH_BUILD, "-j", jobs], "building the benchmark")
    return os.path.join(BENCH_BUILD, "perfbench")


def environment():
    """What the result was measured on and with."""
    cache = cmake_cache(LIB_BUILD)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    flags = "unknown"
    try:
        with open(os.path.join(LIB_BUILD, "compile_commands.json")) as db:
            for entry in json.load(db):
                if entry["file"].endswith(os.path.join("core", "analysis.cpp")):
                    words = entry["command"].split()
                    flags = " ".join(w for w in words[1:] if w.startswith(("-O", "-f", "-m",
                                                                          "-D", "-std", "-g")))
    except (OSError, ValueError, KeyError):
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version,
        "library_flags": flags,
        "git_rev": rev or "none (not a git checkout)",
        "source_sha256": source_digest(),
    }


def source_digest():
    """sha256 over the library sources and build files, path-sorted."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(base, f) for f in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def run_workload(binary, workload, seed, seconds, trace):
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", RUN_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no result" % workload)
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def check_metrics(metrics, declared):
    """Errors where the reported metrics differ from BENCHMARK.json's list."""
    errors = []
    want = {m["name"]: m["unit"] for m in declared}
    for name, unit in want.items():
        if name not in metrics:
            errors.append("metric %s missing" % name)
        elif metrics[name]["unit"] != unit:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s" %
                          (name, metrics[name]["unit"], unit))
        elif not isinstance(metrics[name]["value"], (int, float)):
            errors.append("metric %s has no finite value" % name)
    for name in metrics:
        if name not in want:
            errors.append("metric %s is not in BENCHMARK.json" % name)
    return errors


def check_expected(result, expected):
    """Errors where digest or counters differ from the recorded seed."""
    recorded = expected.get(result["workload"], {}).get(str(result["seed"]))
    if recorded is None:
        return [], False
    errors = []
    if result["digest"] != recorded["digest"]:
        errors.append("result digest %s differs from the recorded %s" %
                      (result["digest"], recorded["digest"]))
    for name in COUNTERS:
        if result["counters"][name] != recorded["counters"][name]:
            errors.append("counter %s = %d differs from the recorded %d" %
                          (name, result["counters"][name], recorded["counters"][name]))
    return errors, True


def final_line(result, declared, expected):
    errors = list(result["errors"])
    errors += check_metrics(result["metrics"], declared)
    expected_errors, recorded = check_expected(result, expected)
    errors += expected_errors
    correct = bool(result["correct"]) and not errors
    return errors, recorded, {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }


def record(binary, seeds):
    expected = load_json(EXPECTED) if os.path.exists(EXPECTED) else {}
    for workload in WORKLOADS:
        for seed in seeds:
            # A short run still completes the first cycle, which fixes both.
            result = run_workload(binary, workload, seed, 1, 0)
            if not result["correct"]:
                raise BenchError("%s seed %d is not correct: %s" %
                                 (workload, seed, result["errors"]))
            expected.setdefault(workload, {})[str(seed)] = {
                "digest": result["digest"], "counters": result["counters"]}
            log("recorded %s seed %d: %s" % (workload, seed, result["digest"]))
    with open(EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="comma-separated seeds to record in expected.json")
    args = parser.parse_args(argv)
    if not args.record and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
        if args.record:
            record(binary, [int(s) for s in args.record.split(",")])
            return 0
        benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        expected = load_json(EXPECTED)
        env = environment()
        result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as error:
        sys.stderr.write("run.py: %s\n" % error)
        return 1
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    errors, recorded, line = final_line(result, declared, expected)
    env["perfbench_build_type"] = result["build"]["build_type"]
    env["perfbench_compiler"] = result["build"]["compiler"]
    env["perfbench_flags"] = result["build"]["cxx_flags"].strip()
    log("environment: " + json.dumps(env, sort_keys=True))
    log("workload: %s seed %d seconds %g trace %d" %
        (args.workload, args.seed, args.seconds, args.trace))
    log("config: " + result["info"].get("config", ""))
    log("counters: " + json.dumps(result["counters"]))
    log("digest: %s (%s)" % (result["digest"], "checked against expected.json" if recorded
                             else "seed not recorded in expected.json"))
    for key, value in result["info"].items():
        if key != "config":
            log("info %s: %s" % (key, value))
    for name, metric in result["metrics"].items():
        log("metric %s = %.6g %s" % (name, metric["value"] if metric["value"] is not None
                                     else float("nan"), metric["unit"]))
    for error in errors:
        log("error: " + error)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
