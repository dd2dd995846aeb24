#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark program (perfbench/ is its
own CMake package; it compiles the vpdift libraries from src/) into the
build directory ($CARGO_TARGET_DIR, default .bench_build), runs one
workload, and prints as the last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Exact counters (DIFT, fork and cache counters of deterministic work) are kept
per benchmark binary in the build directory; a counter that differs from an
earlier run of the same binary on the same inputs counts as a failure. A
traced run also reports its overhead against the last untraced run of the
same workload.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("table2-live", "fi-campaign")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(src_dir, build_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", src_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(build_dir, "perfbench")
    return exe if res.returncode == 0 and os.path.exists(exe) else None


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def store_json(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def check_counters(store_path, counters):
    """Compares this run's exact counters with every earlier run of the same
    binary that shared inputs; returns the number of mismatching counters."""
    known = load_json(store_path, {})
    mismatches = 0
    for key, values in counters.items():
        seen = known.get(key)
        if seen is None:
            known[key] = values
            continue
        for name in sorted(set(seen) | set(values)):
            if seen.get(name) != values.get(name):
                mismatches += 1
                log(f"COUNTER MISMATCH {key} {name}: earlier {seen.get(name)} "
                    f"now {values.get(name)}")
    store_json(store_path, known)
    return mismatches


def report_trace_overhead(out_dir, workload, traced, untraced):
    if not untraced:
        print("trace overhead: no untraced run of this workload yet")
        return
    overhead = {}
    for name, m in traced.items():
        base = untraced.get(name, {}).get("value")
        if base:
            overhead[name] = (m["value"] - base) / base
    print("trace overhead vs last untraced run (relative change): " +
          ", ".join(f"{k} {v:+.3%}" for k, v in sorted(overhead.items())))
    store_json(os.path.join(out_dir, f"trace-overhead-{workload}.json"), overhead)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    out_dir = os.path.join(build_root, "perfbench-run")
    os.makedirs(out_dir, exist_ok=True)

    exe = build(here, build_dir)
    if exe is None:
        log("perfbench: build failed")
        return 1
    with open(exe, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]

    rel = lambda p: os.path.relpath(p, root)  # short AF_UNIX socket paths
    result_path = os.path.join(out_dir, f"result-{os.getpid()}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", rel(out_dir), "--policies", rel(os.path.join(here, "policies")),
           "--result", rel(result_path)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run timed out")
        return 1
    sys.stdout.write(stdout.decode(errors="replace"))
    if proc.returncode != 0:
        log(f"perfbench: benchmark exited with {proc.returncode}")
        return 1
    result = load_json(result_path, None)
    os.remove(result_path)
    if result is None:
        log("perfbench: no result file")
        return 1

    mismatches = check_counters(
        os.path.join(build_root, f"perfbench-counters-{binary_id}.json"),
        result["counters"])
    failed = result["failed"] + mismatches
    e2e_path = os.path.join(build_root, f"perfbench-e2e-{binary_id}-{args.workload}.json")
    if args.trace:
        report_trace_overhead(out_dir, args.workload, result["end_to_end"],
                              load_json(e2e_path, None))
        metrics = result["per_layer"]
    else:
        store_json(e2e_path, result["end_to_end"])
        metrics = result["end_to_end"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
