#!/usr/bin/env python3
"""Repository benchmark: build, run one workload (or all), print the result.

    python3 perfbench/run.py --workload spmm --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from the repository sources) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls rebuild only what
changed. Every workload runs in a fresh process with its own Runtime and
PlanCache.

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload twice,
untraced and then traced, each for half of --seconds, and prints every
per-layer metric from the traced
run plus the tracing overhead on each end-to-end metric
(trace_overhead.<metric> = traced / untraced - 1). Spans are written to
.bench_build/traces/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit status is non-zero when any output differed
from its reference or the build or a run failed. --workload all runs every
workload and prints one combined line whose metric names are prefixed with
the workload. --selftest builds and runs the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ["spmm", "train_gcn", "serve_open", "churn"]
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return out


def source_digest():
    """Digest of the library and benchmark sources measured by this run."""
    h = hashlib.sha256()
    for sub in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    h.update((ROOT / "CMakeLists.txt").read_bytes())
    return h.hexdigest()[:16]


def child_env():
    # glibc raises its mmap threshold after large frees, so whether a freed
    # buffer returns to the OS depends on allocation timing and peak RSS
    # creeps with run length. A fixed threshold makes peak_rss_mb measure
    # live memory.
    env = dict(os.environ)
    env.setdefault("MALLOC_MMAP_THRESHOLD_", str(1 << 20))
    return env


def run_binary(binary, workload, seed, seconds, trace, commit):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", commit]
    if trace:
        traces = build_dir().parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        for line in out.splitlines():
            print(line)
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s; killed")
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        if lines:
            print(lines[-1])
        log(f"perfbench: {workload} exited {proc.returncode} without a result")
    return proc.returncode, result


def run_workload(binary, workload, seed, seconds, trace, commit):
    """Returns (exit code, result dict or None)."""
    if not trace:
        return run_binary(binary, workload, seed, seconds, False, commit)
    # The two processes split the run length, so a traced run measures for
    # --seconds in all and takes about as long as an untraced one.
    half = seconds / 2
    code_u, untraced = run_binary(binary, workload, seed, half, False, commit)
    if untraced is None:
        return code_u or 1, None
    code_t, traced = run_binary(binary, workload, seed, half, True, commit)
    if traced is None:
        return code_t or 1, None
    e2e = set(untraced["metrics"])
    metrics = {k: v for k, v in traced["metrics"].items() if k not in e2e}
    for name, m in untraced["metrics"].items():
        base = m["value"]
        over = traced["metrics"][name]["value"] / base - 1.0 if base else 0.0
        metrics["trace_overhead." + name] = {"value": over, "unit": "ratio"}
    result = {
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": metrics,
    }
    return code_u or code_t, result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    out = build()
    if out is None:
        return 1
    if args.selftest:
        return subprocess.run([str(out / "perfbench_selftest")], timeout=RUN_TIMEOUT_S).returncode

    commit = source_digest()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    exit_code = 0
    for name in names:
        code, result = run_workload(out / "perfbench", name, args.seed, args.seconds,
                                    bool(args.trace), commit)
        if result is None:
            return code or 1
        exit_code = exit_code or code
        results[name] = result
        if len(names) > 1:
            print(f"# {name}: " + json.dumps(result))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    if not final["correct"]:
        return exit_code or 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
