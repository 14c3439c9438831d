#!/usr/bin/env python3
"""Builds wsf-bench from this checkout and runs one workload.

    python3 benchmark/run.py --workload fib --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/wsf-bench (default .bench_build/,
relative to the checkout root) and is incremental after the first run.
With --trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the run is traced (a Chrome trace lands in
the build directory) and the line carries the per-layer metrics. The
workload's full report goes to stderr. The exit code is nonzero when the
build fails, the sources are missing, or an output check failed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=stdout,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload '{args.workload}'")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        return fail("the wsf library sources (CMakeLists.txt, src/) are "
                    "missing from this checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = ROOT / target / "wsf-bench"
    try:
        if not (build / "CMakeCache.txt").is_file():
            code, _ = run(["cmake", "-S", ROOT / "benchmark", "-B", build,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                          stdout=sys.stderr)
            if code != 0:
                return fail("cmake configure failed")
        code, _ = run(["cmake", "--build", build, "-j4", "--target",
                       "wsf-bench"], BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return fail("build failed")

        cmd = [build / "wsf-bench", f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}"]
        if args.trace:
            traces = build / "traces"
            traces.mkdir(exist_ok=True)
            trace = traces / f"{args.workload}.{args.seed}.json"
            cmd.append(f"--trace={trace}")
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired as e:
        return fail(f"timed out: {' '.join(map(str, e.cmd))}")

    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail(f"wsf-bench printed no result (exit {code})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            return fail(f"metric {m['name']} [{m['unit']}] missing from the "
                        f"wsf-bench result")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
