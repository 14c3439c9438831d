#!/usr/bin/env python3
"""Compares two sets of wsf-bench results against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds one file per run, named <workload>.<anything>.json,
whose last line is the JSON object benchmark/run.py prints, e.g.

    for s in 1 2 3 4 5; do
      python3 benchmark/run.py --workload fib --seed $s --seconds 20 \\
        --trace 0 | tail -n 1 > base/fib.$s.json
    done

For every workload and metric it prints each side's median and quartiles
and a verdict:
  ok                the new median is not worse than the base median by more
                    than the metric's bound;
  worse-than-bound  it is;
  unresolved        either side's quartile spread, as a share of its median,
                    is wider than the bound, so the runs cannot tell (unless
                    every new run beats every base run, which reads ok).
Metrics without a bound (per-layer ones) are printed without a verdict.
Exits 1 when any metric is worse than its bound or any run failed its
output checks, 0 otherwise.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: [result, ...]} from every *.json file in directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise SystemExit(f"compare.py: {path} is empty")
        workload = path.name.split(".")[0]
        runs.setdefault(workload, []).append(json.loads(lines[-1]))
    if not runs:
        raise SystemExit(f"compare.py: no *.json results in {directory}")
    return runs


def summary(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def quartiles(values):
    return "/".join(f"{x:.4g}" for x in summary(values))


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def change(base, new):
    """Relative change of the new median against the base median."""
    b_med = summary(base)[1]
    return (summary(new)[1] - b_med) / abs(b_med) if b_med else 0.0


def verdict(base, new, better, bound):
    worse = change(base, new) if better == "lower" else -change(base, new)
    new_always_better = (max(new) < min(base)) if better == "lower" else \
        (min(new) > max(base))
    if max(spread(base), spread(new)) > bound and not new_always_better:
        return "unresolved"
    return "worse-than-bound" if worse > bound else "ok"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])

    regressions = 0
    print(f"{'workload':8} {'metric':26} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'change':>8}  verdict")
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"{workload:8} only in one set; skipped")
            continue
        for side, runs in (("base", base[workload]), ("new", new[workload])):
            bad = [r for r in runs if not r.get("correct", False)]
            if bad:
                print(f"{workload:8} {len(bad)} {side} run(s) failed their "
                      f"output checks")
                regressions += side == "new"
        both = base[workload] + new[workload]
        names = [n for n in metrics if all(n in r["metrics"] for r in both)]
        for name in names:
            m = metrics[name]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            tail = f"{change(b, n):+8.1%}"
            if "bound" in m:
                word = verdict(b, n, m["better"], m["bound"])
                regressions += word == "worse-than-bound"
                tail += f"  {word} (bound {m['bound']:.0%})"
            print(f"{workload:8} {name:26} {quartiles(b):>32} "
                  f"{quartiles(n):>32} {tail}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
