"""Steadiness check: two sets of runs of the same commit.

    python3 perfbench/steady.py

Runs the command of BENCHMARK.json 2 x RUNS times on every workload it
lists, alternating set A (seeds 1..RUNS) and set B (seeds
1001..1000+RUNS).  For every end-to-end metric it prints each set's median
and quartiles, the spread (q3 - q1) / median, and whether the sets agree:
every spread within the metric's bound, the two medians apart by no more
than the bound, and the same share of failed operations in every run.
Raw results go to .bench_runs/steady.json.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # per set and workload: the quartiles of ten values


def one_run(bench, workload, seed, seconds):
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def judge(bench, results):
    """Lines of the report and whether every check passed."""
    lines, ok = [], True
    for workload, sets in results.items():
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets.values() for r in runs}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        good = len(shares) == 1 and correct
        ok &= good
        lines.append(f"{workload}: failed share {sorted(map(str, shares))}, all correct {correct} "
                     f"-> {'ok' if good else 'FAIL'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = spread([r["metrics"][name]["value"] for r in sets["A"]])
            b = spread([r["metrics"][name]["value"] for r in sets["B"]])
            shift = (b[0] - a[0]) / a[0]
            both = spread([r["metrics"][name]["value"] for runs in sets.values() for r in runs])[3]
            good = abs(shift) <= bound and max(a[3], b[3]) <= bound
            ok &= good
            lines.append(
                f"  {name:16s} A {a[0]:.6g} [{a[1]:.6g}, {a[2]:.6g}] spread {a[3]:6.1%}  "
                f"B {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}] spread {b[3]:6.1%}  "
                f"A+B spread {both:6.1%}  B-A {shift:+6.1%}  bound {bound:.0%}  {'ok' if good else 'FAIL'}")
    return lines, ok


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = results[workload] = {"A": [], "B": []}
        for i in range(1, RUNS + 1):
            for tag, seed in (("A", i), ("B", 1000 + i)) if i % 2 else (("B", 1000 + i), ("A", i)):
                sets[tag].append(one_run(bench, workload, seed, seconds))
                print(f"{workload} {tag} seed {seed} done", file=sys.stderr, flush=True)
    out = ROOT / ".bench_runs" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    lines, ok = judge(bench, results)
    print("\n".join(lines))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
