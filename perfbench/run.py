"""Layered benchmark of envqueue, driven through its command line front end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's `envqueue` calls round-robin, in as many whole rounds as
fill about S seconds on an idle machine, checks every answer against
perfbench/oracles.py, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Every end-to-end time is the fastest repeat of its call, scaled to reference
speed; see perfbench/README.md for why.  Exits 2 without a result when the
checkout has no envqueue sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.speed import reference, scale  # noqa: E402

SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 2
CHILD_TIMEOUT = 120
SLOW_STOP = 2.0  # stop adding rounds once the rounds have taken this many times --seconds
LAYER_UNITS = {"model.generator_rows": "count", "numerics.solves": "count", "numerics.levels_solved": "count",
               "numerics.level_yield": "ratio", "numerics.residual_max": "rate", "simulate.jumps": "count",
               "simulate.jumps_per_s": "1/s", "cli.bytes_written": "B"}  # every other layer metric is in s


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _child(args, **kwargs):
    return subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT, **kwargs)


# -- set-up --------------------------------------------------------------------


def measure_setup(workload, seed, workdir):
    """Median launch-to-ready time of several fresh launches, each scaled to
    reference speed."""
    ready = []
    for i in range(SETUP_LAUNCHES):
        ref = reference()
        start = time.monotonic()
        proc = _child(["setup", workload, str(seed), str(workdir / f"setup{i}")])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up launch failed:\n{proc.stderr}")
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        ready.append((stamps["ready"] - start - stamps["bench_s"]) * scale(ref, *stamps["refs"]))
    return statistics.median(ready)


def import_times():
    """`-X importtime` cumulative seconds of envqueue.cli and self seconds of
    every scipy module it pulls in; fastest of a few launches."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import envqueue.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        total = scipy = 0
        for m in re.finditer(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", proc.stderr):
            self_us, cum_us, indent, name = int(m[1]), int(m[2]), m[3], m[4]
            if len(indent) == 1 and name.split(".")[0] == "envqueue":
                total += cum_us
            if name.split(".")[0] == "scipy":
                scipy += self_us
        cli_s.append(total / 1e6)
        scipy_s.append(scipy / 1e6)
    return min(cli_s), min(scipy_s)


# -- running calls -----------------------------------------------------------------


class InProcess:
    """Calls `envqueue.cli.main` in this interpreter."""

    def __init__(self, tracer=None):
        from envqueue.cli import main

        self.main = main
        self.tracer = tracer
        self.spans = []  # (argv, spans) of every traced call

    def run(self, argv, outdir, traced):
        """(exit code or None if main raised, wall time, {"main_s": wall time}
        plus "raised": the exception's name if main raised, per-layer summary
        or None)."""
        sink = io.StringIO()
        stats = {}
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if traced:
                    code = self.tracer.call("cli", self.main, [*argv, "--out", str(outdir)])
                else:
                    code = self.main([*argv, "--out", str(outdir)])
        except Exception as exc:  # the operation failed; the run goes on
            code = None
            stats["raised"] = type(exc).__name__
            print(f"{argv[0]} {' '.join(argv[1:])}: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        layers = None
        if traced:
            layers = self.tracer.summary()
            self.spans.append((argv, self.tracer.reset()))
        stats["main_s"] = elapsed
        return code, elapsed, stats, layers


class Subprocess:
    """One fresh `envqueue` process per call."""

    def run(self, argv, outdir, traced):
        """(exit code or None if main raised or the process failed, process
        wall time, the child's own stats: main_s, maxrss_kb, "raised" if main
        raised, per-layer summary or None)."""
        start = time.perf_counter()
        proc = _child(["call", str(outdir), "1" if traced else "0", "--", *argv])
        elapsed = time.perf_counter() - start
        stats = next((json.loads(line) for line in reversed(proc.stderr.splitlines())
                      if line.startswith("{") and '"main_s"' in line), None)
        if stats:
            elapsed -= stats.pop("bench_s")  # the child's own references
        code = proc.returncode
        if code not in (0, 1) or stats is None or "raised" in stats:
            stats = stats or {"main_s": elapsed}
            stats.setdefault("raised", f"exit {code}")
            code = None
            print(f"{' '.join(argv)}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return code, elapsed, stats, stats.get("layers")


def _digest(outdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(outdir).iterdir())}


def _bytes(outdir):
    return sum(p.stat().st_size for p in Path(outdir).iterdir())


def run_rounds(wl, runner, outroot, seconds, trace):
    """Round-robin over the workload's calls.  The number of rounds is fixed
    by `seconds` and the workload's round time on an idle machine, so every
    run of a workload takes the fastest of the same number of repeats.  With
    trace on, rounds alternate untraced/traced."""
    from perfbench.tracing import merge

    best = {c.name: {} for c in wl.calls}  # call -> mode -> {stat: fastest}
    ref = reference()
    first = {}  # call -> (code, digest) of round one
    attempted = failed = 0
    fails = []
    layer_rounds = []
    n_rounds = max(2, round(seconds / wl.round_s))
    start = time.monotonic()
    for rounds in range(n_rounds):
        if rounds >= 2 and time.monotonic() - start > SLOW_STOP * seconds:
            n_rounds = rounds  # the machine is far slower than usual: keep the run's length bounded
            break
        traced = trace and rounds % 2 == 1
        mode = "traced" if traced else "plain"
        summaries = []
        for call in wl.calls:
            outdir = outroot / call.name
            code, wall, stats, layers = runner.run(call.argv, outdir, traced)
            ref_next = reference()
            refs = stats.pop("refs", [])  # the child's own, next to main
            raised = stats.pop("raised", None)
            factors = {"wall_s": scale(ref, *refs, ref_next), "main_s": scale(*refs) if refs else scale(ref, ref_next)}
            ref = ref_next
            attempted += 1
            slot = best[call.name].setdefault(mode, {})
            for key, value in [("wall_s", wall), *stats.items()]:
                if key in factors:
                    scaled = value * factors[key]
                    slot[key] = min(scaled, slot.get(key, scaled))
                    slot["raw_" + key] = min(value, slot.get("raw_" + key, value))
                elif key == "maxrss_kb":
                    slot[key] = max(value, slot.get(key, 0))
            if code is None:
                failed += 1
                msg = f"{call.name}: raised {raised}"
                if raised != call.fails_with and msg not in fails:  # not the known fault
                    fails.append(msg)
                continue
            if layers is not None:
                layers["cli.bytes_written"] = _bytes(outdir)
                summaries.append(layers)
            if call.name not in first:
                first[call.name] = (code, _digest(outdir))
                try:
                    fails += [f"{call.name}: {msg}" for msg in call.check(outdir, code)]
                except (OSError, KeyError, TypeError, ValueError) as exc:  # missing or malformed output
                    fails.append(f"{call.name}: output unreadable: {type(exc).__name__}: {exc}")
            elif (code, _digest(outdir)) != first[call.name]:
                fails.append(f"{call.name}: output or exit code differs from round one")
        if traced:
            layer_rounds.append(merge(summaries))
    return best, attempted, failed, fails, layer_rounds, n_rounds


# -- metrics ---------------------------------------------------------------------


def _jumps(outroot, wl):
    sims = [c for c in wl.calls if c.command == "simulate"]
    jumps = sum(json.loads((outroot / c.name / "simulation.json").read_text())["total_jumps"] for c in sims)
    return sims, jumps


def end_to_end(wl, best, outroot, setup_s):
    plain = {name: modes["plain"] for name, modes in best.items()}
    analysis_s = sum(s["main_s"] for s in plain.values())
    sims, jumps = _jumps(outroot, wl)
    sim_s = sum(plain[c.name]["main_s"] for c in sims)
    if wl.in_process:
        # the workload as one script: fresh interpreter to ready, then each call once
        cli_s = setup_s + analysis_s
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        cli_s = sum(s["wall_s"] for s in plain.values())
        rss_kb = max(s.get("maxrss_kb", 0) for s in plain.values())
    return {
        "setup_s": (setup_s, "s"),
        "analysis_s": (analysis_s, "s"),
        "sim_jumps_per_s": (jumps / sim_s, "1/s"),
        "cli_s": (cli_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(best, layer_rounds):
    from perfbench.tracing import combine_rounds

    out = combine_rounds(layer_rounds)
    traced = sum(modes["traced"]["main_s"] for modes in best.values())
    plain = sum(modes["plain"]["main_s"] for modes in best.values())
    out["trace.overhead_s"] = traced - plain
    out["cli.import_s"], out["cli.import_scipy_s"] = import_times()
    return {name: (value, LAYER_UNITS.get(name, "s")) for name, value in out.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "envqueue" / "cli.py").is_file():
        print(f"error: no envqueue sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import workloads
    from perfbench.tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_runs" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    began = time.monotonic()
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed, workdir)
    wl = workloads.build(args.workload, workdir, args.seed)
    tracer = Tracer() if args.trace else None
    runner = InProcess(tracer) if wl.in_process else Subprocess()
    warm = workdir / "warmup"
    if wl.in_process:  # each cli_batch call starts cold, as a shell user's does
        for i, argv in enumerate(wl.warmups):
            runner.run(argv, warm / str(i), False)
    measuring = time.monotonic()
    best, attempted, failed, fails, layer_rounds, rounds = run_rounds(
        wl, runner, workdir / "out", args.seconds, bool(args.trace))
    measured = time.monotonic() - measuring
    for msg in fails:
        print(f"CHECK FAILED {msg}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(best, layer_rounds)
        if wl.in_process:
            (workdir / "trace.json").write_text(json.dumps(runner.spans))
    else:
        metrics = end_to_end(wl, best, workdir / "out", setup_s)
    report = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (workdir / "result.json").write_text(json.dumps({"rounds": rounds, "best": best, "metrics": report}, indent=1))
    print(f"{args.workload}: {rounds} rounds of {len(wl.calls)} calls in {measured:.1f} s, "
          f"{time.monotonic() - began:.1f} s in all", file=sys.stderr)
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
