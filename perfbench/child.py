"""Fresh-interpreter side of the benchmark.

    python3 perfbench/child.py setup WORKLOAD SEED WORKDIR
        imports envqueue.cli, builds the workload's inputs and makes one
        warm-up call of each command it uses; prints as JSON the monotonic
        clock at ready, the reference kernel's time after import and after
        ready, and the time that first reference took.
    python3 perfbench/child.py call OUTDIR TRACE -- ARGV...
        what the `envqueue` console script does (import envqueue.cli, call
        main), then reports as JSON on the last line of stderr: main's own
        time, the reference kernel's time before and after main, the time
        those references took, peak RSS, the name of the exception if main
        raised and, if TRACE is 1, per-layer summaries.  The exit code is
        main's, or 1 with a traceback if main raises, like the console
        script.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _setup(workload, seed, workdir):
    import contextlib
    import io

    from envqueue.cli import main

    bench_start = time.perf_counter()
    from perfbench import workloads
    from perfbench.speed import reference

    refs = [reference()]
    bench_s = time.perf_counter() - bench_start
    wl = workloads.build(workload, workdir, int(seed))
    with contextlib.redirect_stdout(io.StringIO()):
        for i, argv in enumerate(wl.warmups):
            main([*argv, "--out", os.path.join(workdir, "warmup", str(i))])
    ready = time.monotonic()
    refs.append(reference())
    print(json.dumps({"ready": ready, "refs": refs, "bench_s": bench_s}))


def _call(outdir, trace, argv):
    from envqueue.cli import main

    bench_start = time.perf_counter()
    from perfbench.speed import reference

    refs = [reference()]
    tracer = None
    if trace == "1":
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
    stats = {}
    bench_s = time.perf_counter() - bench_start
    start = time.perf_counter()
    try:
        if tracer:
            code = tracer.call("cli", main, [*argv, "--out", outdir])
        else:
            code = main([*argv, "--out", outdir])
    except Exception as exc:
        stats["raised"] = type(exc).__name__
        raise
    finally:
        stats["main_s"] = time.perf_counter() - start
        bench_start = time.perf_counter()
        refs.append(reference())
        stats["refs"] = refs
        stats["bench_s"] = bench_s + time.perf_counter() - bench_start
        stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            stats["layers"] = tracer.summary()
            with open(outdir.rstrip("/") + ".trace.json", "w") as fh:
                json.dump(tracer.spans, fh)
        sys.stdout.flush()
        print(json.dumps(stats), file=sys.stderr)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        _setup(*sys.argv[2:5])
    elif mode == "call":
        sep = sys.argv.index("--")
        sys.exit(_call(sys.argv[2], sys.argv[3], sys.argv[sep + 1:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
