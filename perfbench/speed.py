"""The machine's speed of the moment, measured with a fixed kernel.

Other tenants of a shared box slow every call down by up to 2x for tens of
seconds at a time, so the benchmark times `reference()` next to each timed
call and reports the call at reference speed: raw time * REF_S / reference
time.  A change to envqueue cannot move the reference.
"""

import time

import numpy as np

# reference() on an idle core of the 2-core Xeon this benchmark was written on
REF_S = 0.008
REPEATS = 3
_A = np.eye(6) * 3.0 + 0.1
_B = np.ones(6)


def reference():
    """Fastest of REPEATS runs of a fixed kernel of interpreter steps and small
    numpy calls, the mix envqueue spends its time in.  Taking the fastest run
    keeps a single hiccup from shrinking the scaled time."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i
        for _ in range(600):
            np.linalg.solve(_A, _B)
        best = min(best, time.perf_counter() - start)
    return best


def scale(*refs):
    """Factor that brings a time measured among these references to
    reference speed."""
    return REF_S * len(refs) / sum(refs)
