"""Fork-join over contiguous blocks of work, one block per CPU.

`run_blocks(work, blocks)` returns `[work(block) for block in blocks]`: the
first block runs in this process, each other one in a forked child that
pickles back through a pipe (True, its result) or (False, the exception it
raised).  A child leaves through `os._exit`, so it never returns into the
caller's stack and flushes none of the files the caller has open.  The work
of a child must start no BLAS call: numpy's BLAS threads do not survive a fork.
"""

from __future__ import annotations

import gc
import os
import pickle

from .model import EnvqueueError


class WorkerLost(EnvqueueError):
    """A forked worker exited without sending its result."""


def cpus() -> int:
    """CPUs in this process's affinity mask; 1 where `os.fork` or the mask is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def split(n: int, parts: int) -> list:
    """range(n) cut into `parts` contiguous ranges whose lengths differ by at most one."""
    return [range(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


def _fork(work, block):
    """Start a child that pickles `work(block)` back through a pipe; returns the
    child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    try:  # the child: it never returns into the caller's stack
        # a collection could run finalizers of the parent's garbage, such as a temporary directory's
        gc.disable()
        os.close(read_fd)
        try:
            result = (True, work(block))
        except BaseException as exc:
            result = (False, exc)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(pickle.dumps(result))
    finally:
        os._exit(0)


def run_blocks(work, blocks: list) -> list:
    """`work(block)` of each block, in order: the first block in this process,
    each other one in a forked child.  A child's exception is raised here with
    its type; a child that exits without a result raises `WorkerLost`.  Every
    child is waited for before this returns or raises."""
    children = []
    try:
        for block in blocks[1:]:
            children.append(_fork(work, block))
        results = [work(blocks[0])]
        for pid, fh in children:
            try:
                ok, value = pickle.loads(fh.read())
            except (EOFError, pickle.UnpicklingError):
                raise WorkerLost(f"worker {pid} exited without a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)
