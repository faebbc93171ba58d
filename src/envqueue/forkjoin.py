"""Fork-join over contiguous blocks of work, one block per CPU, on a pool of
forked workers that lives as long as the process.

`run_blocks(work, blocks)` returns `[work(block) for block in blocks]`: the
first block runs in this process, each other one in a worker.  A worker is
forked on first use and serves every later call: it reads `(work, block)`
pickled from one pipe and pickles back through another (True, its result) or
(False, the exception it raised).  So `work` must pickle: a module-level
function, or a `functools.partial` of one, which the worker finds by name in
its copy of the modules as they were when it was forked.  A worker leaves only
through `os._exit`, so it never returns into the caller's stack and flushes
none of the files the caller has open.  It leaves on end of file, when its
owner closes the pipe (`shutdown`, which runs at exit and waits for every
worker), and on SIGINT, quietly; the next call forks a fresh one in place of
a worker that left while idle.  A worker belongs to the process that forked
it: a process forked from the owner, a worker included, closes the pipes it
inherits.  The work of a worker must start no BLAS call: numpy's BLAS threads
do not survive a fork.
"""

from __future__ import annotations

import atexit
import contextlib
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


class _Worker:
    """The owner's end of a worker: its pid and the two pipes."""

    def __init__(self, pid: int, requests, replies):
        self.pid, self.requests, self.replies = pid, requests, replies

    def send(self, request: bytes) -> bool:
        """Write the request; False if the worker has exited, so that it never took it."""
        try:
            self.requests.write(request)
            self.requests.flush()
        except BrokenPipeError:
            return False
        return True

    def receive(self) -> tuple:
        try:
            return pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):
            raise WorkerLost(f"worker {self.pid} exited without a result") from None

    def close(self):
        """Close the pipes, so that the worker leaves, and wait for it."""
        with contextlib.suppress(BrokenPipeError):  # a request left unsent by a lost worker
            self.requests.close()
        self.replies.close()
        with contextlib.suppress(ChildProcessError):  # reaped elsewhere
            os.waitpid(self.pid, 0)


_pool: list = []  # this process's workers, in the order of the blocks they take


def _serve(fds: tuple):
    """A worker's loop over the pipes `_fork` made: `work(block)` for each
    request, until end of file.  A request it cannot unpickle, such as one
    naming a function defined after the fork, ends it too."""
    try:
        # a collection could run finalizers of the parent's garbage, such as a temporary directory's
        gc.disable()
        os.close(fds[1])  # the owner's ends
        os.close(fds[2])
        with os.fdopen(fds[0], "rb") as inbox, os.fdopen(fds[3], "wb") as outbox:
            while True:
                try:
                    work, block = pickle.load(inbox)
                except EOFError:
                    break
                try:
                    result = (True, work(block))
                except Exception as exc:
                    result = (False, exc.with_traceback(None))
                outbox.write(pickle.dumps(result))
                outbox.flush()
    finally:  # also on KeyboardInterrupt, which prints nothing here
        os._exit(0)


def _fork() -> _Worker:
    """Fork a worker; it never returns into the caller's stack."""
    fds = (*os.pipe(), *os.pipe())  # requests (read, write), replies (read, write)
    try:
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if not pid:
        _serve(fds)
    os.close(fds[0])
    os.close(fds[3])
    return _Worker(pid, os.fdopen(fds[1], "wb"), os.fdopen(fds[2], "rb"))


def _disown():
    """In a process forked from the owner: close the inherited pipes, which
    would keep the owner's workers from seeing end of file."""
    for worker in _pool:
        worker.requests.close()
        worker.replies.close()
    _pool.clear()


def shutdown():
    """Close every worker and wait for it; the next `run_blocks` forks afresh."""
    while _pool:
        _pool.pop().close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_disown)
atexit.register(shutdown)


def run_blocks(work, blocks: list) -> list:
    """`work(block)` of each block, in order: the first block in this process,
    each other one in a worker, forked here if the pool has too few.  A
    worker's exception is raised here with its type; a worker that exits
    after it took its block raises `WorkerLost`, and one that exited while
    idle is replaced by a fresh fork, once.  A worker whose reply this call
    did not read, because of an exception, is closed and waited for before
    this raises, so the next call forks a fresh one.  The pool serves one call at a
    time: a caller with threads must not call this from two at once."""
    while len(_pool) < len(blocks) - 1:
        _pool.append(_fork())
    requests = [pickle.dumps((work, block)) for block in blocks[1:]]
    unread = []  # workers given a block whose reply is not read
    try:
        for i, request in enumerate(requests):
            unread.append(_pool[i])
            if _pool[i].send(request):
                continue
            # it exited while idle, say on a Ctrl-C at the terminal, and took no block: fork afresh
            unread[-1].close()
            _pool[i] = unread[-1] = _fork()
            if not _pool[i].send(request):
                raise WorkerLost(f"worker {_pool[i].pid} exited before its request")
        results = [work(blocks[0])]
        while unread:
            ok, value = unread[0].receive()
            unread.pop(0)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for worker in unread:
            _pool.remove(worker)
            worker.close()
