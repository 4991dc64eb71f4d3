"""Numbered tasks run in worker processes forked with bare ``os.fork``.

``fork_map`` runs ``task(0), ..., task(n - 1)`` in one worker per usable CPU
up to the task count, and in its own process when that count is 1, inside a
worker, or where the platform cannot fork. A worker inherits the tasks, and
whatever they read, from the fork, so nothing goes out to it, and only its
results come back, pickled through a pipe. The workers have ended before
``fork_map`` returns or raises, and on Linux the kernel kills them if the
calling process is killed. ``pickle``, ``signal`` and ``ctypes`` load only
where workers are forked.
"""

from __future__ import annotations

import os
import sys
from typing import Callable

__all__ = ["fork_map"]

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# True in a forked fork_map worker, whose own fork_map calls run in-process
_in_worker = False


def _serve(task, indices: range, fd: int, parent: int):
    """Run ``task`` on ``indices`` in a forked worker, write ``(results,
    error)`` pickled to ``fd`` and exit; never returns. The tasks stop at
    the first that raises, whose index and error make up ``error``."""
    global _in_worker
    code = 1
    try:
        _in_worker = True
        # A worker whose caller is killed would run to the end of its tasks
        # for nobody; on Linux the kernel kills it with the caller.
        if sys.platform.startswith("linux"):
            import ctypes
            import signal

            ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the caller died before the prctl
            return
        import pickle

        results, error = [], None
        for i in indices:
            try:
                results.append(task(i))
            except Exception as exc:
                error = (i, exc)
                break
        with open(fd, "wb") as fh:
            pickle.dump((results, error), fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def fork_map(task: Callable[[int], object], n: int) -> list:
    """``[task(0), ..., task(n - 1)]``, computed by forked worker processes.

    ``W = min(n, usable CPUs)`` workers are forked with bare ``os.fork``;
    worker ``w`` runs tasks ``w, w + W, ...`` and sends their results back
    pickled through a pipe. A worker inherits ``task`` from the fork, so the
    task, and whatever it reads, is never pickled. Where ``W`` is 1, where
    the platform cannot fork, or inside a worker, the tasks run in this
    process, in order. Either way the error of the lowest failing task is
    raised; a worker that ends without sending its results raises
    :class:`RuntimeError`. Every worker has ended when ``fork_map`` returns
    or raises, and on Linux the kernel kills the workers if the calling
    process is killed.
    """
    workers = min(n, _usable_cpus())
    if workers <= 1 or _in_worker or not hasattr(os, "fork"):
        return [task(i) for i in range(n)]
    import pickle
    import signal

    parent = os.getpid()
    children = []  # (pid, read end of its pipe), in worker order
    try:
        for w in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _serve(task, range(w, n, workers), write, parent)
            os.close(write)
            children.append((pid, read))
        # errors by task index; a worker that sent nothing fails at its first, w
        results, errors = [None] * n, {}
        for w, (pid, read) in enumerate(children):
            with open(read, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children[w] = (None, read)  # reaped
            if code != 0 or not data:
                errors[w] = RuntimeError(f"fork_map worker {w} (pid {pid}) ended with "
                                         f"exit code {code} before sending its results")
                continue
            done, error = pickle.loads(data)
            results[w:w + workers * len(done):workers] = done
            if error is not None:
                errors[error[0]] = error[1]
        if errors:
            raise errors[min(errors)]
        return results
    finally:
        for pid, read in children:
            os.close(read)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
