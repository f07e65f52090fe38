"""One loop of independent items, spread over forked processes.

`spread(work, n, workers)` returns `[work(i) for i in range(n)]`. With
more than one worker it forks children for contiguous shares of the
range, and each pickles its results back through a pipe. The parent
computes whatever no child sent, so the results and the first exception
in order are those of the serial loop. `graph.all_pairs_geodesic` spreads
its rows with it, and `cli` its classical edge loop. Only a run that
spreads imports this module, and with it `pickle`.
"""

from __future__ import annotations

import os
import pickle
import signal


def _forkable() -> bool:
    """True when this process may fork workers: os.fork exists and the
    process runs one OS thread. A fork copies only the thread that calls
    it, so a lock another thread holds (a threaded BLAS's, say) would stay
    held in the child. The threads are counted under /proc; where that
    cannot be read, nothing forks."""
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _place(j: int) -> None:
    """Move this process to the j-th CPU it may run on (modulo their count),
    then let it run on all of them again. A kernel may leave a fresh child
    on its parent's CPU while another idles, and then two shares take as
    long as one process would; placed apart they start apart."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(cpus)[j % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass    # not allowed, or a CPU taken away meanwhile: stay put


def spread(work, n: int, workers: int) -> list:
    """[work(i) for i in range(n)], computed by up to `workers` processes.

    The range is cut into contiguous shares of equal count. With more
    than one share and a process that may fork (`_forkable`), each share
    but the first goes to a forked child, which runs `work` over it and
    pickles back through a pipe the results it reached: all of them, or
    those before the first item whose `work` raised. The parent computes
    the first share meanwhile, then reads the children in order and
    computes itself every item a child did not send: after a child's
    error, so that it raises the error itself at the first failing item
    in order; and the whole share of a child that exited without a
    payload or could not be forked. So the result, and the exception
    raised, are those of the serial loop. Every child is reaped before
    this returns or raises; one whose share is no longer needed is killed.
    """
    k = min(workers, n)
    if k <= 1 or not _forkable():
        return [work(i) for i in range(n)]
    bounds = [n * j // k for j in range(k + 1)]
    children = {}    # share -> (pid, the pipe's read end)
    try:
        for j in range(1, k):
            try:
                r, w = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                status = 1
                try:
                    _place(j)
                    os.close(r)
                    got = []
                    try:
                        for i in range(bounds[j], bounds[j + 1]):
                            got.append(work(i))
                    except Exception:
                        pass    # the parent meets the error when it computes item i
                    with open(w, "wb") as pipe:
                        pickle.dump(got, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[j] = (pid, open(r, "rb"))
        _place(0)
        results = [work(i) for i in range(bounds[1])]
        for j in range(1, k):
            got = []
            if j in children:
                pid, pipe = children[j]
                data = pipe.read()
                pipe.close()
                status = os.waitpid(pid, 0)[1]
                del children[j]
                if data and os.waitstatus_to_exitcode(status) == 0:
                    got = pickle.loads(data)    # bytes this function's child wrote
            results += got
            results += [work(i) for i in range(bounds[j] + len(got), bounds[j + 1])]
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
