"""Process-pool fan-out for design-space exploration.

``parallel_map`` is the one primitive the oracle search, the sweep helpers
and the figure drivers share: map a picklable function over a work list on a
``concurrent.futures`` process pool, preserving input order (results are
bit-identical to the serial path, just reordered in time), chunking the list
to amortize IPC, and falling back to plain serial iteration whenever a pool
cannot be had (single job, one item, or a sandbox that forbids forking).

Exceptions raised *by the work function* propagate unchanged — only pool
infrastructure failures trigger the serial fallback, and the fallback
recomputes everything serially so results stay correct either way.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.errors import ConfigError
from repro.perf.instrument import PERF

__all__ = [
    "parallel_map",
    "resolve_jobs",
    "set_default_jobs",
    "get_default_jobs",
]

T = TypeVar("T")
R = TypeVar("R")

#: process-wide default worker count, set by the CLI's --jobs flag
_default_jobs = 1


def set_default_jobs(jobs: int) -> None:
    """Set the default worker count (``--jobs``); -1 means all CPUs."""
    global _default_jobs
    if jobs == 0:
        raise ConfigError("jobs must be nonzero (use -1 for all CPUs)")
    _default_jobs = jobs


def get_default_jobs() -> int:
    return _default_jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count.

    ``None`` defers to the process-wide default; any negative value means
    "all CPUs".
    """
    if jobs is None:
        jobs = _default_jobs
    if jobs < 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[R]:
    """``[fn(x) for x in items]`` — possibly on a process pool.

    Results come back in input order regardless of completion order, so
    parallel and serial runs are interchangeable.  With ``jobs <= 1`` (the
    default unless ``--jobs``/``set_default_jobs`` raised it) no pool is
    created at all.

    ``progress``, when given, is called as ``progress(done, total)`` in the
    *parent* process after each item's result becomes available, with
    ``done`` counting up 1..total in input order — so long sweeps can log
    advancement without perturbing results.  The callback never changes
    what is returned: results and their order are bit-identical with or
    without it.  An exception raised by the callback propagates (it is the
    caller's own code), exactly like one raised by ``fn``.
    """
    work = list(items)
    total = len(work)
    workers = min(resolve_jobs(jobs), total)

    def serial() -> List[R]:
        results: List[R] = []
        for item in work:
            results.append(fn(item))
            if progress is not None:
                progress(len(results), total)
        return results

    if workers <= 1:
        return serial()
    # imported here, so a process that never builds a pool never loads
    # concurrent.futures and multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # about four chunks per worker: few enough to amortize IPC, enough to
    # balance uneven items
    chunksize = max(1, total // (workers * 4))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if progress is None:
                return list(pool.map(fn, work, chunksize=chunksize))
            # pool.map yields in input order as results complete, so the
            # callback sees the same 1..total sequence the serial path does
            results = []
            for result in pool.map(fn, work, chunksize=chunksize):
                results.append(result)
                progress(len(results), total)
            return results
    except (OSError, ImportError, BrokenProcessPool, pickle.PicklingError):
        # no usable pool on this host (or the payload cannot cross the
        # process boundary) — degrade to the serial path
        PERF.incr("parallel_fallbacks")
        return serial()
