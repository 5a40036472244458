"""Clocks, the timed loop and the statistics every workload shares."""

from __future__ import annotations

import ctypes
import gc
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """CPU time of this process (every thread) plus its reaped children.

    Children count once they have been waited for; the cluster backend
    joins every worker before ``run_partitioned`` returns.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Outcome:
    """What checking one operation found.

    ``attempted`` counts user-visible operations (1 for a pipeline call
    or a statement, the job count for a CasJobs batch); ``failed``
    counts wrong answers plus jobs that failed, were shed or were
    dead-lettered.  ``facts`` carries per-operation numbers that the
    traced run turns into per-layer metrics.
    """

    attempted: int = 1
    failed: int = 0
    facts: dict = field(default_factory=dict)


@dataclass
class Sample:
    """One timed operation."""

    wall_s: float
    cpu_s: float
    outcome: Outcome


def measure(
    run_op: Callable[[], object],
    check: Callable[[object], Outcome],
    seconds: float,
    min_ops: int,
) -> list[Sample]:
    """Run operations back to back for ``seconds`` (and at least
    ``min_ops`` of them); only ``run_op`` is inside the timers, the
    answer check runs after the clocks stop."""
    samples: list[Sample] = []
    began = time.perf_counter()
    while len(samples) < min_ops or time.perf_counter() - began < seconds:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        result = run_op()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        samples.append(Sample(wall, cpu, check(result)))
    return samples


def release_free_memory() -> None:
    """Collect garbage and hand freed heap pages back to the kernel, so
    the resident set holds live data and not what set-up left behind."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


def forked_peak_rss_mb(fn: Callable[[], object]) -> float:
    """Run ``fn`` once in a forked copy of this process and return that
    copy's peak resident set size in MiB.

    The kernel tracks the high-water mark exactly, and a fresh process
    starts its own, so the figure is the live data the operation starts
    from plus everything it allocates, with no sampling and no slowdown
    (tracemalloc made these operations 3 to 17 times slower).
    """
    release_free_memory()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the copy: run, report, leave without cleanup handlers
        status = 1
        try:
            os.close(read_end)
            fn()
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            os.write(write_end, str(peak_kib).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
            raise
        finally:
            os._exit(status)  # never return into the parent's code
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        reported = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not reported:
        raise RuntimeError(f"memory probe process failed (status {status})")
    return int(reported) / 1024.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    values = np.asarray(list(values), dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0
