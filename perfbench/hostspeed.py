"""How fast the host runs right now, measured on a fixed reference task.

The benchmark runs on a few cores of a shared host whose speed changes by up
to a factor of two within a minute, as other tenants come and go; a pass of
the pinned corpus takes anywhere from 1.5 to 2.9 s, and CPU time moves with
wall time, so the slowdown is not the scheduler but every instruction taking
longer.  A timing taken over one run then measures the host as much as the
program.

This module times a small, fixed, pure-Python reference task while the
program runs.  ``SpeedSampler`` interrupts the worker every
``SAMPLE_INTERVAL_S`` of wall time and runs one reference chunk in the signal
handler, so the host speed is sampled evenly through the pass, in the same
process and on the same core as the program.  ``speed`` is the mean chunk
time over ``REFERENCE_CHUNK_S``: 1.0 at the reference speed, 2.0 when the
host runs at half of it.  A time divided by ``speed`` is the time the same
work takes at the reference speed.  The reference task is part of the
benchmark and never calls germlab, so a change to germlab moves the program's
time and not the reference.

Set-up (starting an interpreter, importing, loading) slows less than
interpreted loops do when the host is busy, so set-up times are scaled by a
reference of their own kind instead: ``reference_start`` times a fresh
interpreter that imports numpy, against ``REFERENCE_START_S``.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

# Typical times of one reference chunk and one reference start on the 2-core
# Intel Xeon host (Python 3.11, numpy 2) the benchmark was written on: the
# speed that the reported times are scaled to.
REFERENCE_CHUNK_S = 0.002
REFERENCE_START_S = 0.12
SAMPLE_INTERVAL_S = 0.1
TRACE_CHUNKS = 20
START_REFERENCE = ("-c", "import json, numpy")

_MAPS = tuple(tuple((i * 7 + k) % 11 if (i + k) % 3 else -1 for i in range(11))
              for k in range(24))


def reference_chunk() -> float:
    """Run the fixed reference task once; return its wall time in seconds.

    It composes partial maps and counts into a dict, the tuple, list and
    dict work that germlab's table-driven checks are made of.
    """
    start = time.perf_counter()
    seen = set()
    for a in _MAPS:
        for b in _MAPS:
            seen.add(tuple(b[x] if x >= 0 else -1 for x in a))
    counts: dict[int, int] = {}
    for i in range(6000):
        key = i * 31 % 997
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def speed(chunks: list[float]) -> float:
    """Host slowness from chunk times: 1.0 at the reference speed."""
    return statistics.fmean(chunks) / REFERENCE_CHUNK_S


def measure_now(n: int = TRACE_CHUNKS) -> list[float]:
    """Chunk times of n back-to-back reference chunks."""
    return [reference_chunk() for _ in range(n)]


def reference_start(env: dict, timeout: float) -> float:
    """Wall time of starting an interpreter that imports numpy, in env."""
    start = time.monotonic()
    # Pipes, as the workers have: without them, waiting with a timeout polls
    # and rounds the time up to 50 ms steps.
    subprocess.run([sys.executable, *START_REFERENCE], env=env, check=True,
                   capture_output=True, timeout=timeout)
    return time.monotonic() - start


class SpeedSampler:
    """Run a reference chunk every SAMPLE_INTERVAL_S of wall time inside a block.

    ``chunks`` holds the chunk times and ``busy_s`` the wall time the chunks
    took, which the caller subtracts from the block's wall time.  Uses
    SIGALRM, so only the main thread of a process without other timers may
    use it.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.chunks: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.chunks.append(reference_chunk())
        self.busy_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if len(self.chunks) < 2:  # a block shorter than two intervals
            self.chunks += measure_now(2)  # after the block: not in busy_s
