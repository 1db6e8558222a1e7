"""Scaling measured times to a reference host speed.

The speed of a shared host drifts: on the 2-core machine the bounds in
``BENCHMARK.json`` were set on, a fixed pure-Python loop ran up to 1.6x
slower for phases of seconds to minutes, with process CPU time rising in
step (the host runs slower; the process is not descheduled).  So every
measured interval is scaled by the host speed seen while it ran: a fixed
loop is timed just before and just after the interval and, from a timer
signal, every ``SAMPLE_EVERY_S`` inside it.  The loop does the package's
kind of work (small dicts keyed by tuples, integer arithmetic, rebuilding
and sorting): in a noisy phase the package's operation times followed its
slowdown with exponent 1.0, against 1.37 for a plain integer loop, which
left scaled times rising with the slowdown (both were near 1 when quiet).  The interval is multiplied by
``REF_S_PER_ITER`` over the seconds per iteration of all those loops
together (so short intervals rest on the long loops around them and long
intervals on the many samples inside them).
Scaled times are seconds on a host where the loop takes ``REF_S_PER_ITER``
per iteration; the time spent in the signal handler is not counted.
"""

from __future__ import annotations

import signal
import time

REF_ITERS = 8_000  # loop timed between two measured intervals
SAMPLE_ITERS = 100  # loop timed from the timer signal
SAMPLE_EVERY_S = 0.01
REF_S_PER_ITER = 1.25e-6


def _loop(n: int) -> float:
    """Time ``n`` iterations (a multiple of 50, so each costs the same)."""
    start = time.perf_counter()
    d = {}
    for i in range(n):
        e = (i % 7, i % 5, i % 3)
        d[e] = d.get(e, 0) + i * 3
        if i % 50 == 49:
            d = {k: v // 2 for k, v in sorted(d.items())}
    return time.perf_counter() - start


class SpeedMeter:
    """Times intervals and scales them to the reference speed.

    Use as a context manager around a sequence of ``start()`` / ``stop()``
    pairs; ``scale_around(raw)`` scales a time measured elsewhere (a child
    process) by loops timed before and after it.
    """

    def __init__(self):
        self._samples = 0  # timer samples taken so far
        self._paused = 0.0  # time spent in them
        self._before = None
        self._mark = (0, 0.0, 0.0)

    def _on_timer(self, signum, frame):
        self._paused += _loop(SAMPLE_ITERS)
        self._samples += 1

    def _between(self) -> float:
        paused = self._paused
        return _loop(REF_ITERS) - (self._paused - paused)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._before = self._between()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def start(self) -> None:
        self._mark = (self._samples, self._paused, time.perf_counter())

    def stop(self) -> tuple[float, float]:
        """``(raw, scaled)`` seconds since ``start()``, handler time excluded."""
        end = time.perf_counter()
        n0, paused0, t0 = self._mark
        inside = self._paused - paused0
        raw = end - t0 - inside
        after = self._between()
        iters = 2 * REF_ITERS + (self._samples - n0) * SAMPLE_ITERS
        speed = (self._before + after + inside) / iters
        self._before = after
        return raw, raw * REF_S_PER_ITER / speed

    @staticmethod
    def scale_around(measure):
        """Run ``measure()`` (returning raw seconds) between two loops."""
        before = _loop(REF_ITERS)
        raw = measure()
        after = _loop(REF_ITERS)
        return raw * REF_S_PER_ITER * 2 * REF_ITERS / (before + after)
