"""Timings scaled to a reference host speed.

On a shared machine the speed at which the same instructions run drifts by
20-50 % within seconds, as other tenants load the host.  A fixed reference
kernel, run around (and inside) each timed sample, measures that speed;
the sample is then multiplied by ``REFERENCE_S`` over the mean kernel time
of its own probes.  A scaled time reads as the wall time the work would
have taken with the kernel running at its reference speed.  The kernel does
not touch pqstream, so a change to the program moves scaled times exactly
as it moves raw ones.

The kernel mixes interpreter work (dict updates, float conversion) with
small NumPy reductions, as the program's per-frame and per-row loops do.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: The kernel's time on the 2-core x86-64 host of the reference figures when other
#: tenants leave it alone (the 10th percentile of 400 probes), with one BLAS thread.
REFERENCE_S = 2.0e-3
#: Interval of the probes run inside long calls (see :func:`timed`).
INTERVAL_S = 0.05

_SAMPLES = np.linspace(-1.0, 1.0, 3 * 640).reshape(3, 640)


def _kernel() -> None:
    acc: dict[int, float] = {}
    row = _SAMPLES[0]
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0.0) + float(row[i % 640])
    for _ in range(150):
        np.sqrt(np.mean(np.square(_SAMPLES), axis=-1))


def probe(repeat: int = 1) -> float:
    """Seconds the reference kernel takes now (the median of ``repeat`` runs)."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def scaled(seconds: float, kernel_s: list[float]) -> float:
    """``seconds`` at the reference speed, given the kernel times taken around and in them."""
    return seconds * REFERENCE_S * len(kernel_s) / sum(kernel_s)


class _Sampler:
    """SIGALRM handler that runs the kernel every ``INTERVAL_S`` inside a long call."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def __call__(self, signum, frame) -> None:
        self.times.append(probe())


def timed(fn, *args, repeat: int = 1, cpu: bool = False, during: bool = False):
    """Call ``fn``; returns (result, seconds, kernel times around and inside it).

    The kernel runs ``repeat`` times before and after the call.  With
    ``during`` it also runs every ``INTERVAL_S`` inside the call, from a
    SIGALRM handler between bytecodes, so that the kernel times also cover
    the seconds the call lasted; the time those probes took is left out of
    the call's seconds.  System calls interrupted by the alarm restart.
    With ``cpu`` the seconds are the process's CPU time.
    """
    clock = time.process_time if cpu else time.perf_counter
    sampler = _Sampler()
    before = probe(repeat)
    if during:
        previous = signal.signal(signal.SIGALRM, sampler)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = clock()
    try:
        out = fn(*args)
    finally:
        dt = clock() - t0
        if during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    after = probe(repeat)
    return out, dt - sum(sampler.times), [before, *sampler.times, after]
