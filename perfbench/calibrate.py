"""Machine-speed probe for a shared machine whose speed drifts.

On the baseline machine (a shared 2-vCPU virtual machine) every kind of
work, interpreted or numpy, runs up to 30% faster or slower for minutes at
a time, so raw times from runs half an hour apart differ by more than any
sensible regression bound.  The probe times five fixed pieces of work that
never call treedep, one per kind of work the workloads do, and reports the
median of their slowdowns against this machine's reference times.  The
median ignores a piece that one kind of contention (memory bandwidth, say)
slows on its own.  The runner probes before every pass and every set-up
process and divides the time metrics by the run's median slowdown: the
machine's drift cancels, a change in treedep's own cost does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np
from scipy.special import ndtr, ndtri

_CACHED = np.linspace(1e-6, 1 - 1e-6, 16_384)
_LARGE = np.linspace(-3.0, 3.0, 4225 * 128).reshape(4225, 128)
_SHUFFLED = np.random.default_rng(0).random(65_536)


def _rationals():
    total = Fraction(0)
    for i in range(1, 2200):
        total += Fraction(1, i)


def _interpreter():
    acc = 0
    for i in range(200_000):
        acc += i * i


def _special_functions():
    for _ in range(30):
        ndtr(ndtri(_CACHED) * 0.5)


def _large_arrays():
    for _ in range(20):
        np.exp(_LARGE)


def _sorting():
    for _ in range(30):
        np.sort(_SHUFFLED)


# (piece, its median time in seconds on the baseline machine; see baseline.json)
PIECES = (
    (_rationals, 0.0115),
    (_interpreter, 0.0167),
    (_special_functions, 0.0150),
    (_large_arrays, 0.0151),
    (_sorting, 0.0141),
)


def piece_times() -> list[float]:
    times = []
    for piece, _ in PIECES:
        start = time.perf_counter()
        piece()
        times.append(time.perf_counter() - start)
    return times


def probe() -> float:
    """Current slowdown of the machine against the baseline (1.0 = as fast)."""
    return statistics.median(t / ref for t, (_, ref) in zip(piece_times(), PIECES))
