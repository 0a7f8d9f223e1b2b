"""A fixed computation that measures how fast the machine runs right now.

The machine the benchmark runs on is shared: its speed moves by up to 1.5x,
between speed states a few seconds apart and in slow drifts over minutes,
and the workloads slow down with it (see README.md, "Noise").  A yardstick
unit is a fixed piece of work that does not touch quantact.  Timed between
the repetitions of a workload, it measures the speed of that stretch of
time, and ``REFERENCE_S`` is its time at the reference speed.  A time ``t``
measured while units take ``u`` seconds on average is ``t * REFERENCE_S[kind]
/ u`` seconds at the reference speed.

There are two kinds, chosen to slow down like the work they stand for:
``python`` (dict, tuple and integer work, like the exact algebra) and
``numpy`` (2-D FFTs and complex exponentials, like the grid realization).
"""

from __future__ import annotations

import time

# unit times at the reference speed: about the median unit times inside the
# benchmark's worker processes on a 2-CPU Intel Xeon container with
# Python 3.11.7 and numpy 2.4.6
REFERENCE_S = {"python": 0.038, "numpy": 0.036}


def python_unit():
    table = {}
    for i in range(100_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * 3 // 7
    return table


def numpy_unit():
    # the grid is made afresh and numpy.random is not used, so that the
    # unit leaves nothing behind that would add to peak_rss_mb
    import numpy as np
    k = np.arange(256 * 256, dtype=float).reshape(256, 256)
    grid = np.cos(0.37 * k) + 1j * np.sin(0.11 * k)
    for _ in range(8):
        np.fft.ifft2(np.fft.fft2(grid) * np.exp(1j * grid.real))


UNITS = {"python": python_unit, "numpy": numpy_unit}


def measure(kind, units):
    """Run ``units`` units of ``kind``; return the time of each."""
    unit = UNITS[kind]
    times = []
    for _ in range(units):
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return times


def at_reference(seconds, kind, unit_times):
    """``seconds`` measured while units of ``kind`` took ``unit_times``,
    converted to seconds at the reference speed."""
    return seconds * REFERENCE_S[kind] * len(unit_times) / sum(unit_times)
