"""The machine-speed probe that every timing metric is normalised by.

On a small shared VM the speed of fixed work wanders by 15-50% over
seconds to minutes, and the process's CPU time follows its wall time, so
neither clock alone gives a steady figure. The probe is a fixed piece of
work of the kind the program does (Python float arithmetic, float
formatting, small numpy calls) that takes about 2 ms. It runs just
before and just after each timed unit, and the unit's time is scaled by
REFERENCE_S over the probes' mean: a unit that ran while the machine was
slow is scaled down by as much as the probe was slowed.

Normalised times are seconds at the reference speed, the speed at which
the probe takes REFERENCE_S. A change to the program moves them in
proportion, as it moves raw times; the probe itself is benchmark code,
untouched by the program.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The probe's median time on the reference machine (2-vCPU VM, Python
# 3.11.7, numpy 2.4.6). It only sets the scale; it need not match the
# machine the benchmark runs on.
REFERENCE_S = 1.8e-3
# Kernel runs per probe; the probe is their median, so that one
# preemption inside a run does not skew it.
PROBE_RUNS = 5

_ARRAY = np.linspace(-1.0, 1.0, 64)


def _kernel() -> float:
    start = perf_counter()
    acc, parts = 0.0, []
    for i in range(6000):
        acc += (i * 0.5) / (i + 1.0) - acc * 1e-3
        if i % 8 == 0:
            parts.append("%r" % acc)
        if i % 64 == 0:
            acc += float(_ARRAY.sum())
    ",".join(parts)
    return perf_counter() - start


def probe() -> float:
    """Seconds the probe's fixed work takes at the machine's current speed."""
    return sorted(_kernel() for _ in range(PROBE_RUNS))[PROBE_RUNS // 2]


def normalise(seconds: float, before: float, after: float) -> float:
    """`seconds` of work bracketed by probes of `before` and `after`
    seconds, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
