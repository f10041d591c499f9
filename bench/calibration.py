"""Host-speed calibration for the timed passes.

The benchmark runs on shared hosts whose speed drifts by up to a factor of
two for seconds or minutes at a time, so an op's wall time alone says as much
about the neighbours as about the package.  The benchmark therefore times a
fixed pure-Python kernel right after every op and every launch.  Dividing
the op's time by the kernel's time taken at the same moment cancels the
host's speed; multiplying by a reference kernel time puts the ratio back in
milliseconds: the time the op would take on a host where the kernel takes
that long.

The kernel uses only the standard library, so no change to the package can
change it.  It does the kinds of work the package does (frozen dataclasses,
float arithmetic over a truncated series, complex Horner evaluation, dicts,
canonical JSON), because a neighbour slows different kinds of code by
different amounts: without the Horner loop the kernel did not track the
disk layer, and a tight arithmetic loop alone tracked nothing well.
"""

from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import dataclass

# the kernel's typical time right after an op or a launch of the CLI on the
# 2-CPU host the baseline was recorded on; one kernel sample per
# SAMPLE_EVERY_MS of the op or launch before it, at most MAX_SAMPLES
REFERENCE_MS = 0.120
SAMPLE_EVERY_MS = 1.0
MAX_SAMPLES = 9


@dataclass(frozen=True)
class _Point:
    m: float
    k: float
    lam: float


def _evaluate(p: _Point) -> dict:
    terms = [math.exp(-p.m) * p.m ** n / math.factorial(n) * (1 + p.lam) ** (n % 3)
             for n in range(16)]
    lhs = sum(t * (n + 1) for n, t in enumerate(terms))
    return {"lhs": lhs, "rhs": 2 * p.k, "margin": 2 * p.k - lhs,
            "verdict": "Holds" if lhs < 2 * p.k else "Fails"}


def _horner(coeffs: list, z: complex) -> complex:
    w = 0j
    for a in reversed(coeffs):
        w = w * z + a
    return w


def kernel() -> str:
    w = _horner([1.0 / (n + 1) for n in range(200)], complex(0.6, 0.5))
    rows = [_evaluate(_Point(0.1 * (i + 1), 0.5, 0.2)) for i in range(6)]
    return json.dumps({"rows": rows, "w": [w.real, w.imag]}, sort_keys=True)


def kernel_ns() -> int:
    """One timed run of the kernel, with the garbage collector held off so
    that a collection of the package's garbage never lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def kernel_after(elapsed_ns: float) -> list:
    """Kernel times sampled right after an op that took elapsed_ns: one per
    SAMPLE_EVERY_MS of the op, at least one and at most MAX_SAMPLES.  A long
    op makes few repeats in a run, so it needs more samples each."""
    count = min(MAX_SAMPLES, 1 + int(elapsed_ns / (SAMPLE_EVERY_MS * 1e6)))
    return [kernel_ns() for _ in range(count)]
