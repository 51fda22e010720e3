"""Machine-speed calibration: the benchmark's reference second.

The benchmark machine is a shared virtual machine whose speed drifts by up
to 2x over minutes, with process CPU time drifting alongside wall time.
Every timed op is therefore bracketed by runs of ``reference_work``,
a fixed piece of interpreter work shaped like the program's hot path
(small dicts and tuples, sorting, complex arithmetic), and reported in
reference seconds:

    wall_s * REFERENCE_S / (mean reference_work time around it)

that is, the time the op would have taken on a machine where
``reference_work`` takes ``REFERENCE_S``.  Editing ``reference_work`` or
``REFERENCE_S`` changes every reported time, so both stay as they are.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.04
_ROUNDS = 15000


def reference_work() -> int:
    acc: dict = {}
    for i in range(_ROUNDS):
        key = tuple(sorted({(f"p{i % 7}", i % 3): 1, (f"p{i % 5}", 2): i % 4}.items()))
        acc[key] = acc.get(key, 0j) + complex(i, 1.0) * 0.5
    return len(acc)


def calibrate() -> float:
    """Wall seconds of one ``reference_work`` run, with the collector off so
    that objects the program left alive cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def to_reference(wall_s: float, ref_s: float) -> float:
    """Scale a wall time measured while ``reference_work`` took ``ref_s``."""
    return wall_s * REFERENCE_S / ref_s
