"""Fixed reference kernels that track the host's speed.

On a shared virtual machine the same code runs up to 2x slower for minutes
at a time, because of what other tenants run.  Timing a fixed kernel right
before and right after each measured operation tells how fast the host was
during it; an operation's time divided by the kernel's time cancels most of
that drift.  The kernels never call the program, so a change to the program
moves the operation's time and not the kernel's.

A slow spell does not slow all code alike, so each workload uses the kernel
closest to its own work: ``"python"`` (object and dict work in the
interpreter) for the many small trials of the registry, ``"array"`` (large
numpy arrays) for the single-hop engine's per-slot arrays.

:func:`rescaled` turns an operation's time and the kernel's time around it
into seconds at the speed the kernel's reference time was measured at, so
rescaled times read like host seconds.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, Tuple

import numpy as np


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _python_kernel() -> int:
    """Object creation, attribute reads, tuple-keyed dict writes and a sort."""

    table = {}
    for item in [_Item(i, 3 * i) for i in range(3000)]:
        table[(item.a, item.b & 7)] = item.a + item.b
    total = 0
    for (_, low), value in sorted(table.items()):
        total += value if low else -value
    return total


def _array_kernel() -> int:
    """Random draws, a mask, a gather, a prefix sum and a sort over large arrays."""

    draws = np.random.default_rng(5).random(2_000_000)
    picked = draws[np.flatnonzero(draws < 0.3)]
    return int(np.cumsum(picked).size) + int(np.count_nonzero(np.sort(draws[:500_000]) > 0.5))


KERNELS: Dict[str, Tuple[Callable[[], int], int, float]] = {
    "python": (_python_kernel, 3, 0.0025),
    "array": (_array_kernel, 1, 0.03),
}
"""Kernel name -> (kernel, repeats per timing, reference seconds per repeat).

A reference time is about the kernel's time on a 2-vCPU Intel Xeon virtual
machine at 2.0 GHz.  It only sets the scale of rescaled times; comparisons
between commits do not depend on it."""


def kernel_seconds(kind: str) -> float:
    """Time of one repeat of kernel ``kind`` now, with the garbage collector paused.

    Pausing the collector keeps the kernel's time independent of how many
    objects the program holds.
    """

    kernel, repeats, _ = KERNELS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            kernel()
        return (time.perf_counter() - start) / repeats
    finally:
        if enabled:
            gc.enable()


def rescaled(operation_s: float, kernel_s: float, kind: str) -> float:
    """``operation_s`` at the reference host speed, given kernel ``kind``'s time around it."""

    return operation_s * KERNELS[kind][2] / kernel_s
