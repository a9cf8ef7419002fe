"""Machine-speed calibration for verdict times.

The benchmark runs on shared machines whose speed drifts by a third
within seconds and between minutes, for every process at once. A fixed
kernel of benchmark code, timed right before and right after each
verdict, measures the machine's speed at that moment; a verdict's time
is scaled by ``REFERENCE_S`` over that measurement. The kernel does what
the package's Python does most (enum-keyed dict lookups, small tuples,
dict and list building) and imports nothing from the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

import time
from enum import Enum

# The kernel's time on the reference machine: a 2-CPU x86-64 VM,
# Python 3.11.7, in its fast state. Scaled times are wall times there.
REFERENCE_S = 0.0032


class _Atom(Enum):
    I = 0
    X = 1
    Z = 2
    Y = 3


_BITS = {_Atom.I: (0, 0), _Atom.X: (1, 0), _Atom.Z: (0, 1), _Atom.Y: (1, 1)}
_ATOMS = list(_Atom) * 50


def _kernel() -> int:
    acc = 0
    for _ in range(60):
        bits = tuple(_BITS[a] for a in _ATOMS)
        acc += sum(x ^ z for x, z in bits)
        table = {i: (i, 2 * i) for i in range(100)}
        acc += len([v for v in table.values() if v[1] % 3])
    return acc


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` as it would read on the reference machine."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
