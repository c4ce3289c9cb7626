"""Host-speed probe: scales measured times to a quiet host.

The benchmark shares its machine's cores with other work it does not
control.  On the 2-core VM the baseline was taken on, the probe below takes
about 9.5 ms when the host is quiet and twice that or more in stretches that
last from seconds to over a minute.  CPU time slows the same way, and the
library's pure computation slows by about the same factor at the same
moment.  So even the fastest op of a run can be twice its quiet time, and
no run length averages the stretches out.

The probe is a fixed pure-Python loop of dictionary updates and integer bit
operations, the kind of work the library's inner loops do; it never touches
the library.  It runs before the first op and after every op.  The probe
runs in user mode only, so it measures how fast user-mode code runs: the
part of an op's time not spent in the kernel is multiplied by ``QUIET_S``
over the mean of the two probe times around it, and the op's kernel time
(page faults, file reads) is kept as measured.  A slower program shows in
full; a slower host mostly does not.
"""

from __future__ import annotations

import resource
from time import perf_counter

ROUNDS = 40_000
# The probe's time on the quiet baseline VM; it sets the scale of every
# scaled time, so scaled times read as that machine's quiet times.
QUIET_S = 0.0095


def probe() -> float:
    """Run the fixed loop once; return its wall time in seconds."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(ROUNDS):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= key << (i & 15)
    return perf_counter() - start


def factor(before: float, after: float) -> float:
    """The scale for user-mode time measured between two probes."""
    return 2.0 * QUIET_S / (before + after)


def kernel_time() -> float:
    """The process's CPU time in the kernel so far, in seconds."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


def scaled(wall: float, kernel: float, before: float, after: float) -> float:
    """``wall`` on a quiet host: its ``kernel`` part as measured, the rest
    scaled by the probes taken just before and just after it."""
    return (wall - kernel) * factor(before, after) + kernel
