"""Host-speed calibration: a fixed CPU kernel owned by the benchmark.

On a shared VM the same work can take twice the CPU time minutes later
(set-up of a fresh process measured 0.26 s in one ten-run set and
0.49 s in the next). Each process that reports a time also times this
kernel, and the gated times are scaled by ``REFERENCE_S / kernel
time``: seconds on a host running the kernel in ``REFERENCE_S``. The
kernel imports nothing from the program, so no change to the program
can change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU seconds of one kernel pass on a shared 2-vCPU x86-64 VM (median
#: of its faster state); only the unit of the scaled times depends on it.
REFERENCE_S = 0.025


def _kernel_pass() -> None:
    """Parse, tally and sort like the program does: strings, ints and
    dicts in the interpreter, then a few numpy array operations."""
    counts: dict[int, int] = {}
    for i in range(20_000):
        line = f"{i * 7}: {'W' if i % 3 == 0 else 'R'} {(i * 2654435761) % 65536:#x} 4"
        fields = line.replace(":", " ").split()
        word = int(fields[2], 16) // 4
        counts[word] = counts.get(word, 0) + 1
    tallies = np.fromiter(counts.values(), dtype=np.int64)
    np.unique(np.repeat(tallies, 16), return_counts=True)


def kernel_cpu_s(passes: int = 9) -> float:
    """Median CPU time of ``passes`` kernel passes in this process."""
    times = []
    for _ in range(passes):
        t0 = time.process_time()
        _kernel_pass()
        times.append(time.process_time() - t0)
    return statistics.median(times)
