"""Seeded inputs: the gem5-style address trace of the trace workloads.

The harness writes the trace before any measurement starts; the program
only ever sees the resulting ``file:`` spec. Nothing here imports the
program, so input generation cannot change when the program does.
"""

from __future__ import annotations

import numpy as np

#: Raw lines (one access each) in the trace of the full-size workloads.
TRACE_LINES = 300_000
#: Distinct 4-byte words the trace touches.
TRACE_WORDS = 4096
#: Zipf exponent of word popularity: the 512 hottest words (the
#: ``max_vars=512`` cap of the trace workloads) take ~89% of accesses.
ZIPF_ALPHA = 1.2
WRITE_FRAC = 0.3
WORD_BYTES = 4
BASE_ADDR = 0x10000000


def write_address_trace(
    path: str, seed: int, lines: int = TRACE_LINES, words: int = TRACE_WORDS
) -> None:
    """Write ``lines`` accesses as ``tick: R|W 0xaddr size`` lines.

    Word popularity is zipf over ``words`` words; which word gets which
    rank, the access stream, the write flags and the tick gaps all come
    from ``seed``.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, words + 1, dtype=float) ** -ZIPF_ALPHA
    word_of_rank = rng.permutation(words)
    ranks = rng.choice(words, size=lines, p=weights / weights.sum())
    addrs = BASE_ADDR + word_of_rank[ranks].astype(np.int64) * WORD_BYTES
    writes = rng.random(lines) < WRITE_FRAC
    ticks = np.cumsum(rng.integers(1, 1000, size=lines))
    with open(path, "w", encoding="ascii") as f:
        f.writelines(
            f"{t}: {'W' if w else 'R'} {a:#x} {WORD_BYTES}\n"
            for t, w, a in zip(ticks.tolist(), writes.tolist(), addrs.tolist())
        )
