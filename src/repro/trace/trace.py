"""Memory traces: access sequences annotated with read/write direction.

The placement algorithms only need the access *order*; the RTM simulator
additionally needs to know which accesses are writes to price read vs
write energy and latency (Table I differentiates the two).

Every trace the simulator replays — the in-memory :class:`MemoryTrace`
here and the disk-backed
:class:`~repro.trace.streaming.StreamingTrace` — speaks one protocol:
``variables`` (the universe), ``len()``, :meth:`~MemoryTrace.chunks`
(read-only :class:`TraceChunk`\\ s of at most :data:`REPLAY_CHUNK`
accesses) and :meth:`~MemoryTrace.placement_sequence` (the
:class:`AccessSequence` placement policies see), and
:func:`trace_operations` walks either one access at a time. Only the
in-memory trace also exposes its whole ``sequence`` and ``writes``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng

#: Most accesses an in-memory trace serves per replay chunk (~9 MiB of
#: codes and writes), large enough that chunking overhead is noise.
REPLAY_CHUNK = 1 << 20


@dataclass(frozen=True)
class TraceChunk:
    """One fixed-size slice of a trace, as the replay loop consumes it.

    ``codes`` are int64 indices into the trace's variable universe,
    ``writes`` the aligned bool mask; both read-only. ``start`` is the
    chunk's offset into the trace's access stream.
    """

    start: int
    codes: np.ndarray
    writes: np.ndarray

    def __len__(self) -> int:
        return int(self.codes.size)


class MemoryTrace:
    """An :class:`AccessSequence` plus a per-access write flag.

    The default construction marks the *first* access of every variable as
    a write (a value must be produced before it can be consumed) and all
    subsequent accesses as reads; generators can override this with an
    explicit mask or a stochastic write ratio.
    """

    __slots__ = ("_seq", "_writes")

    def __init__(
        self,
        sequence: AccessSequence,
        writes: Sequence[bool] | np.ndarray | None = None,
    ) -> None:
        if writes is None:
            writes = _first_access_writes(sequence)
        writes = np.asarray(writes, dtype=bool)
        if writes.shape != (len(sequence),):
            raise TraceError(
                f"writes mask has shape {writes.shape}, expected ({len(sequence)},)"
            )
        if writes.flags.writeable:
            # Freeze by copy so later caller mutations cannot leak in.
            # Already-read-only masks (shared-memory views rehydrated by
            # the arena, another trace's mask) are adopted zero-copy.
            writes = writes.copy()
            writes.setflags(write=False)
        self._seq = sequence
        self._writes = writes

    @classmethod
    def from_accesses(
        cls,
        accesses: Sequence[str],
        variables: Sequence[str] | None = None,
        writes: Sequence[bool] | None = None,
        name: str = "",
    ) -> "MemoryTrace":
        return cls(AccessSequence(accesses, variables=variables, name=name), writes)

    @classmethod
    def with_write_ratio(
        cls,
        sequence: AccessSequence,
        write_ratio: float,
        rng: int | np.random.Generator | None = None,
    ) -> "MemoryTrace":
        """Mark first accesses as writes plus a random fraction of the rest."""
        if not 0.0 <= write_ratio <= 1.0:
            raise TraceError(f"write_ratio must be in [0, 1], got {write_ratio}")
        gen = ensure_rng(rng)
        writes = _first_access_writes(sequence)
        rest = ~writes
        writes[rest] = gen.random(int(rest.sum())) < write_ratio
        return cls(sequence, writes)

    # -- protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._seq)

    def __repr__(self) -> str:
        return (
            f"<MemoryTrace {self._seq.name!r}: {len(self)} accesses, "
            f"{self.num_writes} writes>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryTrace):
            return NotImplemented
        return self._seq == other._seq and np.array_equal(self._writes, other._writes)

    def __hash__(self) -> int:
        # Immutable (frozen mask, immutable sequence), so hashing by
        # content is sound; lets traces key the engine's compile caches.
        return hash((self._seq, self._writes.tobytes()))

    # -- accessors -----------------------------------------------------------

    @property
    def sequence(self) -> AccessSequence:
        return self._seq

    @property
    def name(self) -> str:
        return self._seq.name

    @property
    def variables(self) -> tuple[str, ...]:
        return self._seq.variables

    @property
    def writes(self) -> np.ndarray:
        """Boolean mask, True where the access is a write."""
        return self._writes

    @property
    def num_writes(self) -> int:
        return int(self._writes.sum())

    @property
    def num_reads(self) -> int:
        return len(self) - self.num_writes

    # -- replay protocol -----------------------------------------------------

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield the trace as read-only views of at most
        :data:`REPLAY_CHUNK` accesses (no copies)."""
        codes, writes = self._seq.codes, self._writes
        step = REPLAY_CHUNK
        for start in range(0, len(codes), step):
            yield TraceChunk(
                start=start,
                codes=codes[start:start + step],
                writes=writes[start:start + step],
            )

    def placement_sequence(self) -> AccessSequence:
        """The sequence placement policies see: the whole trace."""
        return self._seq


def trace_operations(trace) -> Iterator[tuple[str, bool]]:
    """``(variable, is_write)`` per access of any trace, in order.

    It reads only ``variables`` and ``chunks()``, so the per-access
    controllers (swapping, pre-shifting) that replay through it take an
    in-memory or a streamed trace alike, as the simulator does.
    """
    variables = trace.variables
    for chunk in trace.chunks():
        for code, is_write in zip(chunk.codes.tolist(), chunk.writes.tolist()):
            yield variables[code], is_write


def _first_access_writes(sequence: AccessSequence) -> np.ndarray:
    writes = np.zeros(len(sequence), dtype=bool)
    seen: set[int] = set()
    for i, code in enumerate(sequence.codes):
        c = int(code)
        if c not in seen:
            seen.add(c)
            writes[i] = True
    return writes
