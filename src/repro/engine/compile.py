"""Compilation layer: (trace, placement) → engine arrays, with caching.

The engine consumes flat per-access ``(dbc, slot)`` arrays; this module
produces them from the library's high-level objects and memoizes the
results. Both :class:`~repro.trace.sequence.AccessSequence` and
:class:`~repro.core.placement.Placement` are immutable and hashable, so
``lru_cache`` keys are sound; the arrays are frozen before caching so
sharing them is safe.

Only duck-typed protocols are used (``sequence.codes``,
``placement.as_arrays``) — the engine package never imports the core or
trace packages, keeping the dependency graph acyclic.

:func:`trace_fingerprint` is the content identity used by the matrix
runner's result cache: two traces with equal variables, access codes and
write masks are the same workload wherever they came from.

:class:`SharedTraceArena` extends that identity across processes: the
matrix runner serializes each unique trace's arrays once into a
``multiprocessing.shared_memory`` block, and pool workers attach
read-only zero-copy views keyed by fingerprint instead of receiving a
pickled copy of the whole suite. The arena's *rehydration* path is the
one place this module touches the trace package — via a function-level
import, keeping the module-level dependency graph acyclic.
"""

from __future__ import annotations

import atexit
import hashlib
import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

logger = logging.getLogger(__name__)


@lru_cache(maxsize=1024)
def compile_access_arrays(sequence, placement) -> tuple[np.ndarray, np.ndarray]:
    """Per-access ``(dbc, slot)`` int64 arrays for a sequence under a placement.

    Cached on the (immutable) argument pair, so sweeping many geometries
    or policies over the same compiled cell is free after the first call.
    The returned arrays are read-only; copy before mutating.
    """
    dbc_of, pos_of = placement.as_arrays(sequence)
    codes = sequence.codes
    dbc = np.ascontiguousarray(dbc_of[codes], dtype=np.int64)
    slot = np.ascontiguousarray(pos_of[codes], dtype=np.int64)
    dbc.setflags(write=False)
    slot.setflags(write=False)
    return dbc, slot


@lru_cache(maxsize=2048)
def trace_fingerprint(trace) -> str:
    """Stable content digest of a memory trace (hex SHA-256).

    Depends only on the variable universe, the access codes and the
    write mask — not on object identity or the process — so it can key
    caches that survive re-generation of identical workloads and agree
    across worker processes.

    Traces that carry their own digest — streaming traces expose
    ``content_fingerprint``, computed incrementally during ingestion
    and equal by construction to this function over the materialized
    twin — are trusted rather than materialized, which is what keeps
    store cell keys independent of residency mode.
    """
    fp = getattr(trace, "content_fingerprint", None)
    if fp is not None:
        return fp
    h = hashlib.sha256()
    seq = trace.sequence
    h.update("\x00".join(seq.variables).encode())
    h.update(b"|")
    h.update(np.ascontiguousarray(seq.codes, dtype=np.int64).tobytes())
    h.update(b"|")
    h.update(np.packbits(np.asarray(trace.writes, dtype=bool)).tobytes())
    return h.hexdigest()


def clear_compile_caches() -> None:
    """Drop all memoized compilations (mostly for tests)."""
    compile_access_arrays.cache_clear()
    trace_fingerprint.cache_clear()


# -- zero-copy shared-memory trace arena -------------------------------------

#: Per-trace layout inside the arena block: ``(codes_offset, accesses,
#: writes_offset)``. Codes are int64 laid out first (so every codes
#: array stays 8-byte aligned), the bool write masks follow.
_ArenaEntry = tuple[int, int, int]

#: Per-sequence skeleton: ``(sequence name, variables, fingerprint)``.
_TraceSkeleton = tuple[str, tuple[str, ...], str]

#: Per-program skeleton: ``(program name, domain, trace skeletons)``.
_ProgramSkeleton = tuple[str, str, tuple[_TraceSkeleton, ...]]


def _quiet_close(shm) -> None:
    """Make ``shm.close()`` — including the one ``__del__`` runs — unraisable.

    Rehydrated numpy views routinely outlive the handle object (a worker
    keeps the views, the handle is garbage-collected), and unmapping
    under live views raises ``BufferError`` from the finalizer. The
    mapping is then reclaimed with the process, which is the intended
    outcome anyway — swallow the error instead of spraying unraisable
    warnings.
    """
    original = shm.close

    def close_quietly():
        try:
            original()
        except BufferError:
            pass

    shm.close = close_quietly


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable handle a worker needs to attach to an arena.

    Everything except the (potentially huge) access arrays: the shared
    block's OS name, the fingerprint-keyed layout table and the program
    skeletons (names, domains, variable universes). Workers rebuild the
    full suite from this plus zero-copy views into the block.
    """

    shm_name: str
    entries: dict[str, _ArenaEntry]
    skeletons: tuple[_ProgramSkeleton, ...]


class SharedTraceArena:
    """One shared-memory block holding every unique trace of a suite.

    Lifecycle (crash-safe by construction):

    * the parent :meth:`create`\\ s the arena before starting the pool —
      unique traces (by :func:`trace_fingerprint`) are serialized once;
      an ``atexit`` guard guarantees the segment is unlinked even if the
      process dies without reaching the ``finally`` block;
    * each worker :meth:`attach`\\ es via the picklable :attr:`spec` and
      :meth:`programs` rehydrates the suite as read-only zero-copy
      views — no per-worker copy of the access arrays exists;
    * workers :meth:`close` their mapping (or simply exit); the parent
      calls :meth:`dispose` — close + unlink — on matrix exit.

    A worker that crashes mid-cell leaves only its own mapping behind,
    which the OS reclaims with the process; the segment itself stays
    owned (and unlinked) by the parent.
    """

    def __init__(self, shm, entries, skeletons, owner: bool):
        _quiet_close(shm)
        self._shm = shm
        self._entries = entries
        self._skeletons = skeletons
        self._owner = owner
        self._disposed = False

    # -- parent side ---------------------------------------------------------

    @classmethod
    def create(cls, programs) -> "SharedTraceArena":
        """Serialize ``programs``' unique traces into a fresh shm block."""
        from multiprocessing import shared_memory

        unique: dict[str, object] = {}
        skeletons: list[_ProgramSkeleton] = []
        for program in programs:
            traces: list[_TraceSkeleton] = []
            for trace in program.traces:
                fp = trace_fingerprint(trace)
                unique.setdefault(fp, trace)
                seq = trace.sequence
                traces.append((seq.name, seq.variables, fp))
            skeletons.append((program.name, program.domain, tuple(traces)))
        codes_bytes = sum(8 * len(t) for t in unique.values())
        total = codes_bytes + sum(len(t) for t in unique.values())
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        try:
            entries: dict[str, _ArenaEntry] = {}
            codes_off, writes_off = 0, codes_bytes
            for fp, trace in unique.items():
                n = len(trace)
                codes = np.frombuffer(
                    shm.buf, dtype=np.int64, count=n, offset=codes_off
                )
                codes[:] = trace.sequence.codes
                writes = np.frombuffer(
                    shm.buf, dtype=bool, count=n, offset=writes_off
                )
                writes[:] = trace.writes
                entries[fp] = (codes_off, n, writes_off)
                codes_off += 8 * n
                writes_off += n
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        arena = cls(shm, entries, tuple(skeletons), owner=True)
        atexit.register(arena.dispose)
        return arena

    @property
    def spec(self) -> ArenaSpec:
        return ArenaSpec(self._shm.name, self._entries, self._skeletons)

    # -- worker side ---------------------------------------------------------

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "SharedTraceArena":
        """Map an existing arena read-only (well, copy-on-write view).

        Python's ``resource_tracker`` would otherwise *unlink* the
        segment when the first attaching worker exits (a long-standing
        footgun fixed by ``track=False`` in 3.13). On older versions,
        registration is suppressed for the duration of the open —
        sending an *unregister* message instead would race: forked
        workers share the parent's tracker process, so each worker's
        message would pop the parent's own registration (and the second
        one would KeyError inside the tracker).
        """
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=spec.shm_name, track=False)
        except TypeError:  # Python < 3.13: no track kwarg
            from multiprocessing import resource_tracker

            original = resource_tracker.register

            def _skip_shm(name, rtype):
                if rtype != "shared_memory":
                    original(name, rtype)

            resource_tracker.register = _skip_shm
            try:
                shm = shared_memory.SharedMemory(name=spec.shm_name)
            finally:
                resource_tracker.register = original
        return cls(shm, spec.entries, spec.skeletons, owner=False)

    def programs(self) -> list:
        """Rehydrate the suite: every array a zero-copy view into the block.

        Traces sharing a fingerprint (within or across programs) share
        one view. Function-level trace imports keep the engine package's
        module graph acyclic.
        """
        from repro.trace.generators.offsetstone import BenchmarkProgram
        from repro.trace.sequence import AccessSequence
        from repro.trace.trace import MemoryTrace

        cache: dict[str, MemoryTrace] = {}
        out = []
        for name, domain, trace_skels in self._skeletons:
            traces = []
            for seq_name, variables, fp in trace_skels:
                trace = cache.get(fp)
                if trace is None:
                    codes_off, n, writes_off = self._entries[fp]
                    codes = np.frombuffer(
                        self._shm.buf, dtype=np.int64, count=n,
                        offset=codes_off,
                    )
                    codes.setflags(write=False)
                    writes = np.frombuffer(
                        self._shm.buf, dtype=bool, count=n, offset=writes_off
                    )
                    writes.setflags(write=False)
                    seq = AccessSequence.from_codes(
                        variables, codes, name=seq_name
                    )
                    trace = MemoryTrace(seq, writes)
                    cache[fp] = trace
                traces.append(trace)
            out.append(
                BenchmarkProgram(name=name, domain=domain, traces=tuple(traces))
            )
        return out

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view of the block (idempotent).

        Rehydrated arrays still referencing the buffer make the unmap
        impossible; the mapping then lives until those arrays are
        garbage-collected (see :func:`_quiet_close`), which is safe —
        ``dispose`` in the parent has already unlinked the name.
        """
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment's name (creator only; idempotent)."""
        if not self._owner or self._disposed:
            return
        self._disposed = True
        atexit.unregister(self.dispose)
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def dispose(self) -> None:
        """Parent-side teardown: close the mapping and unlink the name."""
        self.unlink()
        self.close()


def try_create_arena(programs) -> SharedTraceArena | None:
    """Best-effort :meth:`SharedTraceArena.create`.

    Platforms without (writable) shared memory — some containers mount
    no ``/dev/shm`` — fall back to ``None``, meaning "pickle the
    programs to workers as before"; results are bit-identical either
    way, the arena only changes where the bytes live.

    Only in-memory traces are serialized. Streaming traces are not:
    their whole point is that the access arrays never materialize, and
    they already travel cheaply by pickle (census metadata plus a spill
    path). A suite containing any streamed trace skips the arena
    entirely.
    """
    from repro.trace.trace import MemoryTrace

    for program in programs:
        if not all(isinstance(t, MemoryTrace) for t in program.traces):
            logger.info(
                "suite contains streaming traces; skipping the shared-"
                "memory arena (streamed chunks never materialize)"
            )
            return None
    try:
        return SharedTraceArena.create(programs)
    except Exception as exc:
        logger.warning(
            "shared-trace arena unavailable (%s); falling back to pickled "
            "programs", exc,
        )
        return None
