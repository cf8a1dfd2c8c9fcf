"""repro.workloads — the pluggable workload layer.

Everything the evaluation stack consumes is a *workload*: a named bag of
memory traces (:class:`~repro.trace.generators.offsetstone
.BenchmarkProgram`). This package resolves declarative workload specs —
``source:payload[,param=value...][@transform[=args]...]`` strings, see
:mod:`repro.workloads.spec` for the grammar — through a registry of
sources (:mod:`repro.workloads.sources`: the synthetic generator
families plus external trace files) and an ordered chain of scenario
transforms (:mod:`repro.workloads.transforms`).

Resolution is deterministic: every spec derives its RNG streams from its
canonical string and the context seed, so the same spec resolves to
bit-identical traces in any process. The matrix runner's content keys
hash the resolved traces, which means external-trace and transformed
workloads shard, resume and regenerate through the persistent experiment
store exactly like the built-in suite. A bare benchmark name (``h263``)
is shorthand for ``offsetstone:h263`` and resolves bit-identically to
the pre-registry suite loader.

Quickstart::

    from repro.workloads import WorkloadContext, resolve_workload

    ctx = WorkloadContext(scale=0.25, seed=7)
    program = resolve_workload("file:traces/app.trc@interleave=2", ctx)
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from dataclasses import dataclass

from repro.trace.generators.offsetstone import BenchmarkProgram
from repro.util.rng import ensure_rng, spawn_rng
from repro.workloads.spec import (
    DEFAULT_SOURCE,
    TransformSpec,
    WorkloadSpec,
    parse_workload_spec,
)
from repro.workloads.sources import (
    available_sources,
    get_source,
    register_source,
)
from repro.workloads.transforms import (
    apply_transform,
    available_transforms,
    register_transform,
)

__all__ = [
    "BenchmarkProgram",
    "DEFAULT_SOURCE",
    "TransformSpec",
    "WorkloadContext",
    "WorkloadSpec",
    "available_sources",
    "available_transforms",
    "parse_workload_spec",
    "register_source",
    "register_transform",
    "resolve_workload",
    "resolve_workloads",
    "update_program_digest",
    "workload_fingerprint",
]


@dataclass(frozen=True)
class WorkloadContext:
    """Profile-level knobs every source resolves under."""

    scale: float = 1.0
    seed: int = 0
    write_ratio: float = 0.25

    @classmethod
    def from_profile(cls, profile) -> "WorkloadContext":
        """Build a context from an :class:`~repro.eval.profiles.EvalProfile`
        (duck-typed: any object with ``suite_scale``/``seed``/``write_ratio``)."""
        return cls(
            scale=profile.suite_scale,
            seed=profile.seed,
            write_ratio=profile.write_ratio,
        )


def _spec_seed(canonical: str, seed: int) -> int:
    """Deterministic 32-bit master seed for one spec under one context."""
    return (zlib.crc32(canonical.encode())
            ^ (seed * 0x9E3779B1 & 0xFFFFFFFF)) & 0xFFFFFFFF


def resolve_workload(
    spec: str | WorkloadSpec, context: WorkloadContext | None = None
) -> BenchmarkProgram:
    """Resolve one spec into a program: source, then the transform chain.

    The source and each transform position get independent RNG streams
    spawned from the spec's canonical string and the context seed, so
    resolution is bit-identical across processes and insensitive to
    which other workloads resolve around it.
    """
    spec = parse_workload_spec(spec)
    ctx = context or WorkloadContext()
    resolver = get_source(spec.source)
    master = ensure_rng(_spec_seed(spec.canonical, ctx.seed))
    streams = spawn_rng(master, 1 + len(spec.transforms))
    program = resolver(spec, ctx, streams[0])
    if not spec.transforms:
        return program
    traces = program.traces
    for tspec, stream in zip(spec.transforms, streams[1:]):
        traces = apply_transform(tspec, traces, stream)
    # Transformed programs are new workloads: named by the full canonical
    # spec so reports, cell keys and the store never conflate them with
    # their base workload.
    return BenchmarkProgram(
        name=spec.canonical, domain=program.domain, traces=traces
    )


def resolve_workloads(
    specs: Iterable[str | WorkloadSpec],
    context: WorkloadContext | None = None,
) -> list[BenchmarkProgram]:
    """Resolve a suite of specs in order (one program per spec)."""
    return [resolve_workload(s, context) for s in specs]


def update_program_digest(h, program: BenchmarkProgram) -> None:
    """Feed a program's content identity (name + per-trace fingerprints)
    into an in-progress hash object.

    This is the one definition of "the resolved workload's content":
    both :func:`workload_fingerprint` and the matrix runner's cell keys
    (:meth:`repro.eval.runner.CellRecipe.key`) build on it, so they can
    never drift apart.
    """
    from repro.engine import trace_fingerprint

    h.update(program.name.encode())
    for trace in program.traces:
        h.update(trace_fingerprint(trace).encode())


def workload_fingerprint(program: BenchmarkProgram) -> str:
    """Stable content digest of a resolved program (name + trace digests)."""
    import hashlib

    h = hashlib.sha256()
    update_program_digest(h, program)
    return h.hexdigest()


def describe_registry() -> list[tuple[str, str, str]]:
    """(kind, name, description) rows for every source and transform."""
    rows = [("source", n, d) for n, d in sorted(available_sources().items())]
    rows += [
        ("transform", n, d) for n, d in sorted(available_transforms().items())
    ]
    return rows
