"""Composable scenario transforms over resolved trace bags.

A transform rewrites the tuple of :class:`~repro.trace.trace.MemoryTrace`
objects a source resolved — merging, splitting, repeating, duplicating
or thinning access streams — so one base workload spawns a whole family
of scenarios (``@interleave=2``, ``@phases=4@subsample=0.5``, ...).

Every transform is deterministic: it draws randomness only from the RNG
stream the resolver spawns for its position in the chain (seeded from
the canonical spec and the profile seed), so identical specs resolve to
bit-identical traces in any process — which is what lets the experiment
store content-address transformed workloads exactly like synthetic ones.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace
from repro.workloads.spec import TransformSpec, as_float, as_int

Traces = tuple[MemoryTrace, ...]


@dataclass(frozen=True)
class _Param:
    """One declared transform parameter (positional or keyword)."""

    name: str
    convert: Callable[[str, str], object]
    default: object


@dataclass(frozen=True)
class _Transform:
    name: str
    func: Callable
    params: tuple[_Param, ...]
    description: str


_TRANSFORMS: dict[str, _Transform] = {}


def register_transform(
    name: str,
    func: Callable,
    params: Sequence[tuple[str, Callable, object]] = (),
    description: str = "",
) -> None:
    """Register ``func(traces, rng, **kwargs) -> traces`` under ``name``.

    ``params`` declares the accepted arguments in positional order as
    ``(name, converter, default)`` triples; spec args are converted and
    validated before the transform runs.
    """
    if name in _TRANSFORMS:
        raise WorkloadError(f"transform {name!r} is already registered")
    _TRANSFORMS[name] = _Transform(
        name=name, func=func,
        params=tuple(_Param(n, c, d) for n, c, d in params),
        description=description,
    )


def available_transforms() -> dict[str, str]:
    """Mapping of registered transform names to their descriptions."""
    return {t.name: t.description for t in _TRANSFORMS.values()}


def apply_transform(
    spec: TransformSpec, traces: Traces, rng: np.random.Generator
) -> Traces:
    """Bind a :class:`TransformSpec`'s args and run the transform."""
    try:
        transform = _TRANSFORMS[spec.name]
    except KeyError:
        raise WorkloadError(
            f"unknown transform {spec.name!r}; "
            f"known: {', '.join(sorted(_TRANSFORMS))}"
        ) from None
    context = f"transform {spec.name!r}"
    if len(spec.args) > len(transform.params):
        raise WorkloadError(
            f"{context} takes at most {len(transform.params)} argument(s), "
            f"got {len(spec.args)}"
        )
    bound = {p.name: p.default for p in transform.params}
    for param, raw in zip(transform.params, spec.args):
        bound[param.name] = param.convert(raw, f"{context} ({param.name})")
    declared = {p.name: p for p in transform.params}
    positional = {p.name for p, _ in zip(transform.params, spec.args)}
    for key, raw in spec.kwargs:
        if key not in declared:
            raise WorkloadError(
                f"{context} has no parameter {key!r}; "
                f"known: {', '.join(sorted(declared))}"
            )
        if key in positional:
            raise WorkloadError(f"{context}: parameter {key!r} given twice")
        bound[key] = declared[key].convert(raw, f"{context} ({key})")
    out = transform.func(traces, rng, **bound)
    if not out:
        raise WorkloadError(f"{context} produced an empty workload")
    return tuple(out)


# -- helpers -----------------------------------------------------------------


def _require_positive(value: int, context: str) -> int:
    if value < 1:
        raise WorkloadError(f"{context} must be >= 1, got {value}")
    return value


def _frozen(codes: np.ndarray) -> np.ndarray:
    """Mark a freshly built code array read-only, in place.

    :meth:`AccessSequence.from_codes` then adopts it without a copy.
    """
    codes.setflags(write=False)
    return codes


def _renamed(trace: MemoryTrace, prefix: str, name: str) -> MemoryTrace:
    seq = trace.sequence
    variables = [prefix + v for v in seq.variables]
    return MemoryTrace(
        AccessSequence.from_codes(variables, seq.codes, name), trace.writes
    )


def _sliced(trace: MemoryTrace, index, name: str) -> MemoryTrace:
    """A new trace over ``index``'s accesses, universe restricted to them."""
    seq = trace.sequence
    codes = seq.codes[index]
    used = np.unique(codes)  # ascending = declaration order preserved
    remap = np.full(seq.num_variables, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    variables = [seq.variables[i] for i in used]
    return MemoryTrace(
        AccessSequence.from_codes(variables, _frozen(remap[codes]), name),
        trace.writes[index],
    )


# -- the built-in transforms -------------------------------------------------


def _interleave(traces: Traces, rng: np.random.Generator, k: int) -> Traces:
    """Merge groups of ``k`` traces into one randomly interleaved stream.

    Each merged trace preserves every constituent's internal access
    order (a fair random shuffle of the streams, weighted by remaining
    length); variable universes are kept disjoint by prefixing each
    constituent's variables with ``t<j>.`` — the multi-tenant scenario:
    k independent programs sharing one RTM.
    """
    _require_positive(k, "interleave factor")
    out: list[MemoryTrace] = []
    for start in range(0, len(traces), k):
        if start + 1 == len(traces) or k == 1:
            out.append(traces[start])  # lone trace: nothing to merge
            continue
        group = [
            _renamed(t, f"t{j}.", t.name)
            for j, t in enumerate(traces[start:start + k])
        ]
        name = "+".join(t.name or f"t{j}" for j, t in enumerate(group))
        lengths = [len(t) for t in group]
        # A uniform shuffle of the stream-id multiset IS the fair
        # interleaving (drawing the next stream weighted by remaining
        # length), with no per-access RNG call.
        ids = rng.permutation(np.repeat(np.arange(len(group)), lengths))
        variables: list[str] = []
        offsets: list[int] = []
        for t in group:
            offsets.append(len(variables))
            variables.extend(t.variables)
        total = int(sum(lengths))
        codes = np.empty(total, dtype=np.int64)
        writes = np.empty(total, dtype=bool)
        for j, t in enumerate(group):
            slots = np.flatnonzero(ids == j)
            codes[slots] = t.sequence.codes + offsets[j]
            writes[slots] = t.writes
        out.append(MemoryTrace(
            AccessSequence.from_codes(variables, _frozen(codes), name), writes
        ))
    return tuple(out)


def _phases(traces: Traces, rng: np.random.Generator, k: int) -> Traces:
    """Split each trace into ``k`` contiguous phases, one trace per phase.

    Each phase keeps only the variables it actually touches — the
    working-set turnover becomes explicit program structure, the regime
    where per-phase placement (and the DMA disjointness analysis) wins.
    Traces shorter than ``k`` accesses yield fewer phases.
    """
    _require_positive(k, "phase count")
    out: list[MemoryTrace] = []
    for trace in traces:
        n = len(trace)
        bounds = [round(i * n / k) for i in range(k + 1)]
        for i in range(k):
            lo, hi = bounds[i], bounds[i + 1]
            if hi <= lo:
                continue
            out.append(_sliced(
                trace, slice(lo, hi), f"{trace.name}.ph{i}"
            ))
    return tuple(out)


def _tile(traces: Traces, rng: np.random.Generator, k: int) -> Traces:
    """Repeat each trace's access stream ``k`` times (an outer loop)."""
    _require_positive(k, "tile factor")
    if k == 1:
        return traces
    out = []
    for trace in traces:
        seq = trace.sequence
        out.append(MemoryTrace(
            AccessSequence.from_codes(
                seq.variables, _frozen(np.tile(seq.codes, k)),
                f"{seq.name}.x{k}",
            ),
            np.tile(trace.writes, k),
        ))
    return tuple(out)


def _stretch(traces: Traces, rng: np.random.Generator, length: int) -> Traces:
    """Repeat-and-truncate each trace to exactly ``length`` accesses.

    Like ``tile``, the declared variable universe is preserved even when
    truncation leaves some variables unaccessed — they still demand a
    location, so the placement problem's capacity side is unchanged.
    """
    _require_positive(length, "stretch length")
    out = []
    for trace in traces:
        seq = trace.sequence
        reps = -(-length // len(seq))  # ceil
        codes = np.tile(seq.codes, reps)[:length]
        writes = np.tile(trace.writes, reps)[:length]
        out.append(MemoryTrace(
            AccessSequence.from_codes(
                seq.variables, _frozen(codes), f"{seq.name}.len{length}"
            ),
            writes,
        ))
    return tuple(out)


def _skew(traces: Traces, rng: np.random.Generator, k: int) -> Traces:
    """``k`` copies of each trace, rotated out of phase, variables renamed.

    Copy ``j`` starts ``j/k`` of the way through the stream and wraps —
    k instances of the same program running skewed in time, each over
    its own variables (``c<j>.`` prefix): the throughput-replication
    scenario. Each copy keeps the full declared universe (like ``tile``/
    ``stretch``), so every copy is the same placement problem.
    """
    _require_positive(k, "skew factor")
    out = []
    for trace in traces:
        seq = trace.sequence
        n = len(seq)
        for j in range(k):
            shift = (j * n) // k
            variables = [f"c{j}." + v for v in seq.variables]
            out.append(MemoryTrace(
                AccessSequence.from_codes(
                    variables, _frozen(np.roll(seq.codes, -shift)),
                    f"{seq.name}.c{j}",
                ),
                np.roll(trace.writes, -shift),
            ))
    return tuple(out)


def _subsample(traces: Traces, rng: np.random.Generator, p: float) -> Traces:
    """Keep each access independently with probability ``p``.

    Models a sampled/filtered trace (as produced by sampling profilers);
    variables that lose all their accesses leave the universe. At least
    one access always survives per trace.
    """
    if not 0.0 < p <= 1.0:
        raise WorkloadError(f"subsample probability must be in (0, 1], got {p}")
    out = []
    for trace in traces:
        mask = rng.random(len(trace)) < p
        if not mask.any():
            mask[0] = True
        out.append(_sliced(
            trace, np.flatnonzero(mask), f"{trace.name}.s{p:g}"
        ))
    return tuple(out)


register_transform(
    "interleave", _interleave, [("k", as_int, 2)],
    "merge groups of k traces into one randomly interleaved stream "
    "(disjoint renamed universes)",
)
register_transform(
    "phases", _phases, [("k", as_int, 2)],
    "split each trace into k contiguous phases, one trace per phase",
)
register_transform(
    "tile", _tile, [("k", as_int, 2)],
    "repeat each trace's access stream k times (outer loop)",
)
register_transform(
    "stretch", _stretch, [("length", as_int, 1024)],
    "repeat-and-truncate each trace to exactly `length` accesses",
)
register_transform(
    "skew", _skew, [("k", as_int, 2)],
    "k time-skewed copies of each trace over renamed variables",
)
register_transform(
    "subsample", _subsample, [("p", as_float, 0.5)],
    "keep each access independently with probability p",
)
