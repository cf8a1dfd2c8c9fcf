"""The built-in workload sources.

A *source* turns a :class:`~repro.workloads.spec.WorkloadSpec`'s payload
and parameters into a :class:`~repro.trace.generators.offsetstone
.BenchmarkProgram` — a named bag of memory traces. Four synthetic
families and one ingestion source ship built in:

* ``offsetstone:<name>`` — the paper's generated benchmark suite,
  honouring the profile's scale/seed/write-ratio exactly as before
  (a bare spec with no params or transforms is bit-identical to
  :func:`~repro.trace.generators.offsetstone.load_benchmark`);
* ``kernels:<name>[,param=int...]`` — one real loop-nest kernel
  (``fir``, ``dct``, ``matmul``, ...);
* ``programs:<n>[,statements=..,depth=..,vars=..]`` — ``n`` procedures
  from the compiler-shaped :class:`~repro.trace.generators.programs
  .ProcedureModel`;
* ``synthetic:<kind>[,vars=..,length=..,...]`` — the statistical
  generators (``uniform``, ``zipf``, ``markov``, ``phased``, ``looped``,
  ``sliding``), with ``seqs=K`` independent sequences per program;
* ``file:<path>[,format=auto|trace|addr,word=..,max_vars=..,
  min_count=..,limit=..,stream=0|1,chunk=..,window=..]`` — external
  traces, native format or raw address traces ingested through
  :mod:`repro.trace.io`; ``stream=1`` replays address traces in
  bounded-memory chunks (:mod:`repro.trace.streaming`) without
  changing any result or store key.

Custom sources register through :func:`register_source`.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable

import numpy as np

from repro.errors import ReproError, WorkloadError
from repro.trace.generators import kernels as kernels_mod
from repro.trace.generators import synthetic
from repro.trace.generators.offsetstone import (
    BenchmarkProgram,
    OFFSETSTONE_NAMES,
    load_benchmark,
)
from repro.trace.generators.programs import ProcedureSpec, procedure_sequence
from repro.trace.io import load_traces
from repro.trace.trace import REPLAY_CHUNK, MemoryTrace
from repro.util.rng import spawn_rng
from repro.workloads.spec import WorkloadSpec, as_float, as_int

#: Source resolver signature: ``(spec, ctx, rng) -> BenchmarkProgram``.
SourceResolver = Callable


class _Source:
    __slots__ = ("name", "func", "description")

    def __init__(self, name: str, func: SourceResolver, description: str):
        self.name = name
        self.func = func
        self.description = description


_SOURCES: dict[str, _Source] = {}


def register_source(name: str, func: SourceResolver, description: str = "") -> None:
    """Register ``func(spec, ctx, rng) -> BenchmarkProgram`` under ``name``."""
    if name in _SOURCES:
        raise WorkloadError(f"source {name!r} is already registered")
    _SOURCES[name] = _Source(name, func, description)


def available_sources() -> dict[str, str]:
    """Mapping of registered source names to their descriptions."""
    return {s.name: s.description for s in _SOURCES.values()}


def get_source(name: str) -> SourceResolver:
    try:
        return _SOURCES[name].func
    except KeyError:
        raise WorkloadError(
            f"unknown workload source {name!r}; "
            f"known: {', '.join(sorted(_SOURCES))}"
        ) from None


def _params(spec: WorkloadSpec, context: str, **converters):
    """Convert a spec's params against a converter table, rejecting strays."""
    out = {}
    for key, raw in spec.params:
        if key not in converters:
            raise WorkloadError(
                f"{context} has no parameter {key!r}; "
                f"known: {', '.join(sorted(converters))}"
            )
        out[key] = converters[key](raw, f"{context} ({key})")
    return out


def _with_write_ratio(
    sequences, ctx, rng: np.random.Generator
) -> tuple[MemoryTrace, ...]:
    """Wrap bare sequences with the context's stochastic write ratio."""
    streams = spawn_rng(rng, len(sequences))
    return tuple(
        MemoryTrace.with_write_ratio(seq, ctx.write_ratio, stream)
        for seq, stream in zip(sequences, streams)
    )


# -- offsetstone --------------------------------------------------------------


def _resolve_offsetstone(spec, ctx, rng) -> BenchmarkProgram:
    _params(spec, f"source 'offsetstone' ({spec.payload})")  # no params
    if spec.payload not in OFFSETSTONE_NAMES:
        raise WorkloadError(
            f"unknown offsetstone benchmark {spec.payload!r}; "
            f"known: {', '.join(OFFSETSTONE_NAMES)}"
        )
    # Deliberately ignores `rng`: the suite seeds itself from the profile
    # seed, keeping bare specs bit-identical to the pre-registry suite.
    return load_benchmark(
        spec.payload, scale=ctx.scale, seed=ctx.seed,
        write_ratio=ctx.write_ratio,
    )


# -- kernels -------------------------------------------------------------------


def _resolve_kernels(spec, ctx, rng) -> BenchmarkProgram:
    context = f"source 'kernels' ({spec.payload})"
    try:
        func = kernels_mod.KERNELS[spec.payload]
    except KeyError:
        raise WorkloadError(
            f"unknown kernel {spec.payload!r}; "
            f"known: {', '.join(sorted(kernels_mod.KERNELS))}"
        ) from None
    accepted = {
        p for p in inspect.signature(func).parameters if p != "name"
    }
    kwargs = _params(
        spec, context, **{p: as_int for p in accepted}
    )
    try:
        seq = func(name=spec.payload, **kwargs)
    except ReproError as exc:
        raise WorkloadError(f"{context}: {exc}") from exc
    traces = _with_write_ratio([seq], ctx, rng)
    return BenchmarkProgram(name=spec.canonical, domain="kernel", traces=traces)


# -- programs ------------------------------------------------------------------


def _resolve_programs(spec, ctx, rng) -> BenchmarkProgram:
    context = f"source 'programs' ({spec.payload})"
    count = as_int(spec.payload, context)
    if count < 1:
        raise WorkloadError(f"{context}: procedure count must be >= 1")
    kwargs = _params(
        spec, context,
        statements=as_int, depth=as_int, vars=as_int,
        loop_p=as_float, branch_p=as_float,
    )
    fields = {
        "statements": "target_statements", "depth": "max_depth",
        "vars": "procedure_vars", "loop_p": "loop_probability",
        "branch_p": "branch_probability",
    }
    try:
        proc_spec = ProcedureSpec(
            **{fields[k]: v for k, v in kwargs.items()}
        )
        streams = spawn_rng(rng, count)
        sequences = [
            procedure_sequence(spec=proc_spec, rng=streams[i],
                               name=f"proc{i}")
            for i in range(count)
        ]
    except ReproError as exc:
        raise WorkloadError(f"{context}: {exc}") from exc
    traces = _with_write_ratio(sequences, ctx, rng)
    return BenchmarkProgram(name=spec.canonical, domain="program", traces=traces)


# -- synthetic -----------------------------------------------------------------

#: kind -> (generator, param-name -> (generator kwarg, converter))
_SYNTHETIC_KINDS = {
    "uniform": (synthetic.uniform_random_sequence, {
        "vars": ("num_vars", as_int), "length": ("length", as_int),
    }),
    "zipf": (synthetic.zipf_sequence, {
        "vars": ("num_vars", as_int), "length": ("length", as_int),
        "alpha": ("alpha", as_float), "locality": ("locality", as_float),
    }),
    "markov": (synthetic.markov_sequence, {
        "vars": ("num_vars", as_int), "length": ("length", as_int),
        "reuse": ("reuse", as_float), "window": ("window", as_int),
    }),
    "phased": (synthetic.phased_sequence, {
        "phases": ("num_phases", as_int),
        "vars": ("vars_per_phase", as_int),
        "length": ("accesses_per_phase", as_int),
        "shared": ("shared_vars", as_int),
        "shared_ratio": ("shared_ratio", as_float),
        "alpha": ("alpha", as_float),
    }),
    "looped": (synthetic.looped_sequence, {
        "patterns": ("num_patterns", as_int),
        "length": ("pattern_length", as_int),
        "repeats": ("repeats", as_int),
        "vars": ("vars_per_pattern", as_int),
    }),
    "sliding": (synthetic.sliding_window_sequence, {
        "vars": ("num_vars", as_int), "length": ("length", as_int),
        "window": ("window", as_int), "locality": ("locality", as_float),
        "shared": ("shared_vars", as_int),
        "shared_ratio": ("shared_ratio", as_float),
        "revisit": ("revisit", as_float),
    }),
}

#: Modest defaults so `synthetic:zipf` works bare.
_SYNTHETIC_DEFAULTS = {
    "uniform": {"num_vars": 32, "length": 512},
    "zipf": {"num_vars": 32, "length": 512},
    "markov": {"num_vars": 32, "length": 512},
    "phased": {"num_phases": 6, "vars_per_phase": 8,
               "accesses_per_phase": 96},
    "looped": {"num_patterns": 6, "pattern_length": 10, "repeats": 8,
               "vars_per_pattern": 6},
    "sliding": {"num_vars": 48, "length": 512},
}


def _resolve_synthetic(spec, ctx, rng) -> BenchmarkProgram:
    context = f"source 'synthetic' ({spec.payload})"
    try:
        func, table = _SYNTHETIC_KINDS[spec.payload]
    except KeyError:
        raise WorkloadError(
            f"unknown synthetic generator {spec.payload!r}; "
            f"known: {', '.join(sorted(_SYNTHETIC_KINDS))}"
        ) from None
    converters = {k: conv for k, (_, conv) in table.items()}
    converters["seqs"] = as_int
    raw = _params(spec, context, **converters)
    seqs = raw.pop("seqs", 1)
    if seqs < 1:
        raise WorkloadError(f"{context}: seqs must be >= 1")
    kwargs = dict(_SYNTHETIC_DEFAULTS[spec.payload])
    kwargs.update({table[k][0]: v for k, v in raw.items()})
    streams = spawn_rng(rng, seqs)
    try:
        sequences = [
            func(**kwargs, rng=streams[i], name=f"{spec.payload}{i}")
            for i in range(seqs)
        ]
    except ReproError as exc:
        raise WorkloadError(f"{context}: {exc}") from exc
    traces = _with_write_ratio(sequences, ctx, rng)
    return BenchmarkProgram(
        name=spec.canonical, domain="synthetic", traces=traces
    )


# -- file ----------------------------------------------------------------------


#: Default ``TraceChunk`` size for ``stream=1`` file workloads: the
#: chunk size in-memory traces replay in.
DEFAULT_STREAM_CHUNK = REPLAY_CHUNK

#: ``file:`` params that select *residency*, not workload identity.
#: Streaming is bit-identical to in-memory replay, so these are
#: stripped from the resolved program's name in both residencies — and
#: therefore from the matrix runner's content-addressed cell keys —
#: letting ``stream=0``, ``stream=1`` and the bare spec share store
#: cells. ``window`` is *not* here: a bounded placement window changes
#: placements, hence results.
_RESIDENCY_PARAMS = frozenset({"stream", "chunk"})


def _file_identity(spec: WorkloadSpec) -> str:
    """The canonical spec minus residency params (the program name)."""
    stripped = WorkloadSpec(
        source=spec.source,
        payload=spec.payload,
        params=tuple(
            (k, v) for k, v in spec.params if k not in _RESIDENCY_PARAMS
        ),
        transforms=spec.transforms,
    )
    return stripped.canonical


def _resolve_file(spec, ctx, rng) -> BenchmarkProgram:
    context = f"source 'file' ({spec.payload})"
    params = _params(
        spec, context,
        format=lambda v, c: v, word=as_int, max_vars=as_int,
        min_count=as_int, limit=as_int,
        stream=as_int, chunk=as_int, window=as_int,
    )
    format = params.pop("format", "auto")
    stream = params.pop("stream", 0)
    chunk = params.pop("chunk", None)
    window = params.pop("window", None)
    if stream not in (0, 1):
        raise WorkloadError(f"{context}: stream must be 0 or 1, got {stream}")
    if not stream and (chunk is not None or window is not None):
        raise WorkloadError(
            f"{context}: chunk/window only apply with stream=1"
        )
    kwargs = {}
    if "word" in params:
        kwargs["word_bytes"] = params["word"]
    for key in ("max_vars", "min_count", "limit"):
        if key in params:
            kwargs[key] = params[key]
    if stream:
        return _resolve_file_streaming(
            spec, context, format=format, chunk=chunk, window=window,
            **kwargs,
        )
    try:
        traces = load_traces(spec.payload, format=format, **kwargs)
    except FileNotFoundError:
        raise WorkloadError(
            f"{context}: trace file {spec.payload!r} does not exist"
        ) from None
    except ReproError as exc:
        raise WorkloadError(f"{context}: {exc}") from exc
    if not traces:
        raise WorkloadError(
            f"{context}: {spec.payload!r} contains no trace blocks"
        )
    return BenchmarkProgram(
        name=_file_identity(spec), domain="file", traces=tuple(traces)
    )


def _resolve_file_streaming(
    spec, context, *, format, chunk, window, **kwargs
) -> BenchmarkProgram:
    """The ``stream=1`` path: one bounded-memory streaming trace.

    Only raw address traces stream (the native block format needs the
    whole file anyway), and scenario transforms are rejected — they are
    whole-sequence rewrites, incompatible with never materializing the
    sequence. The program is named by the spec minus ``stream``/
    ``chunk`` (see :data:`_RESIDENCY_PARAMS`), so store cells are
    shared with the in-memory resolution of the same file.
    """
    from repro.trace.io import sniff_trace_format
    from repro.trace.streaming import stream_address_trace

    if spec.transforms:
        names = "@".join(t.name for t in spec.transforms)
        raise WorkloadError(
            f"{context}: scenario transforms ({names}) cannot apply to a "
            f"streaming workload — they rewrite the whole sequence; drop "
            f"the transforms or use stream=0"
        )
    if format not in ("auto", "addr"):
        raise WorkloadError(
            f"{context}: only raw address traces can stream, "
            f"got format={format!r}"
        )
    try:
        if sniff_trace_format(spec.payload) != "addr":
            raise WorkloadError(
                f"{context}: {spec.payload!r} is a native trace file; "
                f"streaming (stream=1) supports raw address traces only"
            )
        trace = stream_address_trace(
            spec.payload,
            chunk=chunk if chunk is not None else DEFAULT_STREAM_CHUNK,
            window=window,
            **kwargs,
        )
    except FileNotFoundError:
        raise WorkloadError(
            f"{context}: trace file {spec.payload!r} does not exist"
        ) from None
    except WorkloadError:
        raise
    except ReproError as exc:
        raise WorkloadError(f"{context}: {exc}") from exc
    return BenchmarkProgram(
        name=_file_identity(spec), domain="file", traces=(trace,)
    )


register_source(
    "offsetstone", _resolve_offsetstone,
    "the generated OffsetStone-like suite (payload: benchmark name)",
)
register_source(
    "kernels", _resolve_kernels,
    "one real loop-nest kernel (payload: kernel name; int params forwarded)",
)
register_source(
    "programs", _resolve_programs,
    "compiler-shaped procedure traces (payload: procedure count; "
    "statements/depth/vars/loop_p/branch_p)",
)
register_source(
    "synthetic", _resolve_synthetic,
    "statistical generators (payload: uniform|zipf|markov|phased|looped|"
    "sliding; seqs=K per program)",
)
register_source(
    "file", _resolve_file,
    "external trace file, native or raw-address format (payload: path; "
    "format/word/max_vars/min_count/limit; stream=1 with chunk/window "
    "for bounded-memory chunked replay)",
)
