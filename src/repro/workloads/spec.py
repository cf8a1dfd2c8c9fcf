"""The declarative workload-spec grammar.

A workload spec is one string naming a trace *source*, its parameters
and an ordered chain of scenario *transforms*::

    spec      := [source ":"] payload ("," key "=" value)* ("@" transform)*
    transform := name ["=" arg ("," arg)*]      # arg := value | key "=" value

Examples::

    h263                                  # bare name = offsetstone:h263
    offsetstone:h263
    synthetic:zipf,vars=64,length=2000
    kernels:matmul,n=6
    file:traces/foo.trc
    file:traces/gem5.csv,format=addr,word=8,max_vars=256
    offsetstone:jpeg@phases=4@interleave=2
    file:traces/foo.trc@tile=3@subsample=0.6

The parsed :class:`WorkloadSpec` is immutable and hashable; its
:attr:`~WorkloadSpec.canonical` form (source params sorted by key,
transform order preserved) is the identity used for naming resolved
programs, spawning deterministic per-spec RNG streams and recording
provenance. Commas and ``@`` inside file paths are not supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError

#: Source assumed when a spec has no ``source:`` prefix.
DEFAULT_SOURCE = "offsetstone"


@dataclass(frozen=True)
class TransformSpec:
    """One transform application: name + positional and keyword args."""

    name: str
    args: tuple[str, ...] = ()
    kwargs: tuple[tuple[str, str], ...] = ()  # sorted by key

    def render(self) -> str:
        parts = list(self.args) + [f"{k}={v}" for k, v in self.kwargs]
        return self.name + (("=" + ",".join(parts)) if parts else "")


@dataclass(frozen=True)
class WorkloadSpec:
    """A parsed workload spec: source, payload, params, transform chain."""

    source: str
    payload: str
    params: tuple[tuple[str, str], ...] = ()  # sorted by key
    transforms: tuple[TransformSpec, ...] = field(default=())

    @property
    def canonical(self) -> str:
        """The normalized spec string (the spec's stable identity)."""
        head = f"{self.source}:{self.payload}"
        if self.params:
            head += "," + ",".join(f"{k}={v}" for k, v in self.params)
        for t in self.transforms:
            head += "@" + t.render()
        return head

    @property
    def is_plain(self) -> bool:
        """True when the spec is a bare source lookup with no transforms."""
        return not self.params and not self.transforms

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.canonical


def _split_kv(token: str, context: str) -> tuple[str, str]:
    key, sep, value = token.partition("=")
    key, value = key.strip(), value.strip()
    if not sep or not key or not value:
        raise WorkloadError(
            f"{context}: expected key=value, got {token!r}"
        )
    return key, value


def parse_workload_spec(text: str | WorkloadSpec) -> WorkloadSpec:
    """Parse a spec string; :class:`WorkloadSpec` inputs pass through."""
    if isinstance(text, WorkloadSpec):
        return text
    spec = text.strip()
    if not spec:
        raise WorkloadError("workload spec is empty")
    head, *transform_tokens = spec.split("@")
    head = head.strip()
    if not head:
        raise WorkloadError(f"workload spec {text!r} has no source")
    source, sep, rest = head.partition(":")
    if not sep:
        source, rest = DEFAULT_SOURCE, head
    source, rest = source.strip(), rest.strip()
    if not source or not rest:
        raise WorkloadError(
            f"workload spec {text!r}: expected source:payload"
        )
    payload, *param_tokens = [t.strip() for t in rest.split(",")]
    if not payload:
        raise WorkloadError(f"workload spec {text!r} has an empty payload")
    params = tuple(sorted(
        _split_kv(t, f"workload spec {text!r}") for t in param_tokens if t
    ))
    seen = [k for k, _ in params]
    if len(set(seen)) != len(seen):
        raise WorkloadError(f"workload spec {text!r} repeats a parameter")
    transforms = []
    for token in transform_tokens:
        token = token.strip()
        if not token:
            raise WorkloadError(f"workload spec {text!r} has an empty transform")
        name, sep, argstr = token.partition("=")
        name = name.strip()
        if not name:
            raise WorkloadError(
                f"workload spec {text!r}: transform needs a name"
            )
        args: list[str] = []
        kwargs: list[tuple[str, str]] = []
        if sep:
            for arg in argstr.split(","):
                arg = arg.strip()
                if not arg:
                    raise WorkloadError(
                        f"workload spec {text!r}: empty argument in "
                        f"transform {name!r}"
                    )
                if "=" in arg:
                    kwargs.append(_split_kv(arg, f"transform {name!r}"))
                else:
                    args.append(arg)
        keys = [k for k, _ in kwargs]
        if len(set(keys)) != len(keys):
            raise WorkloadError(
                f"workload spec {text!r}: transform {name!r} repeats "
                f"a parameter"
            )
        transforms.append(TransformSpec(
            name=name, args=tuple(args), kwargs=tuple(sorted(kwargs))
        ))
    return WorkloadSpec(
        source=source, payload=payload, params=params,
        transforms=tuple(transforms),
    )


# -- typed parameter conversion ----------------------------------------------


def as_int(value: str, context: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise WorkloadError(
            f"{context}: expected an integer, got {value!r}"
        ) from None


def as_float(value: str, context: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise WorkloadError(
            f"{context}: expected a number, got {value!r}"
        ) from None

