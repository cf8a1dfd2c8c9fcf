"""Evaluation profiles: how much of the full matrix to run.

The paper's full setup (31 programs, GA with 200 generations of 100+100,
RW with 60000 iterations, four RTM configurations) is hours of compute in
pure Python. Profiles scale the suite and the search budgets while
keeping every code path identical:

* ``full``   — the paper's parameters, unabridged.
* ``quick``  — scaled suite and search budgets; minutes, same shapes.
  This is the default for the benchmark harness.
* ``smoke``  — a handful of programs, seconds; used by the test-suite.

Select via ``REPRO_PROFILE=quick|full|smoke`` or pass a profile object
explicitly.

The execution settings — engine backend, workers, search scale, store,
shared traces, workloads, fault rate, scrub interval, ports — ride along
on the profile as *knobs*. :data:`KNOBS` declares each one once: its
profile field, its ``REPRO_*`` variable, its ``repro-experiment`` flag,
its parser, its valid values and its help text.
:func:`profile_from_env` reads the variables through it,
``repro-experiment`` generates its flags from it, and
:func:`check_profile` applies its rules to a finished profile (the
matrix runner does so on every run). The knob reference in
``docs/experiments.md`` lists it.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from numbers import Integral
from operator import attrgetter
from typing import Any

from repro.engine import FaultModel, available_backends, resolve_backend_name
from repro.errors import ExperimentError, ReproError
from repro.trace.generators.offsetstone import OFFSETSTONE_NAMES


@dataclass(frozen=True)
class EvalProfile:
    """Scaling knobs for one evaluation run."""

    name: str
    suite_scale: float
    ga_options: dict = field(default_factory=dict)
    rw_iterations: int = 60_000
    seed: int = 7
    benchmarks: tuple[str, ...] = OFFSETSTONE_NAMES
    write_ratio: float = 0.25
    #: Shift-engine backend for simulation and analytic costs
    #: (a registered name).
    engine_backend: str = "numpy"
    #: Process-pool width of the matrix runner (1 = serial, 0 = all cores).
    workers: int = 1
    #: Multiplier on the GA population (``mu``/``lam``) and RW iteration
    #: budgets (> 0). Batched candidate evaluation scores a generation
    #: in one engine pass, so ``search_scale=4`` costs far less than 4x.
    search_scale: float = 1.0
    #: Path of the persistent experiment store (None = in-memory only).
    store: str | None = None
    #: Forbid simulation: every matrix cell must come from a cache layer.
    offline: bool = False
    #: Port counts swept by the multi-port experiments (``ablation-ports``
    #: and the multi-port benchmarks).
    ports: tuple[int, ...] = (1, 2, 4)
    #: Workload specs resolved through :mod:`repro.workloads`; ``None``
    #: means "the ``benchmarks`` names as bare offsetstone specs".
    workloads: tuple[str, ...] | None = None
    #: Share compiled traces with pool workers through one zero-copy
    #: ``multiprocessing.shared_memory`` arena instead of pickling the
    #: suite per worker. Bit-identical either way; falls back to
    #: pickling where shm is unavailable. Only matters when ``workers > 1``.
    shared_traces: bool = False
    #: Per-shift off-by-one fault probability injected into every
    #: simulated cell (0.0 = clean). Faulted cells are content-addressed
    #: apart from clean ones, so both coexist in one store.
    fault_rate: float = 0.0
    #: Scrubbing cadence in accesses (requires a nonzero ``fault_rate``).
    scrub_interval: int | None = None

    @property
    def workload_specs(self) -> tuple[str, ...]:
        """The effective workload list this profile evaluates."""
        return self.workloads if self.workloads else self.benchmarks

    def describe(self) -> str:
        ga = ", ".join(f"{k}={v}" for k, v in sorted(self.ga_options.items()))
        scale = (
            f", search x{self.search_scale:g}" if self.search_scale != 1.0 else ""
        )
        kind = "workloads" if self.workloads else "benchmarks"
        faults = ""
        if self.fault_rate:
            faults = f", fault rate {self.fault_rate:g}"
            if self.scrub_interval is not None:
                faults += f" (scrub every {self.scrub_interval})"
        return (
            f"profile {self.name!r}: {len(self.workload_specs)} {kind} at "
            f"scale {self.suite_scale}, GA({ga or 'paper defaults'}), "
            f"RW {self.rw_iterations} iters, seed {self.seed}, "
            f"{self.engine_backend} engine x {self.workers} worker(s){scale}"
            f"{faults}"
        )


FULL_PROFILE = EvalProfile(
    name="full",
    suite_scale=1.0,
    ga_options={},  # mu=lam=100, 200 generations (Sec. IV-A)
    rw_iterations=60_000,
)

QUICK_PROFILE = EvalProfile(
    name="quick",
    suite_scale=0.25,
    ga_options={"mu": 24, "lam": 24, "generations": 30, "patience": 12},
    rw_iterations=1_440,  # matched to the GA's evaluation upper bound
)

SMOKE_PROFILE = EvalProfile(
    name="smoke",
    suite_scale=0.12,
    ga_options={"mu": 12, "lam": 12, "generations": 10, "patience": 5},
    rw_iterations=132,
    benchmarks=("adpcm", "bison", "jpeg", "viterbi"),
)

_PROFILES = {p.name: p for p in (FULL_PROFILE, QUICK_PROFILE, SMOKE_PROFILE)}


# -- knobs --------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One execution setting: where it is set, how it is read and checked.

    ``parse`` turns one token of text into a value and raises
    ``ValueError`` on malformed text. ``check`` applies the valid-value
    rule, which ``valid`` states in words, and returns the value
    normalized; where an engine check exists, ``check`` calls it. A list
    knob has a ``sep``: its variable splits at whitespace and ``sep``,
    and its flag takes one or more arguments. ``cli`` holds extra
    ``argparse`` keywords for the flag.
    """

    field: str
    env: str
    flag: str
    parse: Callable[[str], Any]
    check: Callable[[Any], Any]
    valid: str
    help: str
    sep: str | None = None
    cli: dict | None = None

    def checked(self, value: Any, name: str) -> Any:
        """``value`` after the rule; errors call the knob ``name``."""
        try:
            return self.check(value)
        except ReproError as exc:  # an engine check, in its own words
            raise ExperimentError(f"{name}: {exc}") from None
        except (TypeError, ValueError):
            raise ExperimentError(
                f"{name} must be {self.valid}, got {value!r}"
            ) from None

    def read(self, text: str) -> Any:
        """The value of ``text`` set in this knob's variable."""
        try:
            if self.sep is None:
                value = self.parse(text)
            else:
                tokens = text.replace(self.sep, " ").split()
                value = tuple(self.parse(token) for token in tokens)
        except ValueError:
            raise ExperimentError(
                f"{self.env} must be {self.valid}, got {text!r}"
            ) from None
        return self.checked(value, self.env)


def _rule(ok: Callable[[Any], bool]) -> Callable[[Any], Any]:
    """A check passing the values ``ok`` accepts through unchanged."""

    def check(value):
        if not ok(value):
            raise ValueError(value)
        return value

    return check


def _at_least(value: Any, minimum: int) -> bool:
    return isinstance(value, Integral) and value >= minimum


def _each(values: Any, ok: Callable[[Any], bool]) -> bool:
    """``values`` is a non-empty tuple or list of items ``ok`` accepts."""
    return (isinstance(values, (tuple, list)) and len(values) > 0
            and all(map(ok, values)))


def _boolean(text: str) -> bool:
    norm = text.strip().lower()
    if norm in ("1", "true", "yes", "on"):
        return True
    if norm in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


#: The execution knobs, in the order the flags are listed.
KNOBS: tuple[Knob, ...] = (
    Knob(
        "engine_backend", "REPRO_BACKEND", "--backend", str,
        resolve_backend_name,
        f"a registered backend ({', '.join(available_backends())})",
        "shift-engine backend",
        cli={"choices": available_backends()},
    ),
    Knob(
        "workers", "REPRO_WORKERS", "--workers", int,
        _rule(lambda n: _at_least(n, 0)),
        "an integer >= 0 (0 = all cores)",
        "matrix-runner processes, 0 for all cores",
    ),
    Knob(
        "search_scale", "REPRO_SEARCH_SCALE", "--search-scale", float,
        _rule(lambda x: math.isfinite(x) and x > 0),
        "a finite number > 0",
        "multiply the GA population and RW iteration budgets",
    ),
    Knob(
        "store", "REPRO_STORE", "--store", str,
        _rule(lambda path: path is None or os.fspath(path).strip() != ""),
        "a non-blank path",
        "persistent experiment store; cells are read from and written "
        "back to it",
        cli={"metavar": "PATH"},
    ),
    Knob(
        "shared_traces", "REPRO_SHARED_TRACES", "--shared-traces", _boolean,
        _rule(lambda flag: isinstance(flag, bool)),
        "a boolean (1/0, true/false, yes/no, on/off)",
        "publish compiled traces to pool workers through one zero-copy "
        "shared-memory arena instead of pickling the suite per worker; "
        "bit-identical results, needs --workers > 1",
        cli={"action": "store_true"},
    ),
    Knob(
        "workloads", "REPRO_WORKLOADS", "--workloads", str,
        _rule(lambda specs: specs is None or _each(
            specs, lambda spec: isinstance(spec, str) and spec.strip() != "")),
        "one or more non-blank workload specs",
        "evaluate these workload specs instead of the profile's suite, "
        "e.g. offsetstone:h263 file:traces/app.trc@interleave=2; the "
        "variable separates specs by whitespace or ';'",
        sep=";", cli={"metavar": "SPEC"},
    ),
    Knob(
        "fault_rate", "REPRO_FAULT_RATE", "--fault-rate", float,
        lambda rate: FaultModel(rate).rate,
        "a probability in [0, 1]",
        "per-shift off-by-one fault probability injected into every "
        "simulated cell, 0 for clean; see docs/faults.md",
        cli={"metavar": "P"},
    ),
    Knob(
        "scrub_interval", "REPRO_SCRUB_INTERVAL", "--scrub-interval", int,
        _rule(lambda n: n is None or _at_least(n, 1)),
        ">= 1 (an integer)",
        "realign drifted tracks every S accesses, charging the corrective "
        "shifts; requires a nonzero --fault-rate",
        cli={"metavar": "S"},
    ),
    Knob(
        "ports", "REPRO_PORTS", "--ports", int,
        _rule(lambda ports: _each(ports, lambda p: _at_least(p, 1))),
        "one or more integers >= 1",
        "port counts swept by the multi-port experiments, e.g. --ports "
        "1 2 4 8; the variable separates them by whitespace or ','",
        sep=",", cli={"metavar": "P"},
    ),
)

_KNOB = {knob.field: knob for knob in KNOBS}


def check_profile(
    profile: EvalProfile,
    name: Callable[[Knob], str] = attrgetter("field"),
) -> EvalProfile:
    """``profile`` with every knob checked against its row and normalized.

    A failed check raises :class:`~repro.errors.ExperimentError`, calling
    each knob ``name(knob)``: its field by default, its flag on the
    command line. The one rule spanning two knobs lives here too: a scrub
    interval needs a nonzero fault rate. It applies to the finished
    profile only, because the two may be set in different places (a
    variable and a flag).
    """
    profile = replace(profile, **{
        knob.field: knob.checked(getattr(profile, knob.field), name(knob))
        for knob in KNOBS
    })
    if profile.scrub_interval is not None and not profile.fault_rate:
        raise ExperimentError(
            f"{name(_KNOB['scrub_interval'])} requires a nonzero "
            f"{name(_KNOB['fault_rate'])} (scrubbing a clean simulation "
            f"would only charge useless shifts)"
        )
    return profile


def profile_from_env(default: str = "quick") -> EvalProfile:
    """Resolve the profile from ``REPRO_PROFILE`` (default ``quick``).

    Every :data:`KNOBS` variable that is set and non-empty overrides its
    field. Each value is checked on its own; the scrub/fault pairing is
    left to :func:`check_profile`, since a flag may still add the rate.
    """
    name = os.environ.get("REPRO_PROFILE", default).strip().lower()
    try:
        profile = _PROFILES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown REPRO_PROFILE {name!r}; choose from {sorted(_PROFILES)}"
        ) from None
    return replace(profile, **{
        knob.field: knob.read(os.environ[knob.env])
        for knob in KNOBS if os.environ.get(knob.env)
    })
