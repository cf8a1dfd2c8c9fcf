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
explicitly. The execution knobs of the shift-engine refactor ride along
on the profile: ``engine_backend`` picks the shift engine (vectorized
``numpy`` by default, ``reference`` for the per-access oracle) and
``workers`` the process-pool width of the matrix runner; both can be
forced from the environment with ``REPRO_BACKEND`` / ``REPRO_WORKERS``
(``REPRO_WORKERS=0`` means "all cores").

``search_scale`` multiplies the search-based policies' budgets — the
GA's population (``mu``/``lam``) and the random walk's iteration count —
on top of whatever the profile sets. Batched candidate evaluation made
bigger populations affordable: scoring is one vectorized engine pass per
generation, so ``search_scale=4`` costs far less than 4x wall time.
Force it from the environment with ``REPRO_SEARCH_SCALE``.

``ports`` is the port-count sweep the multi-port experiments run
(``ablation-ports``, the multi-port benches); override per invocation
with ``repro-experiment --ports 1 2 4 8`` or ``REPRO_PORTS=1,2,4,8``.
Multi-port evaluation rides the engine's vectorized 2-D monoid scan, so
sweeping port counts costs about the same as the single-port run.

``store`` attaches a persistent experiment store (``REPRO_STORE`` from
the environment, ``--store`` on the CLI): matrix cells are cached on
disk across processes, runs resume after interruption and shards share
work — see ``docs/experiments.md``. ``offline`` turns the store into
the only allowed source (report regeneration without simulation).

``shared_traces`` (``REPRO_SHARED_TRACES``, ``--shared-traces``) makes
parallel matrix runs publish the compiled traces once through a
zero-copy shared-memory arena instead of pickling the whole suite into
every pool worker — bit-identical results, flat memory in the worker
count. See "Sharing compiled traces across workers" in
``docs/experiments.md``.

``workloads`` replaces the benchmark list with arbitrary workload specs
resolved through :mod:`repro.workloads` (``offsetstone:h263``,
``file:traces/app.trc@interleave=2``, ...) — see ``docs/workloads.md``.
When unset, the profile's ``benchmarks`` names resolve as bare
``offsetstone:`` specs, bit-identically to the pre-registry suite.
Override per invocation with ``repro-experiment --workloads`` or
``REPRO_WORKLOADS`` (specs separated by whitespace or ``;`` — commas
belong to the spec grammar).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from repro.errors import ExperimentError
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
    #: Multiplier on the GA population and RW iteration budgets (> 0).
    search_scale: float = 1.0
    #: Path of the persistent experiment store (None = in-memory only).
    store: str | None = None
    #: Forbid simulation: every matrix cell must come from a cache layer.
    offline: bool = False
    #: Port counts swept by the multi-port experiments (``ablation-ports``
    #: and the multi-port benchmarks); ``repro-experiment --ports`` /
    #: ``REPRO_PORTS`` override it per invocation.
    ports: tuple[int, ...] = (1, 2, 4)
    #: Workload specs resolved through :mod:`repro.workloads`; ``None``
    #: means "the ``benchmarks`` names as bare offsetstone specs".
    workloads: tuple[str, ...] | None = None
    #: Share compiled traces with pool workers through one zero-copy
    #: ``multiprocessing.shared_memory`` arena instead of pickling the
    #: suite per worker (``--shared-traces`` / ``REPRO_SHARED_TRACES``).
    #: Bit-identical either way; falls back to pickling where shm is
    #: unavailable. Only matters when ``workers > 1``.
    shared_traces: bool = False
    #: Per-shift off-by-one fault probability injected into every
    #: simulated cell (0.0 = clean; ``--fault-rate`` /
    #: ``REPRO_FAULT_RATE``). Faulted cells are content-addressed apart
    #: from clean ones, so both coexist in one store.
    fault_rate: float = 0.0
    #: Scrubbing cadence in accesses (requires a nonzero ``fault_rate``;
    #: ``--scrub-interval`` / ``REPRO_SCRUB_INTERVAL``).
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


def profile_from_env(default: str = "quick") -> EvalProfile:
    """Resolve the profile from ``REPRO_PROFILE`` (default ``quick``).

    ``REPRO_BACKEND`` and ``REPRO_WORKERS`` override the profile's engine
    backend and matrix-runner parallelism without defining a new profile;
    ``REPRO_WORKLOADS`` (whitespace- or ``;``-separated specs) replaces
    the evaluated workload suite.
    """
    name = os.environ.get("REPRO_PROFILE", default).strip().lower()
    try:
        profile = _PROFILES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown REPRO_PROFILE {name!r}; choose from {sorted(_PROFILES)}"
        ) from None
    backend = os.environ.get("REPRO_BACKEND")
    if backend:
        profile = replace(profile, engine_backend=backend.strip().lower())
    workers = os.environ.get("REPRO_WORKERS")
    if workers:
        try:
            profile = replace(profile, workers=int(workers))
        except ValueError:
            raise ExperimentError(
                f"REPRO_WORKERS must be an integer, got {workers!r}"
            ) from None
    search_scale = os.environ.get("REPRO_SEARCH_SCALE")
    if search_scale:
        try:
            scale = float(search_scale)
        except ValueError:
            raise ExperimentError(
                f"REPRO_SEARCH_SCALE must be a number, got {search_scale!r}"
            ) from None
        if not math.isfinite(scale) or scale <= 0:
            raise ExperimentError(
                f"REPRO_SEARCH_SCALE must be a finite number > 0, "
                f"got {search_scale!r}"
            )
        profile = replace(profile, search_scale=scale)
    store = os.environ.get("REPRO_STORE")
    if store:
        profile = replace(profile, store=store)
    shared = os.environ.get("REPRO_SHARED_TRACES")
    if shared:
        norm = shared.strip().lower()
        if norm in ("1", "true", "yes", "on"):
            profile = replace(profile, shared_traces=True)
        elif norm in ("0", "false", "no", "off"):
            profile = replace(profile, shared_traces=False)
        else:
            raise ExperimentError(
                f"REPRO_SHARED_TRACES must be a boolean flag "
                f"(1/0/true/false/yes/no/on/off), got {shared!r}"
            )
    workloads = os.environ.get("REPRO_WORKLOADS")
    if workloads:
        # Separated by whitespace or ';' — never ',', which is part of
        # the spec grammar itself (source parameters).
        specs = tuple(
            s for s in workloads.replace(";", " ").split() if s
        )
        if not specs:
            raise ExperimentError(
                f"REPRO_WORKLOADS must list workload specs, got {workloads!r}"
            )
        profile = replace(profile, workloads=specs)
    fault_rate = os.environ.get("REPRO_FAULT_RATE")
    if fault_rate:
        try:
            rate = float(fault_rate)
        except ValueError:
            raise ExperimentError(
                f"REPRO_FAULT_RATE must be a number, got {fault_rate!r}"
            ) from None
        if not math.isfinite(rate) or not 0.0 <= rate <= 1.0:
            raise ExperimentError(
                f"REPRO_FAULT_RATE must be a probability in [0, 1], "
                f"got {fault_rate!r}"
            )
        profile = replace(profile, fault_rate=rate)
    scrub = os.environ.get("REPRO_SCRUB_INTERVAL")
    if scrub:
        try:
            interval = int(scrub)
        except ValueError:
            raise ExperimentError(
                f"REPRO_SCRUB_INTERVAL must be an integer, got {scrub!r}"
            ) from None
        if interval < 1:
            raise ExperimentError(
                f"REPRO_SCRUB_INTERVAL must be >= 1, got {scrub!r}"
            )
        profile = replace(profile, scrub_interval=interval)
    # scrub-without-fault is rejected later (CLI post-override check and
    # run_matrix), not here: the CLI may still add --fault-rate on top.
    ports = os.environ.get("REPRO_PORTS")
    if ports:
        try:
            swept = tuple(int(p) for p in ports.replace(",", " ").split())
        except ValueError:
            raise ExperimentError(
                f"REPRO_PORTS must be integers, got {ports!r}"
            ) from None
        if not swept or min(swept) < 1:
            raise ExperimentError(
                f"REPRO_PORTS must list port counts >= 1, got {ports!r}"
            )
        profile = replace(profile, ports=swept)
    return profile
