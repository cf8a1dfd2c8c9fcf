"""Matrix runner: (benchmark program x RTM configuration x policy).

One *cell* places and simulates every access sequence of a program under
one policy on one configuration, summing analytic shifts and simulator
reports — the quantity Figs. 4-6 aggregate.

The full matrix is embarrassingly parallel and the runner exploits that:

* every cell is one :class:`CellRecipe` — policy spec, geometry,
  per-cell seed, backend name, fault model — which the serial loop, the
  process pool (``workers > 1``) and queue workers all compute the same
  way, so ``workers=1`` and ``workers=N`` are bit-identical. Pool
  workers receive the resolved programs once; with ``shared_traces`` on
  (``--shared-traces`` / ``REPRO_SHARED_TRACES``) the compiled traces
  are published once through a zero-copy shared-memory arena
  (:class:`~repro.engine.compile.SharedTraceArena`) instead of pickled
  into every worker;
* results are de-duplicated through a content-keyed cache: a cell is
  keyed by the digest of its traces, its policy spec, its configuration
  and (for stochastic policies only) its seed, so re-running overlapping
  matrices — different figures share most cells — is near-free;
* the same content keys address the *persistent* experiment store
  (:mod:`repro.store`): when a store is attached — ``store=``, the
  profile's ``store`` field or ``REPRO_STORE`` — the runner consults
  disk before computing, writes every freshly computed cell back
  atomically from the parent process (workers stay side-effect-free),
  and records a provenance manifest per run. A killed run therefore
  resumes where it stopped, and ``shard=(i, N)`` partitions the matrix
  deterministically across machines whose merged stores reproduce the
  unsharded run bit-identically.

Every run publishes its hit/miss counters (in-memory cache vs store vs
computed) through :func:`last_matrix_stats` and the module logger.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from repro.core.policies import Policy, get_policy
from repro.engine import FaultModel
from repro.engine.cursor import ShiftCursor
from repro.errors import ExperimentError
from repro.eval.profiles import QUICK_PROFILE, EvalProfile, check_profile
from repro.rtm.controller import RTMController
from repro.rtm.geometry import RTMConfig, iso_capacity_sweep
from repro.rtm.report import SimReport

# simulate is unused here but stays a module attribute: the layer tracer
# in perfbench/spans.py wraps it by name.
from repro.rtm.sim import simulate  # noqa: F401
from repro.rtm.timing import params_for
from repro.trace.generators.offsetstone import BenchmarkProgram
from repro.util.rng import ensure_rng, spawn_seeds
from repro.workloads import WorkloadContext, update_program_digest

#: A picklable policy recipe: ``(name, constructor kwargs)``.
PolicySpec = tuple[str, dict]

logger = logging.getLogger(__name__)


@dataclass
class MatrixStats:
    """Cache observability for one ``run_matrix`` invocation.

    ``cells_total`` counts the cells of the (possibly sharded) matrix
    this run was responsible for; ``sharded_out`` the cells skipped
    because they belong to other shards. Every responsible cell is
    accounted to exactly one of ``hits_memory`` (in-process cache),
    ``hits_store`` (persistent store), ``computed``, or — in enqueue
    mode — ``enqueued`` (submitted to the store's work queue instead of
    simulated here). ``hits_queue`` sub-classifies ``hits_store``: the
    store hits whose queue row is ``done``, i.e. cells computed remotely
    by queue workers rather than by any local run — they are *hits*, not
    misses, so resumed-report stats stay truthful about who did the
    work.
    """

    cells_total: int = 0
    hits_memory: int = 0
    hits_store: int = 0
    hits_queue: int = 0
    computed: int = 0
    enqueued: int = 0
    sharded_out: int = 0
    run_id: str | None = None
    shard: tuple[int, int] | None = None

    @property
    def hits(self) -> int:
        """Cells served without simulation, from either cache layer."""
        return self.hits_memory + self.hits_store

    def describe(self) -> str:
        shard = f", shard {self.shard[0]}/{self.shard[1]}" if self.shard else ""
        queue = (f" ({self.hits_queue} queue-computed)"
                 if self.hits_queue else "")
        enq = f", {self.enqueued} enqueued" if self.enqueued else ""
        return (
            f"{self.cells_total} cell(s): {self.hits_memory} memory hit(s), "
            f"{self.hits_store} store hit(s){queue}, {self.computed} computed"
            f"{enq}{shard}"
        )


#: Stats of the most recent ``run_matrix`` call in this process.
_LAST_STATS: MatrixStats | None = None


def last_matrix_stats() -> MatrixStats | None:
    """Hit/miss counters of the most recent :func:`run_matrix` call."""
    return _LAST_STATS


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``i/N`` shard designator into ``(index, count)``."""
    try:
        index_s, _, count_s = text.partition("/")
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise ValueError(f"shard must look like i/N, got {text!r}") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must satisfy 0 <= i < N, got {index}/{count}"
        )
    return index, count


def _in_shard(key: str, shard: tuple[int, int] | None) -> bool:
    """Deterministic cell-to-shard assignment over the content digest.

    Keying on the digest (not the enumeration index) makes the partition
    a property of the cell itself: disjoint by construction, covering
    the matrix, and stable no matter how callers slice the policy list.
    """
    if shard is None:
        return True
    index, count = shard
    return int(key[:16], 16) % count == index


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one (program, policy, configuration) cell."""

    benchmark: str
    policy: str
    dbcs: int
    shifts: int
    report: SimReport

    @property
    def runtime_ns(self) -> float:
        return self.report.runtime_ns

    @property
    def total_energy_pj(self) -> float:
        return self.report.total_energy_pj


def run_policy_on_program(
    program: BenchmarkProgram,
    policy: Policy,
    config: RTMConfig,
    rng=None,
    backend: object = None,
    fault: FaultModel | None = None,
) -> CellResult:
    """Place and simulate every sequence of ``program`` independently.

    Every trace, in memory or streamed, takes the same path: placement
    sees the trace's
    :meth:`~repro.trace.trace.MemoryTrace.placement_sequence` (for a
    streamed trace, possibly windowed and materialized only while it
    is placed), and the controller replays the trace chunk by chunk. On
    multi-port geometries the analytic single-port ``shifts`` column is
    computed by an observer :class:`~repro.engine.ShiftCursor` riding
    the same pass — warm single-port cost is independent of the port
    anchor, so the observer reproduces
    :func:`~repro.core.cost.shift_cost` exactly. With the default full
    placement window, a streamed cell is bit-identical to its in-memory
    twin.

    ``fault`` injects the engine's deterministic shift-fault model,
    scrubbing included, into every simulated trace (fresh per-trace
    controllers, so fault draws and scrubs are a pure function of the
    model and each trace's own access indices). Because faults never perturb
    the *believed* dynamics, the charged ``shifts`` column is identical
    to the clean run's — the single-port reuse below stays exact — and
    only the report's fault observability columns change.
    """
    gen = ensure_rng(rng)
    params = params_for(config)
    capacity = config.locations_per_dbc
    single_port = config.ports_per_track == 1
    total_shifts = 0
    total_report: SimReport | None = None
    for trace in program.traces:
        seq = trace.placement_sequence()
        placement = policy.place(seq, config.dbcs, capacity, rng=gen)
        placement.validate_for(seq, num_dbcs=config.dbcs, capacity=capacity)
        del seq  # a streamed trace's codes are only needed for placement
        controller = RTMController(
            config, placement, params=params, backend=backend, fault=fault,
        )
        if single_port:
            # Analytic model and simulator are the same engine kernel on
            # this path; reuse the simulated count instead of recomputing.
            report = controller.execute_stream(trace)
            total_shifts += report.shifts
        else:
            # The cell's ``shifts`` column stays the single-port analytic
            # cost (the paper's Fig. 4 quantity) even on multi-port
            # geometries, where the simulated count differs.
            observer = ShiftCursor(
                num_dbcs=placement.num_dbcs, domains=capacity,
                ports=1, warm_start=True, backend=backend,
            )
            report = controller.execute_stream(
                trace,
                chunk_hooks=(
                    lambda _c, dbc, slot: observer.replay_chunk(dbc, slot),
                ),
            )
            total_shifts += observer.shifts
        total_report = report if total_report is None else total_report + report
    assert total_report is not None
    return CellResult(
        benchmark=program.name,
        policy=policy.name,
        dbcs=config.dbcs,
        shifts=total_shifts,
        report=total_report,
    )


def policy_specs(
    names: Sequence[str], profile: EvalProfile
) -> list[PolicySpec]:
    """Picklable policy recipes with the profile's search budgets applied.

    ``profile.search_scale`` multiplies the GA population (``mu``/``lam``)
    and the RW iteration budget; at the default scale of 1.0 the specs —
    and therefore the matrix runner's content-keyed cell cache keys — are
    untouched.
    """
    scale = profile.search_scale
    specs: list[PolicySpec] = []
    for name in names:
        if name == "GA":
            options = dict(profile.ga_options)
            if scale != 1.0:
                from repro.core.ga import GAConfig

                defaults = GAConfig()
                for knob in ("mu", "lam"):
                    base = options.get(knob, getattr(defaults, knob))
                    options[knob] = max(1, round(base * scale))
            specs.append((name, options))
        elif name == "RW":
            iterations = profile.rw_iterations
            if scale != 1.0:
                iterations = max(1, round(iterations * scale))
            specs.append((name, {"iterations": iterations}))
        else:
            specs.append((name, {}))
    return specs


def load_suite(profile: EvalProfile) -> list[BenchmarkProgram]:
    """The profile's workload programs, resolved through the registry.

    ``profile.workloads`` specs (``offsetstone:h263``,
    ``file:traces/app.trc@interleave=2``, ...) resolve through
    :mod:`repro.workloads`; when unset, the profile's ``benchmarks``
    names resolve as bare ``offsetstone:`` specs — bit-identical to the
    historical direct suite loader, so existing stores stay warm.
    """
    from repro.workloads import WorkloadContext, resolve_workloads

    return resolve_workloads(
        profile.workload_specs, WorkloadContext.from_profile(profile)
    )


# -- cell recipes -------------------------------------------------------------

#: Geometry fields a cell key and a queue payload carry, in key order.
_GEOMETRY = ("dbcs", "tracks_per_dbc", "domains_per_track",
             "ports_per_track", "banks", "subarrays")


@dataclass(frozen=True)
class CellRecipe:
    """Everything one cell's result depends on besides its program.

    A cell is a pure function of its program and its recipe, and the
    serial loop, the process pool and queue workers all compute it
    through :meth:`compute`. :meth:`key` is the content digest the
    in-memory cache, the store and the work queue address the cell by;
    :meth:`to_json`/:meth:`from_json` are the queue payload a remote
    worker rebuilds the recipe from.

    ``backend`` is a registered backend *name*. ``workload``/``context``
    name the registry workload the program resolves from; they are
    ``None`` for explicit program objects, which only a local run can
    compute.
    """

    policy: PolicySpec
    config: RTMConfig
    seed: int
    backend: str | None = None
    fault: FaultModel | None = None
    workload: str | None = None
    context: WorkloadContext | None = None

    def build_policy(self) -> Policy:
        """The policy, built from its spec (policy closures do not pickle)."""
        name, options = self.policy
        return get_policy(name, **options)

    def key(self, program: BenchmarkProgram) -> str:
        """Content digest identifying this recipe's cell of ``program``.

        Deterministic policies ignore their RNG stream, so their key
        omits the seed — cells recur across differently shaped matrices
        (each figure runs its own policy subset, which reshuffles seed
        assignment) and still hit the cache. A stochastic policy's key
        hashes the seed and then its stream tag, when it has one
        (:data:`repro.core.policies.STREAM_TAGS`): a new tag re-keys the
        policy's cells after a change to its RNG stream, and untagged
        policies keep their historical keys.

        The program side of the key is the resolved workload itself: the
        program name (for registry workloads, the canonical spec string)
        and the content fingerprints of its traces. External-trace and
        transformed workloads therefore shard, resume and regenerate
        through the store exactly like the built-in suite — and a
        changed trace file changes the key.
        """
        h = hashlib.sha256()
        update_program_digest(h, program)
        h.update(json.dumps(list(self.policy), sort_keys=True).encode())
        h.update(json.dumps(
            [getattr(self.config, f) for f in _GEOMETRY]
        ).encode())
        policy = self.build_policy()
        if not policy.deterministic:
            h.update(str(self.seed).encode())
            if policy.stream:
                h.update(policy.stream.encode())
        if self.backend is not None:
            h.update(self.backend.encode())
        if self.fault is not None:
            # Hashed only when a fault model is *active*, so every clean
            # cell keeps its historical key (existing stores stay warm) and
            # faulted/clean cells coexist under distinct keys in one store.
            h.update(json.dumps(
                ["fault", self.fault.key_payload(), self.fault.scrub_interval]
            ).encode())
        return h.hexdigest()

    def to_json(self) -> dict:
        """The queue payload; stable under ``json.dumps(sort_keys=True)``."""
        name, options = self.policy
        fault = self.fault
        return {
            "workload": self.workload,
            "context": asdict(self.context),
            "policy": [name, dict(options)],
            "config": {f: getattr(self.config, f) for f in _GEOMETRY},
            "seed": self.seed,
            "backend": self.backend,
            # Queue payloads are pinned byte for byte, so the scrub cadence
            # keeps its own top-level field beside the model's other three.
            "fault": None if fault is None else {
                "rate": fault.rate, "seed": fault.seed,
                "dbc_skew": fault.dbc_skew,
            },
            "scrub_interval": None if fault is None else fault.scrub_interval,
        }

    @classmethod
    def from_json(cls, job: dict) -> CellRecipe:
        """Rebuild a recipe from its queue payload."""
        name, options = job["policy"]
        fault = job.get("fault") or None
        if fault is not None:
            fault = FaultModel(**fault, scrub_interval=job.get("scrub_interval"))
        return cls(
            policy=(name, options),
            config=RTMConfig(**job["config"]),
            seed=job["seed"],
            backend=job.get("backend"),
            fault=fault,
            workload=job["workload"],
            context=WorkloadContext(**job["context"]),
        )

    def compute(self, program: BenchmarkProgram) -> CellResult:
        """Place and simulate ``program`` under this recipe."""
        return run_policy_on_program(
            program, self.build_policy(), self.config, rng=self.seed,
            backend=self.backend, fault=self.fault,
        )


# -- content-keyed result cache ---------------------------------------------

_CELL_CACHE: dict[str, CellResult] = {}


def clear_cell_cache() -> None:
    """Drop all memoized cell results (mostly for tests)."""
    _CELL_CACHE.clear()


# -- process-pool plumbing ---------------------------------------------------

#: Per-worker state installed by the pool initializer: the programs
#: (pickled once, or rehydrated zero-copy from a shared-memory arena)
#: and the arena whose mapping keeps those views alive.
_WORKER: dict = {}


def _reset_worker_state() -> None:
    """Tear down any state a previous pool left in this process.

    Forked workers inherit — and ``fork``-started pools within one
    process accumulate — the previous run's ``_WORKER`` dict and the
    engine's compiled-trace caches. Without this reset, every
    consecutive ``run_matrix`` call in one process leaked the prior
    suite's compiled arrays through ``_WORKER`` (regression-tested);
    clearing the compile caches alongside keeps the worker's footprint
    proportional to *its* suite, not the union of every suite its
    ancestor processes ever touched.
    """
    from repro.engine.compile import clear_compile_caches

    arena = _WORKER.pop("arena", None)
    if arena is not None:
        arena.close()
    _WORKER.clear()
    clear_compile_caches()


def _init_worker(programs: Sequence[BenchmarkProgram], arena_spec=None) -> None:
    _reset_worker_state()
    if arena_spec is not None:
        from repro.engine.compile import SharedTraceArena

        arena = SharedTraceArena.attach(arena_spec)
        _WORKER["arena"] = arena  # keeps the mapping alive with the views
        programs = arena.programs()
    _WORKER["programs"] = list(programs)


def _run_cell_job(job: tuple[int, CellRecipe]) -> CellResult:
    program_i, recipe = job
    return recipe.compute(_WORKER["programs"][program_i])


# -- persistent store plumbing ----------------------------------------------


def _resolve_store(store, profile: EvalProfile):
    """Open the requested store; ``(store, owned)`` where ``owned`` means
    this call must close it."""
    if store is None:
        store = profile.store
    if store is None:
        return None, False
    if isinstance(store, (str, os.PathLike)):
        from repro.store import ExperimentStore

        return ExperimentStore(store), True
    return store, False


def provenance() -> dict:
    """Package, store-schema and Python versions for a run manifest."""
    import platform

    from repro import __version__
    from repro.store import SCHEMA_VERSION

    return {
        "package_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
    }


def _run_manifest(
    profile: EvalProfile,
    policy_names: Sequence[str],
    backend: str | None,
    workers: int,
    shard: tuple[int, int] | None,
    cells_total: int,
) -> dict:
    """Provenance recorded alongside every store-backed run."""
    return {
        "profile": {
            "name": profile.name,
            "suite_scale": profile.suite_scale,
            "ga_options": dict(profile.ga_options),
            "rw_iterations": profile.rw_iterations,
            "seed": profile.seed,
            "benchmarks": list(profile.benchmarks),
            "workloads": list(profile.workload_specs),
            "write_ratio": profile.write_ratio,
            "search_scale": profile.search_scale,
            "ports": list(profile.ports),
            "fault_rate": profile.fault_rate,
            "scrub_interval": profile.scrub_interval,
        },
        "policies": list(policy_names),
        "backend": str(backend),
        "workers": workers,
        "shard": f"{shard[0]}/{shard[1]}" if shard else None,
        "cells_total": cells_total,
        **provenance(),
    }


def run_matrix(
    policy_names: Sequence[str],
    profile: EvalProfile = QUICK_PROFILE,
    configs: Iterable[RTMConfig] | None = None,
    programs: Sequence[BenchmarkProgram] | None = None,
    use_cache: bool = True,
    store=None,
    shard: tuple[int, int] | str | None = None,
    enqueue: bool = False,
) -> dict[tuple[str, str, int], CellResult]:
    """Run the full (program x config x policy) matrix.

    Results are keyed by ``(benchmark, policy, dbcs)``. Every cell gets an
    independent deterministic RNG stream derived from the profile seed, so
    sub-matrices reproduce the full matrix's cells exactly and the worker
    count never changes any number. The profile is the only source of the
    execution knobs — backend, workers, shared traces, faults, ``offline``
    — and is checked against :data:`~repro.eval.profiles.KNOBS` before
    any work (:func:`~repro.eval.profiles.check_profile`; errors name the
    field). A backend instance is keyed and shipped by its registered
    name. ``use_cache`` consults and fills the process-wide content-keyed
    cell cache.

    ``store`` (an :class:`repro.store.ExperimentStore`, a path, or the
    profile's ``store`` field) adds the persistent layer: cells missing
    from the in-memory cache are looked up on disk, and freshly computed
    cells are written back one by one — from this parent process only —
    so an interrupted run resumes where it stopped. ``shard=(i, N)`` (or
    ``"i/N"``) restricts computation to a deterministic slice of the
    cells keyed on their content digest: shards are disjoint, cover the
    matrix, and assign cells independently of who runs them, so N
    machines pointed at (copies of) one store partition the work and
    their merged store reproduces the unsharded run bit-identically.
    The profile's ``offline`` flag forbids simulation: every cell must
    come from a cache layer, otherwise an
    :class:`~repro.errors.ExperimentError` is raised — the "regenerate
    reports without recomputing" mode.

    ``enqueue=True`` *submits* instead of simulating: every cell missing
    from both cache layers becomes an open row in the store's work queue
    (:mod:`repro.store.queue`) carrying its :class:`CellRecipe` payload
    under the same content key the cell will be stored with, priced by
    the workload's access count so claims hand out expensive cells
    first. Warm cells are returned as usual, so the result dict is the
    already-available slice of the matrix. Requires a store and
    profile-resolved workloads (``programs`` must be left ``None``: an
    explicit program object carries no registry spec a remote worker
    could resolve).

    The profile's ``shared_traces`` flag publishes the compiled traces
    to pool workers through one zero-copy shared-memory arena
    (:class:`~repro.engine.compile.SharedTraceArena`) instead of pickling
    the suite into every worker — bit-identical results, and peak memory
    stays flat in the worker count. Platforms without shm fall back to
    pickling transparently. The arena lives exactly as long as the pool:
    created right before it, closed and unlinked in a ``finally`` (plus
    an ``atexit`` guard) even when a worker crashes.

    Hit/miss counters for the run are available afterwards via
    :func:`last_matrix_stats`.
    """
    global _LAST_STATS
    profile = check_profile(profile)
    programs_explicit = programs is not None
    programs = list(programs) if programs is not None else load_suite(profile)
    configs = list(configs) if configs is not None else iso_capacity_sweep()
    specs = policy_specs(policy_names, profile)
    backend = profile.engine_backend
    fault = (
        FaultModel(rate=profile.fault_rate, seed=profile.seed,
                   scrub_interval=profile.scrub_interval)
        if profile.fault_rate else None
    )
    if isinstance(shard, str):
        shard = parse_shard(shard)
    workers = profile.workers or (os.cpu_count() or 1)
    store_obj, owned_store = _resolve_store(store, profile)
    if enqueue:
        if store_obj is None:
            raise ExperimentError(
                "enqueue mode needs a store: the work queue lives in it "
                "(pass store=, set the profile's store, or REPRO_STORE)"
            )
        if profile.offline:
            raise ExperimentError(
                "enqueue and offline conflict: one submits missing cells, "
                "the other forbids their existence"
            )
        if programs_explicit:
            raise ExperimentError(
                "enqueue mode needs profile-resolved workloads: an "
                "explicit program object carries no registry spec a "
                "remote worker could resolve"
            )
    if programs_explicit:
        workloads, context = [None] * len(programs), None
    else:
        workloads = profile.workload_specs
        context = WorkloadContext.from_profile(profile)
    stats = MatrixStats(shard=shard)
    seeds = iter(spawn_seeds(ensure_rng(profile.seed),
                             len(programs) * len(configs) * len(specs)))
    results: dict[tuple[str, str, int], CellResult] = {}
    pending: list[tuple[tuple[str, str, int], str, int, CellRecipe]] = []
    store_hit_keys: list[str] = []
    try:
        for pi, program in enumerate(programs):
            for config in configs:
                for spec in specs:
                    recipe = CellRecipe(
                        spec, config, next(seeds), backend, fault,
                        workloads[pi], context,
                    )
                    key = recipe.key(program)
                    if not _in_shard(key, shard):
                        stats.sharded_out += 1
                        continue
                    stats.cells_total += 1
                    result_key = (program.name, spec[0], config.dbcs)
                    cached = _CELL_CACHE.get(key) if use_cache else None
                    if cached is not None:
                        results[result_key] = cached
                        stats.hits_memory += 1
                        continue
                    if store_obj is not None:
                        stored = store_obj.get_cell(key)
                        if stored is not None:
                            results[result_key] = stored
                            stats.hits_store += 1
                            store_hit_keys.append(key)
                            if use_cache:
                                _CELL_CACHE[key] = stored
                            continue
                    pending.append((result_key, key, pi, recipe))
        if store_hit_keys:
            # Credit store hits computed by queue workers: the queue and
            # the cell cache share the content-key namespace, so a done
            # queue row under a hit key means the work happened remotely.
            from repro.store.queue import WorkQueue

            stats.hits_queue = len(
                WorkQueue(store_obj).done_among(store_hit_keys)
            )
        if pending and profile.offline:
            missing = sorted({entry[0] for entry in pending})
            raise ExperimentError(
                f"offline run: {len(pending)} cell(s) missing from the "
                f"store (first: {missing[0]}); run without --from-store "
                f"to compute them"
            )
        manifest = None
        if pending and store_obj is not None:
            manifest = _run_manifest(
                profile, policy_names, backend, 0 if enqueue else workers,
                shard, stats.cells_total,
            )
        if pending and enqueue:
            _enqueue_pending(pending, programs, store_obj, stats, manifest)
        elif pending:
            _compute_pending(
                pending, programs, workers, profile.shared_traces, use_cache,
                store_obj, stats, results, manifest,
            )
    finally:
        _LAST_STATS = stats
        logger.info("run_matrix: %s", stats.describe())
        if owned_store and store_obj is not None:
            store_obj.close()
    return results


def _enqueue_pending(pending, programs, store_obj, stats, manifest) -> None:
    """Submit the cache-missing cells to the store's work queue.

    Each queue row carries its cell's :class:`CellRecipe` payload: the
    *workload spec* (not the resolved program — resolution is
    deterministic under the profile context, so the worker re-derives
    bit-identical traces), the policy spec, the geometry, the per-cell
    seed the serial runner would have used, the backend name and the
    fault model. The queue key is the cell's content digest, so workers
    can re-derive the key from the recipe and assert it matches —
    serialization drift surfaces as a hard error, never as a
    wrong-keyed cell. ``cost_hint`` is the workload's access count:
    claims hand out big cells first, which is what lets a worker pool
    beat static sharding on skewed matrices.
    """
    from repro.store.queue import QueueJob, WorkQueue

    started = time.perf_counter()
    manifest["mode"] = "enqueue"
    run_id = store_obj.begin_run(manifest)
    stats.run_id = run_id
    jobs = [
        QueueJob(
            key=key, benchmark=benchmark, policy=policy, dbcs=dbcs,
            job=recipe.to_json(), cost_hint=programs[pi].total_accesses,
        )
        for (benchmark, policy, dbcs), key, pi, recipe in pending
    ]
    counts = WorkQueue(store_obj).submit(jobs)
    stats.enqueued = len(jobs)
    store_obj.finish_run(
        run_id,
        status="enqueued",
        wall_time_s=time.perf_counter() - started,
        cells_total=stats.cells_total,
        hits_memory=stats.hits_memory,
        hits_store=stats.hits_store,
        computed=0,
    )
    logger.info(
        "run_matrix enqueue: %d cell(s) -> queue (%d new, %d already "
        "queued, %d already stored)",
        len(jobs), counts["submitted"], counts["already_queued"],
        counts["already_stored"],
    )


def _compute_pending(
    pending, programs, workers, shared_traces, use_cache, store_obj, stats,
    results, manifest,
) -> None:
    """Compute the cache-missing cells, persisting each as it lands.

    Cells are committed — to the result dict, the in-memory cache and
    the store — one at a time as the (ordered) pool iterator yields
    them, so a crash or kill mid-run loses at most the cells still in
    flight; the next invocation resumes from the store.
    """
    run_id = None
    started = time.perf_counter()
    if store_obj is not None:
        run_id = store_obj.begin_run(manifest)
        stats.run_id = run_id

    def commit(entry, cell: CellResult) -> None:
        result_key, key, _pi, _recipe = entry
        results[result_key] = cell
        stats.computed += 1
        if use_cache:
            _CELL_CACHE[key] = cell
        if store_obj is not None:
            store_obj.put_cell(key, cell, run_id=run_id)

    status = "failed"
    arena = None
    try:
        if workers > 1 and len(pending) > 1:
            if shared_traces:
                from repro.engine.compile import try_create_arena

                arena = try_create_arena(programs)
            # With an arena, workers rebuild the suite from zero-copy shm
            # views; only skeletons (names, variables) travel by pickle.
            initargs = (programs, None) if arena is None else ((), arena.spec)
            jobs = [(pi, recipe) for _, _, pi, recipe in pending]
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                initializer=_init_worker,
                initargs=initargs,
            ) as pool:
                for entry, cell in zip(pending, pool.map(_run_cell_job, jobs)):
                    commit(entry, cell)
        else:
            for entry in pending:
                _, _, pi, recipe = entry
                commit(entry, recipe.compute(programs[pi]))
        status = "complete"
    finally:
        if arena is not None:
            arena.dispose()
        if store_obj is not None:
            store_obj.finish_run(
                run_id,
                status=status,
                wall_time_s=time.perf_counter() - started,
                cells_total=stats.cells_total,
                hits_memory=stats.hits_memory,
                hits_store=stats.hits_store,
                computed=stats.computed,
            )
