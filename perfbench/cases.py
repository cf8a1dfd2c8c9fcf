"""The benchmark's workloads and their output checks.

Each workload is a closed batch job run from one client process: one
call runs every cell of the workload and returns only after the last
result was checked. A failed check marks its cell failed and lowers
``cells_ok_frac``; it never aborts the run. A pass that raises marks
all of its cells failed, because ``run_matrix`` returns no partial
matrix.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.core.policies import PAPER_POLICIES, Policy
from repro.engine import resolve_backend_name
from repro.eval import experiments, runner
from repro.eval.experiments import SEC4C_POLICIES
from repro.eval.profiles import QUICK_PROFILE, SMOKE_PROFILE
from repro.rtm.geometry import iso_capacity_sweep

#: The heuristics the GA seeds its population with; the GA is elitist,
#: so it can never end worse than the best of them.
GA_SEEDS = ("DMA-OFU", "DMA-Chen", "DMA-SR")
#: fig4-search runs all 31 benchmarks on this one configuration: the
#: seed regenerates the suite, and over 31 programs the work per seed
#: varies far less than over the four smoke-profile programs. Half the
#: quick profile's search budgets keep a repetition near 10 s, so a run
#: fits two or more.
FIG4_DBCS = 4
FIG4_SEARCH_SCALE = 0.5
TRACE_POLICIES = ("AFD-OFU", "DMA-SR")
TRACE_DBCS = (4, 8)


class PlacementCheckError(Exception):
    """A policy returned a placement that fails the benchmark's own check."""


def placement_problem(placement, sequence, num_dbcs: int, capacity: int) -> str | None:
    """Why ``placement`` is not a valid placement of ``sequence``, or None.

    Independent of the program's own ``Placement.validate_for``, so a
    change that weakens that validation still fails here.
    """
    dbcs = placement.dbc_lists()
    if len(dbcs) != num_dbcs:
        return f"{len(dbcs)} DBCs on a {num_dbcs}-DBC device"
    placed = [v for dbc in dbcs for v in dbc if v is not None]
    if len(placed) != len(set(placed)):
        return "a variable is placed twice"
    if set(placed) != set(sequence.variables):
        return "placed variables differ from the sequence's variables"
    fullest = max(len(dbc) for dbc in dbcs)
    if fullest > capacity:
        return f"a DBC holds {fullest} locations, capacity is {capacity}"
    return None


def install_placement_check() -> None:
    """Check every placement any policy returns, in this process and in
    the pool workers it forks."""
    place = Policy.place

    @functools.wraps(place)
    def checked(self, sequence, num_dbcs, capacity, rng=None):
        placement = place(self, sequence, num_dbcs, capacity, rng)
        problem = placement_problem(placement, sequence, num_dbcs, capacity)
        if problem is not None:
            raise PlacementCheckError(f"{self.name}: {problem}")
        return placement

    Policy.place = checked


@dataclass
class Case:
    """Inputs of one repetition."""

    workload: str
    seed: int
    workdir: str
    trace_path: str | None = None
    #: Tiny inputs for the self-tests.
    toy: bool = False
    #: Called with "cold"/"warm" as suite-pool's passes start.
    phase: Callable[[str], None] = lambda _name: None
    #: Called with the store path between suite-pool's passes.
    between_passes: Callable[[str], None] | None = None


@dataclass
class Outcome:
    """Checked results of one repetition."""

    attempted: int = 0
    failed_cells: set = field(default_factory=set)
    failures: list[str] = field(default_factory=list)
    sims: dict = field(default_factory=dict)
    computed: int = 0
    from_store: int = 0
    backend: str = ""

    @property
    def failed(self) -> int:
        return len(self.failed_cells)

    def fail(self, key, why: str) -> None:
        self.failed_cells.add(key)
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")


def _sims(matrix) -> dict:
    """Simulated totals over the cells (sorted, so float sums repeat)."""
    cells = [matrix[k] for k in sorted(matrix)]
    return {
        "shifts": sum(c.shifts for c in cells),
        "runtime_ns": sum(c.report.runtime_ns for c in cells),
        "energy_pj": sum(c.report.total_energy_pj for c in cells),
        "misaligned": sum(c.report.fault_misaligned for c in cells),
        "accesses": sum(c.report.accesses for c in cells),
    }


def _run_pass(out: Outcome, tag: str, expected: int, profile, policies,
              report: str | None = None, **matrix_kwargs):
    """Run one matrix pass (plus its experiment report) and check its cells.

    Returns ``(matrix, stats)``, or ``(None, None)`` when the pass raised.
    """
    out.attempted += expected
    try:
        matrix = runner.run_matrix(policies, profile, **matrix_kwargs)
        stats = runner.last_matrix_stats()
        if report is not None:
            getattr(experiments, report)(profile, matrix=matrix)
    except Exception as exc:  # a failing pass is a finding, not a crash
        out.failed_cells.update((tag, i) for i in range(expected))
        out.failures.append(f"{tag}: {type(exc).__name__}: {exc}")
        return None, None
    out.computed += stats.computed
    out.from_store += stats.hits_store
    for i in range(expected - len(matrix)):
        out.fail((tag, "missing", i), "cell missing from the matrix")
    accesses: dict[str, int] = {}
    for key, cell in matrix.items():
        # Every policy and configuration replays the same program, so
        # all cells of one program must replay the same access count.
        first = accesses.setdefault(key[0], cell.report.accesses)
        if cell.report.accesses <= 0 or cell.report.accesses != first:
            out.fail((tag, *key), f"replayed {cell.report.accesses} accesses, "
                                  f"another cell of {key[0]} replayed {first}")
    return matrix, stats


def fig4_search(case: Case) -> Outcome:
    """Fig. 4 over the whole suite on one configuration, with half the
    quick profile's search budgets."""
    if case.toy:
        profile = replace(SMOKE_PROFILE, benchmarks=("adpcm",), seed=case.seed)
    else:
        profile = replace(QUICK_PROFILE, suite_scale=SMOKE_PROFILE.suite_scale,
                          search_scale=FIG4_SEARCH_SCALE, seed=case.seed)
    configs = [c for c in iso_capacity_sweep() if c.dbcs == FIG4_DBCS]
    out = Outcome(backend=resolve_backend_name(profile.engine_backend))
    expected = len(profile.workload_specs) * len(configs) * len(PAPER_POLICIES)
    matrix, _ = _run_pass(out, "fig4", expected, profile, PAPER_POLICIES,
                          report="experiment_fig4", configs=configs)
    if matrix is None:
        return out
    for (bench, policy, dbcs), cell in matrix.items():
        if policy != "GA":
            continue
        best = min(matrix[(bench, h, dbcs)].shifts for h in GA_SEEDS)
        if cell.shifts > best:
            out.fail(("fig4", bench, policy, dbcs),
                     f"GA {cell.shifts} shifts > best seeding heuristic {best}")
    out.sims = _sims(matrix)
    return out


def _trace_case(case: Case, stream: bool) -> Outcome:
    params = "max_vars=64" if case.toy else "max_vars=512"
    if stream:
        params += ",stream=1,chunk=" + ("4096" if case.toy else "20000")
    profile = replace(QUICK_PROFILE, workloads=(f"file:{case.trace_path},{params}",),
                      seed=case.seed)
    configs = [c for c in iso_capacity_sweep() if c.dbcs in TRACE_DBCS]
    out = Outcome(backend=resolve_backend_name(profile.engine_backend))
    matrix, _ = _run_pass(out, case.workload, len(TRACE_POLICIES) * len(configs),
                          profile, TRACE_POLICIES, configs=configs)
    if matrix is not None:
        out.sims = _sims(matrix)
    return out


def trace_ingest(case: Case) -> Outcome:
    """The address trace resolved in memory."""
    return _trace_case(case, stream=False)


def trace_stream(case: Case) -> Outcome:
    """The same trace resolved by the two-pass streaming census."""
    return _trace_case(case, stream=True)


def suite_pool(case: Case) -> Outcome:
    """Sec. IV-C pooled with faults and scrubbing into a fresh store, then
    regenerated offline from that store."""
    store = os.path.join(case.workdir, "store.sqlite")
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(store + suffix):
            os.remove(store + suffix)
    profile = replace(
        QUICK_PROFILE, suite_scale=0.5, seed=case.seed, workers=2,
        shared_traces=True, fault_rate=0.01, scrub_interval=64, store=store,
    )
    if case.toy:
        profile = replace(profile, suite_scale=0.12,
                          benchmarks=("adpcm", "bison", "viterbi"))
    out = Outcome(backend=resolve_backend_name(profile.engine_backend))
    expected = (len(profile.workload_specs) * len(iso_capacity_sweep())
                * len(SEC4C_POLICIES))
    case.phase("cold")
    cold, stats = _run_pass(out, "cold", expected, profile, SEC4C_POLICIES,
                            report="experiment_sec4c")
    if cold is None:
        return out
    for i in range(expected - stats.computed):
        out.fail(("cold", "not-computed", i), "cell not computed by the cold pass")
    out.sims = _sims(cold)
    # Drop the in-process cell cache so the warm pass must read the store.
    runner.clear_cell_cache()
    if case.between_passes is not None:
        case.between_passes(store)
    case.phase("warm")
    offline = replace(profile, offline=True)
    warm, stats = _run_pass(out, "warm", expected, offline, SEC4C_POLICIES,
                            report="experiment_sec4c")
    if warm is None:
        return out
    for i in range(expected - stats.hits_store):
        out.fail(("warm", "not-from-store", i), "cell not served from the store")
    for key, cell in cold.items():
        if warm.get(key) != cell:
            out.fail(("warm", *key), "warm cell differs from the cold pass")
    return out


RUNNERS: dict[str, Callable[[Case], Outcome]] = {
    "fig4-search": fig4_search,
    "trace-ingest": trace_ingest,
    "trace-stream": trace_stream,
    "suite-pool": suite_pool,
}


def run(case: Case) -> Outcome:
    """Run ``case.workload`` with every cell computed afresh."""
    runner.clear_cell_cache()
    return RUNNERS[case.workload](case)
