"""Experiment definitions: one function per table/figure of the paper.

Each returns an :class:`ExperimentResult` holding the regenerated rows,
the headline measured numbers and the paper's corresponding numbers, so
the benchmark harness can print paper-vs-measured side by side (archived
in EXPERIMENTS.md).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import per_dbc_shift_costs, shift_cost
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.inter.afd import afd_placement
from repro.core.inter.dma import dma_placement, dma_split
from repro.core.policies import PAPER_POLICIES, get_policy
from repro.core.random_walk import random_walk_search
from repro.errors import ExperimentError
from repro.eval.profiles import EvalProfile, QUICK_PROFILE
from repro.eval.runner import (
    CellResult,
    MatrixStats,
    last_matrix_stats,
    run_matrix,
)
from repro.rtm.geometry import TABLE1_DBC_COUNTS, iso_capacity_sweep
from repro.rtm.timing import destiny_params, table1_rows
from repro.trace.generators.offsetstone import largest_sequence_benchmark
from repro.trace.sequence import AccessSequence
from repro.util.mathx import geometric_mean, percent_improvement
from repro.workloads import WorkloadContext, resolve_workload

Matrix = dict[tuple[str, str, int], CellResult]


@dataclass
class ExperimentResult:
    """Regenerated artifact plus paper-vs-measured headline numbers."""

    experiment_id: str
    title: str
    header: list[str]
    rows: list[list]
    summary: dict[str, float] = field(default_factory=dict)
    paper: dict[str, float] = field(default_factory=dict)
    notes: str = ""


# ---------------------------------------------------------------------------
# The experiment matrix: which policies each matrix-backed figure needs
# ---------------------------------------------------------------------------

FIG5_POLICIES: tuple[str, ...] = ("AFD-OFU", "DMA-OFU", "DMA-SR")
FIG6_POLICIES: tuple[str, ...] = ("AFD-OFU", "DMA-SR")
SEC4C_POLICIES: tuple[str, ...] = ("AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR")

#: Policy list per matrix-backed experiment — the contract sharded
#: populate runs and report regeneration share: a shard run computes
#: cells for exactly this list, so the later full (or offline) run asks
#: for identical cell keys and seed assignments.
MATRIX_POLICIES: dict[str, tuple[str, ...]] = {
    "fig4": tuple(PAPER_POLICIES),
    "fig5": FIG5_POLICIES,
    "fig6": FIG6_POLICIES,
    "sec4c": SEC4C_POLICIES,
}


def matrix_policies(experiment_id: str) -> tuple[str, ...]:
    """The policy list of a matrix experiment; raises for any other id."""
    try:
        return MATRIX_POLICIES[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"{experiment_id!r} is not a matrix experiment; "
            f"choose from {sorted(MATRIX_POLICIES)}"
        ) from None


def populate_matrix(
    experiment_id: str,
    profile: EvalProfile = QUICK_PROFILE,
    shard: tuple[int, int] | str | None = None,
    store=None,
) -> MatrixStats:
    """Fill the (store-backed) matrix for one experiment without reporting.

    The shard workflow's compute half: ``populate_matrix("fig4", ...,
    shard=(i, N))`` on N machines computes disjoint cell slices whose
    union — merged stores, or one shared store — lets the plain
    ``experiment_fig4`` regenerate its report with zero simulation.
    """
    run_matrix(matrix_policies(experiment_id), profile, shard=shard,
               store=store)
    return last_matrix_stats()


def enqueue_matrix(
    experiment_id: str,
    profile: EvalProfile = QUICK_PROFILE,
    store=None,
) -> MatrixStats:
    """Submit one experiment's matrix to the store's work queue.

    The distributed-queue workflow's submit half: every cell missing
    from the store becomes an open queue row carrying its recompute
    recipe, priced for longest-first claiming; any number of
    ``repro-worker`` processes pulling from the store then compute the
    matrix, and the plain ``experiment_<id>`` regenerates the report
    from the store with zero simulation once the queue drains. Warm
    cells are skipped — queue rows and stored cells share one content
    namespace.
    """
    run_matrix(matrix_policies(experiment_id), profile, store=store,
               enqueue=True)
    return last_matrix_stats()


# ---------------------------------------------------------------------------
# E-T1: Table I
# ---------------------------------------------------------------------------

def experiment_table1() -> ExperimentResult:
    """Regenerate Table I from the calibrated parameter model."""
    rows = [[label, *values] for label, values in table1_rows()]
    paper = {
        "leakage_mw@16": 8.94,
        "shift_energy_pj@2": 2.18,
        "shift_latency_ns@16": 0.78,
        "area_mm2@2": 0.0159,
    }
    p16, p2 = destiny_params(16), destiny_params(2)
    summary = {
        "leakage_mw@16": p16.leakage_mw,
        "shift_energy_pj@2": p2.shift_energy_pj,
        "shift_latency_ns@16": p16.shift_latency_ns,
        "area_mm2@2": p2.area_mm2,
    }
    return ExperimentResult(
        experiment_id="table1",
        title="Table I: memory system parameters (4KiB RTM, 32nm, 32 tracks/DBC)",
        header=["Parameter", *[str(q) + " DBCs" for q in TABLE1_DBC_COUNTS]],
        rows=rows,
        summary=summary,
        paper=paper,
        notes="Anchored calibration: tabulated values are reproduced exactly; "
              "other DBC counts are log-log interpolated.",
    )


# ---------------------------------------------------------------------------
# E-F3: the worked example of Fig. 3
# ---------------------------------------------------------------------------

def fig3_sequence() -> AccessSequence:
    """The paper's running example (Fig. 3-(a,b))."""
    return AccessSequence(
        list("ababcacaddaiefefgeghgihi"), variables=list("abcdefghi"), name="fig3"
    )


def experiment_fig3() -> ExperimentResult:
    """Reproduce the Fig. 3 walk-through end to end."""
    seq = fig3_sequence()
    afd = afd_placement(seq, 2, 512)
    afd_costs = per_dbc_shift_costs(seq, afd)
    split = dma_split(seq)
    dma = dma_placement(seq, 2, 512)
    dma_costs = per_dbc_shift_costs(seq, dma)
    rows = [
        ["AFD DBC0", " ".join(afd.dbc_lists()[0]), afd_costs[0]],
        ["AFD DBC1", " ".join(afd.dbc_lists()[1]), afd_costs[1]],
        ["AFD total", "", sum(afd_costs)],
        ["DMA Vdj", " ".join(split.vdj), split.disjoint_frequency_sum],
        ["DMA DBC0", " ".join(dma.dbc_lists()[0]), dma_costs[0]],
        ["DMA DBC1", " ".join(dma.dbc_lists()[1]), dma_costs[1]],
        ["DMA total", "", sum(dma_costs)],
    ]
    summary = {
        "afd_total": float(sum(afd_costs)),
        "afd_s0": float(afd_costs[0]),
        "afd_s1": float(afd_costs[1]),
        "dma_total": float(sum(dma_costs)),
        "vdj_freq_sum": float(split.disjoint_frequency_sum),
        "improvement_x": sum(afd_costs) / sum(dma_costs),
    }
    paper = {
        "afd_total": 39.0,
        "afd_s0": 24.0,
        "afd_s1": 15.0,
        "dma_total": 11.0,
        "vdj_freq_sum": 11.0,
        "improvement_x": 3.54,
    }
    return ExperimentResult(
        experiment_id="fig3",
        title="Fig. 3: worked example (AFD vs sequence-aware placement)",
        header=["Step", "Placement", "Shifts"],
        rows=rows,
        summary=summary,
        paper=paper,
        notes="AFD reproduces the figure exactly (39 = 24 + 15). Algorithm 1 "
              "as pseudocoded orders DBC1 by descending frequency, giving 10 "
              "shifts; the figure's hand-drawn DBC1 order (a f g i) costs 11. "
              "Our result is one shift better than the figure and preserves "
              "Vdj = {b,c,d,e,h} with frequency sum 11.",
    )


# ---------------------------------------------------------------------------
# E-F4: Fig. 4, normalized shift costs
# ---------------------------------------------------------------------------

def _norm_ratio(cost: int, reference: int) -> float:
    """Cost normalized to a reference; 0/0 counts as parity."""
    if reference > 0:
        return cost / reference
    return 1.0 if cost == 0 else float(cost)


def _smoothed_ratio(numerator: int, denominator: int) -> float:
    """Add-one-smoothed cost ratio for geometric-mean aggregation.

    Degenerate benchmarks can have zero shifts under one policy (tiny
    sequences spread over many DBCs); plain ratios would then be 0 or
    infinite and wreck the geomean. ``(n+1)/(d+1)`` keeps those cells
    finite while leaving realistic cell ratios essentially unchanged.
    """
    return (numerator + 1) / (denominator + 1)


def experiment_fig4(
    profile: EvalProfile = QUICK_PROFILE,
    matrix: Matrix | None = None,
    policies: Sequence[str] = PAPER_POLICIES,
) -> ExperimentResult:
    """Normalized shift cost per benchmark/configuration (log axis of Fig. 4)."""
    if matrix is None:
        matrix = run_matrix(policies, profile)
    dbc_counts = sorted({k[2] for k in matrix})
    benchmarks = sorted({k[0] for k in matrix})
    header = ["Benchmark", "DBCs", *policies]
    rows: list[list] = []
    ratios: dict[tuple[str, int], dict[str, float]] = {}
    for bench in benchmarks:
        for q in dbc_counts:
            ga_cost = matrix[(bench, "GA", q)].shifts
            row: list = [bench, q]
            per_policy = {}
            for policy in policies:
                r = _norm_ratio(matrix[(bench, policy, q)].shifts, ga_cost)
                per_policy[policy] = r
                row.append(round(r, 3))
            ratios[(bench, q)] = per_policy
            rows.append(row)

    summary: dict[str, float] = {}
    for q in dbc_counts:
        # DMA-OFU improvement over AFD-OFU (the paper's 2.4/2.9/2.8/1.7 line).
        summary[f"dma_vs_afd_x@{q}"] = geometric_mean(
            [
                _smoothed_ratio(
                    matrix[(b, "AFD-OFU", q)].shifts,
                    matrix[(b, "DMA-OFU", q)].shifts,
                )
                for b in benchmarks
            ]
        )
        # Further gains of the intra-optimized variants over DMA-OFU.
        for variant, key in (("DMA-Chen", "chen"), ("DMA-SR", "sr")):
            summary[f"{key}_vs_dma_ofu_x@{q}"] = geometric_mean(
                [
                    _smoothed_ratio(
                        matrix[(b, "DMA-OFU", q)].shifts,
                        matrix[(b, variant, q)].shifts,
                    )
                    for b in benchmarks
                ]
            )
        # Normalized-to-GA geomeans (the plotted series).
        for policy in policies:
            summary[f"norm_{policy}@{q}"] = geometric_mean(
                [ratios[(b, q)][policy] for b in benchmarks]
            )
    paper = {
        "dma_vs_afd_x@2": 2.4, "dma_vs_afd_x@4": 2.9,
        "dma_vs_afd_x@8": 2.8, "dma_vs_afd_x@16": 1.7,
        "chen_vs_dma_ofu_x@2": 1.8, "chen_vs_dma_ofu_x@4": 1.6,
        "chen_vs_dma_ofu_x@8": 1.3, "chen_vs_dma_ofu_x@16": 1.4,
        "sr_vs_dma_ofu_x@2": 2.0, "sr_vs_dma_ofu_x@4": 1.8,
        "sr_vs_dma_ofu_x@8": 1.5, "sr_vs_dma_ofu_x@16": 1.6,
    }
    return ExperimentResult(
        experiment_id="fig4",
        title="Fig. 4: shift cost normalized to GA (geomean factors below)",
        header=header,
        rows=rows,
        summary=summary,
        paper=paper,
        notes=f"{profile.describe()}; suite substituted (DESIGN.md §5): compare "
              "shapes/orderings, not absolute counts.",
    )


# ---------------------------------------------------------------------------
# E-F5: Fig. 5, energy breakdown
# ---------------------------------------------------------------------------

def experiment_fig5(
    profile: EvalProfile = QUICK_PROFILE,
    matrix: Matrix | None = None,
) -> ExperimentResult:
    """Energy, normalized to AFD-OFU, split into leakage/read-write/shift."""
    if matrix is None:
        matrix = run_matrix(FIG5_POLICIES, profile)
    dbc_counts = sorted({k[2] for k in matrix})
    benchmarks = sorted({k[0] for k in matrix})
    rows: list[list] = []
    summary: dict[str, float] = {}
    for q in dbc_counts:
        base = sum(matrix[(b, "AFD-OFU", q)].report.total_energy_pj for b in benchmarks)
        for policy in FIG5_POLICIES:
            reports = [matrix[(b, policy, q)].report for b in benchmarks]
            leak = sum(r.leakage_energy_pj for r in reports)
            rw = sum(r.rw_energy_pj for r in reports)
            shift = sum(r.shift_energy_pj for r in reports)
            total = leak + rw + shift
            rows.append(
                [
                    f"{q}-DBCs", policy,
                    round(leak / base, 4), round(rw / base, 4),
                    round(shift / base, 4), round(total / base, 4),
                ]
            )
            if policy != "AFD-OFU":
                key = "dma_ofu" if policy == "DMA-OFU" else "dma_sr"
                summary[f"{key}_energy_saving_pct@{q}"] = 100.0 * (1 - total / base)
            else:
                summary[f"leakage_share_afd@{q}"] = leak / total
    paper = {
        "dma_ofu_energy_saving_pct@2": 61.0,
        "dma_ofu_energy_saving_pct@4": 62.0,
        "dma_ofu_energy_saving_pct@8": 44.0,
        "dma_ofu_energy_saving_pct@16": 13.0,
        "dma_sr_energy_saving_pct@2": 77.0,
        "dma_sr_energy_saving_pct@4": 70.0,
        "dma_sr_energy_saving_pct@8": 50.0,
        "dma_sr_energy_saving_pct@16": 21.0,
    }
    return ExperimentResult(
        experiment_id="fig5",
        title="Fig. 5: energy consumption normalized to AFD-OFU",
        header=["Config", "Policy", "Leakage", "Read/Write", "Shift", "Total"],
        rows=rows,
        summary=summary,
        paper=paper,
        notes=f"{profile.describe()}; suite-level totals (suite substituted).",
    )


# ---------------------------------------------------------------------------
# E-F6: Fig. 6, DBC-count trade-off for DMA-SR
# ---------------------------------------------------------------------------

def experiment_fig6(
    profile: EvalProfile = QUICK_PROFILE,
    matrix: Matrix | None = None,
) -> ExperimentResult:
    """Shifts/latency/energy improvement over AFD-OFU and area vs DBC count."""
    if matrix is None:
        matrix = run_matrix(FIG6_POLICIES, profile)
    dbc_counts = sorted({k[2] for k in matrix})
    benchmarks = sorted({k[0] for k in matrix})
    area2 = destiny_params(2).area_mm2
    rows: list[list] = []
    summary: dict[str, float] = {}
    dma_energy: dict[int, float] = {}
    for q in dbc_counts:
        afd_shifts = sum(matrix[(b, "AFD-OFU", q)].shifts for b in benchmarks)
        dma_shifts = sum(matrix[(b, "DMA-SR", q)].shifts for b in benchmarks)
        afd_lat = sum(matrix[(b, "AFD-OFU", q)].runtime_ns for b in benchmarks)
        dma_lat = sum(matrix[(b, "DMA-SR", q)].runtime_ns for b in benchmarks)
        afd_en = sum(matrix[(b, "AFD-OFU", q)].total_energy_pj for b in benchmarks)
        dma_en = sum(matrix[(b, "DMA-SR", q)].total_energy_pj for b in benchmarks)
        dma_energy[q] = dma_en
        area = destiny_params(q).area_mm2
        shifts_x = _norm_ratio(afd_shifts, dma_shifts)
        latency_x = afd_lat / dma_lat if dma_lat else 1.0
        energy_x = afd_en / dma_en if dma_en else 1.0
        area_x = area / area2
        rows.append(
            [q, round(shifts_x, 3), round(latency_x, 3),
             round(energy_x, 3), round(area_x, 3)]
        )
        summary[f"shifts_x@{q}"] = shifts_x
        summary[f"latency_x@{q}"] = latency_x
        summary[f"energy_x@{q}"] = energy_x
        summary[f"area_x@{q}"] = area_x
    best_q = min(dma_energy, key=lambda q: dma_energy[q])
    summary["best_energy_dbcs"] = float(best_q)
    worst_q = max(dma_energy, key=lambda q: dma_energy[q])
    summary["worst_energy_dbcs"] = float(worst_q)
    paper = {
        "area_x@2": 1.0,
        "area_x@4": round(0.0186 / 0.0159, 3),
        "area_x@8": round(0.0226 / 0.0159, 3),
        "area_x@16": round(0.0279 / 0.0159, 3),
        # Qualitative anchors from the Fig. 6 discussion:
        # 2-DBC uncompetitive on energy; 16-DBC worse than 4/8 DBC.
        "best_energy_dbcs": 4.0,
    }
    return ExperimentResult(
        experiment_id="fig6",
        title="Fig. 6: DMA-SR improvement over AFD-OFU vs DBC count "
              "(area normalized to 2 DBCs)",
        header=["DBCs", "Shifts x", "Latency x", "Energy x", "Area x"],
        rows=rows,
        summary=summary,
        paper=paper,
        notes="Improvement factors are suite totals of DMA-SR vs AFD-OFU; "
              "falling shift/latency columns and the rising area column are "
              "the paper's trends. best/worst_energy_dbcs track the absolute "
              "DMA-SR energy across configurations (paper: 4 or 8 best, "
              "2 and 16 uncompetitive).",
    )


# ---------------------------------------------------------------------------
# E-S4C: latency improvements quoted in Sec. IV-C
# ---------------------------------------------------------------------------

def experiment_sec4c(
    profile: EvalProfile = QUICK_PROFILE,
    matrix: Matrix | None = None,
) -> ExperimentResult:
    """RTM access latency improvement over AFD-OFU (Sec. IV-C text)."""
    if matrix is None:
        matrix = run_matrix(SEC4C_POLICIES, profile)
    dbc_counts = sorted({k[2] for k in matrix})
    benchmarks = sorted({k[0] for k in matrix})
    rows: list[list] = []
    summary: dict[str, float] = {}
    for policy in SEC4C_POLICIES[1:]:
        row: list = [policy]
        for q in dbc_counts:
            improvements = [
                percent_improvement(
                    matrix[(b, "AFD-OFU", q)].runtime_ns,
                    matrix[(b, policy, q)].runtime_ns,
                )
                for b in benchmarks
            ]
            mean_imp = float(np.mean(improvements))
            row.append(round(mean_imp, 1))
            key = policy.lower().replace("-", "_")
            summary[f"{key}_latency_pct@{q}"] = mean_imp
        rows.append(row)
    paper = {
        "dma_ofu_latency_pct@2": 50.3, "dma_ofu_latency_pct@4": 50.5,
        "dma_ofu_latency_pct@8": 33.1, "dma_ofu_latency_pct@16": 10.4,
        "dma_chen_latency_pct@2": 68.1, "dma_chen_latency_pct@4": 60.1,
        "dma_chen_latency_pct@8": 36.5, "dma_chen_latency_pct@16": 13.4,
        "dma_sr_latency_pct@2": 70.1, "dma_sr_latency_pct@4": 62.0,
        "dma_sr_latency_pct@8": 37.7, "dma_sr_latency_pct@16": 14.6,
    }
    return ExperimentResult(
        experiment_id="sec4c",
        title="Sec. IV-C: mean latency improvement over AFD-OFU [%]",
        header=["Policy", *[f"{q} DBCs" for q in dbc_counts]],
        rows=rows,
        summary=summary,
        paper=paper,
        notes=f"{profile.describe()}; mean of per-benchmark improvements.",
    )


# ---------------------------------------------------------------------------
# E-S4B: optimality-gap probe (GA run long on the largest benchmark)
# ---------------------------------------------------------------------------

def experiment_sec4b_gap(
    profile: EvalProfile = QUICK_PROFILE,
    num_dbcs: int = 4,
    long_generations: int | None = None,
) -> ExperimentResult:
    """How far the heuristics sit from a long GA run (Sec. IV-B's 38%).

    Runs on the suite's longest-sequence benchmark by default; an
    explicit ``profile.workloads`` selection probes its first workload's
    longest sequence instead.
    """
    spec = (profile.workloads[0] if profile.workloads
            else largest_sequence_benchmark())
    bench = resolve_workload(spec, WorkloadContext.from_profile(profile))
    seq = max(bench.traces, key=len).placement_sequence()
    sweep = {c.dbcs: c for c in iso_capacity_sweep()}
    if num_dbcs not in sweep:
        raise ExperimentError(f"num_dbcs must be one of {sorted(sweep)}")
    capacity = sweep[num_dbcs].locations_per_dbc

    heuristic_costs = {}
    for name in ("DMA-OFU", "DMA-Chen", "DMA-SR"):
        placement = get_policy(name).place(seq, num_dbcs, capacity)
        heuristic_costs[name] = shift_cost(seq, placement,
                                           backend=profile.engine_backend)
    best_heur_name = min(heuristic_costs, key=lambda k: heuristic_costs[k])
    best_heur = heuristic_costs[best_heur_name]

    base = dict(profile.ga_options)
    gens = long_generations
    if gens is None:
        gens = 2000 if profile.name == "full" else 10 * base.get("generations", 20)
    base["generations"] = gens
    base.pop("patience", None)  # the long run must not stop early
    ga = GeneticPlacer(seq, num_dbcs, capacity, GAConfig(**base), rng=profile.seed)
    ga_result = ga.run()

    rw = random_walk_search(
        seq, num_dbcs, capacity,
        iterations=max(ga_result.evaluations, 1), rng=profile.seed + 1,
    )
    gap_pct = percent_improvement(best_heur, ga_result.cost)
    rows = [
        [name, cost] for name, cost in sorted(heuristic_costs.items())
    ] + [
        [f"GA ({gens} generations)", ga_result.cost],
        [f"RW ({rw.iterations} iterations)", rw.cost],
    ]
    summary = {
        "heuristic_gap_pct": gap_pct,
        "ga_cost": float(ga_result.cost),
        "best_heuristic_cost": float(best_heur),
        "rw_cost": float(rw.cost),
        "rw_worse_than_ga": float(rw.cost >= ga_result.cost),
    }
    paper = {
        "heuristic_gap_pct": 38.0 / 1.38,  # 38% worse == GA is ~27.5% below
        "rw_worse_than_ga": 1.0,
    }
    return ExperimentResult(
        experiment_id="sec4b_gap",
        title=f"Sec. IV-B: optimality gap on {bench.name!r} "
              f"(longest sequence, {len(seq)} accesses, {num_dbcs} DBCs)",
        header=["Solver", "Shift cost"],
        rows=rows,
        summary=summary,
        paper=paper,
        notes="Paper: best heuristic ~38% worse than a 2000-generation GA "
              "(equivalently the GA is ~27.5% cheaper); RW never beats GA. "
              f"Best heuristic here: {best_heur_name}.",
    )
