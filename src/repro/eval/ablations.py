"""Library-level ablation experiments (beyond the paper's figures).

The benchmark harness runs richer versions of these inline; the module
versions are the reusable, CLI-accessible cores (``repro-experiment
ablation-*``). Each returns an :class:`~repro.eval.experiments
.ExperimentResult` so the same rendering/archival machinery applies.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.cost import shift_cost
from repro.core.inter.dma import dma_placement
from repro.core.inter.multiset import multiset_dma_placement
from repro.core.intra import shifts_reduce_order
from repro.core.policies import get_policy
from repro.eval.experiments import ExperimentResult
from repro.eval.profiles import EvalProfile, QUICK_PROFILE
from repro.rtm.geometry import iso_capacity_sweep
from repro.rtm.swapping import SwappingController
from repro.trace.generators.synthetic import phased_sequence
from repro.workloads import WorkloadContext, resolve_workload, resolve_workloads


def _default_workloads(
    profile: EvalProfile, fallback: tuple[str, ...]
) -> tuple[str, ...]:
    """The profile's explicit workload specs, or the ablation's defaults.

    Ablations run on a small representative subset by default, but an
    explicit ``--workloads``/``REPRO_WORKLOADS`` selection must win —
    silently ignoring it would report numbers for the wrong traces.
    """
    return profile.workloads if profile.workloads else fallback


def ablation_ports(
    profile: EvalProfile = QUICK_PROFILE,
    benchmarks: tuple[str, ...] | None = None,
    ports: tuple[int, ...] | None = None,
    num_dbcs: int = 4,
) -> ExperimentResult:
    """Shift cost of AFD/DMA placements under varying port counts.

    The sweep defaults to the profile's ``ports`` tuple
    (``repro-experiment ablation-ports --ports 1 2 4 8``); the workload
    list to the profile's ``workloads`` specs, else a representative
    benchmark trio.
    """
    if benchmarks is None:
        benchmarks = _default_workloads(profile, ("cc65", "jpeg", "gsm"))
    if ports is None:
        ports = tuple(profile.ports)
    policies = ("AFD-OFU", "DMA-OFU", "DMA-SR")
    domains = 1024 // num_dbcs
    totals = {(p, pt): 0 for p in policies for pt in ports}
    ctx = WorkloadContext.from_profile(profile)
    for bench in resolve_workloads(benchmarks, ctx):
        for trace in bench.traces:
            seq = trace.placement_sequence()
            placements = {
                p: get_policy(p).place(seq, num_dbcs, domains)
                for p in policies
            }
            for p, placement in placements.items():
                for pt in ports:
                    totals[(p, pt)] += shift_cost(
                        seq, placement, ports=pt, domains=domains,
                        backend=profile.engine_backend,
                    )
    rows = [
        [f"{pt} port(s)", *[totals[(p, pt)] for p in policies]]
        for pt in ports
    ]
    summary = {
        f"dma_sr_vs_afd_x@{pt}p":
            (totals[("AFD-OFU", pt)] + 1) / (totals[("DMA-SR", pt)] + 1)
        for pt in ports
    }
    return ExperimentResult(
        experiment_id="ablation_ports",
        title=f"Port-count ablation ({num_dbcs} DBCs, total shifts)",
        header=["config", *policies],
        rows=rows,
        summary=summary,
        notes="DMA's advantage persists for any port count (the paper's "
              "'generalized' claim vs Chen's fixed multi-port assumption).",
    )


def ablation_multiset(
    profile: EvalProfile = QUICK_PROFILE,
    num_dbcs: int = 4,
    seeds: tuple[int, ...] = (0, 1, 2, 3),
) -> ExperimentResult:
    """Single-set Algorithm 1 vs the Sec. VI multi-set extension."""
    domains = 1024 // num_dbcs
    rows = []
    single_total = multi_total = 0
    for s in seeds:
        seq = phased_sequence(8, 5, 60, shared_vars=3, shared_ratio=0.15,
                              rng=s, name=f"phased{s}")
        single = shift_cost(
            seq, dma_placement(seq, num_dbcs, domains,
                               intra=shifts_reduce_order),
            backend=profile.engine_backend,
        )
        multi = shift_cost(
            seq, multiset_dma_placement(seq, num_dbcs, domains,
                                        intra=shifts_reduce_order),
            backend=profile.engine_backend,
        )
        rows.append([seq.name, single, multi])
        single_total += single
        multi_total += multi
    return ExperimentResult(
        experiment_id="ablation_multiset",
        title=f"Multi-set DMA vs single-set ({num_dbcs} DBCs, phased traces)",
        header=["trace", "DMA-SR", "MDMA-SR"],
        rows=rows,
        summary={
            "single_total": float(single_total),
            "multi_total": float(multi_total),
            "multi_vs_single_x": (single_total + 1) / (multi_total + 1),
        },
        notes="The future-work extension pays off where several strong "
              "disjoint chains exist (phase-structured traffic).",
    )


def ablation_dbc_sweep(
    profile: EvalProfile = QUICK_PROFILE,
    benchmarks: tuple[str, ...] | None = None,
    dbc_counts: tuple[int, ...] = (2, 4, 8, 16, 32),
) -> ExperimentResult:
    """Extended DBC-count sweep, beyond the Table I configurations.

    The paper evaluates 2/4/8/16 DBCs (Table I anchors). A 4 KiB array
    with 32-bit words only splits evenly at powers of two, so the sweep
    extends *upward*: the 32-DBC point (32 domains per track) uses the
    calibration model's extrapolation and tests whether the leakage/area
    penalty keeps growing past the paper's largest configuration — the
    question Fig. 6's trend lines raise.

    The sweep is an ordinary (program x config x policy) matrix, so it
    runs through :func:`~repro.eval.runner.run_matrix` and inherits the
    cell caches, the persistent store and the worker pool.
    """
    from repro.eval.runner import run_matrix
    from repro.rtm.geometry import RTMConfig
    from repro.rtm.timing import destiny_params

    if benchmarks is None:
        benchmarks = _default_workloads(profile, ("cc65", "jpeg"))
    programs = resolve_workloads(benchmarks, WorkloadContext.from_profile(profile))
    total_bits = 4096 * 8
    configs = []
    for q in dbc_counts:
        domains = total_bits // (q * 32)
        if domains * q * 32 != total_bits or domains < 1:
            continue  # only even iso-capacity splits
        configs.append(RTMConfig(dbcs=q, domains_per_track=domains))
    matrix = run_matrix(("DMA-SR",), profile, configs=configs,
                        programs=programs)
    rows = []
    summary: dict[str, float] = {}
    for config in configs:
        q = config.dbcs
        cells = [matrix[(p.name, "DMA-SR", q)] for p in programs]
        shifts = sum(c.report.shifts for c in cells)
        runtime = sum(c.report.runtime_ns for c in cells)
        energy = sum(c.report.total_energy_pj for c in cells)
        rows.append([
            q, config.domains_per_track, shifts, round(runtime, 1),
            round(energy, 1), round(destiny_params(q).area_mm2, 4),
        ])
        summary[f"energy_pj@{q}"] = energy
    best_q = min(
        (row[0] for row in rows),
        key=lambda q: summary[f"energy_pj@{q}"],
    )
    summary["best_energy_dbcs"] = float(best_q)
    return ExperimentResult(
        experiment_id="ablation_dbc_sweep",
        title="Extended iso-capacity DBC sweep (DMA-SR, interpolated params)",
        header=["DBCs", "domains", "shifts", "runtime [ns]", "energy [pJ]",
                "area [mm2]"],
        rows=rows,
        summary=summary,
        notes="Non-anchor points use the log-log inter/extrapolated DESTINY "
              "calibration (docs/substitution.md); anchors are exact Table I.",
    )


def ablation_faults(
    profile: EvalProfile = QUICK_PROFILE,
    benchmarks: tuple[str, ...] | None = None,
    rates: tuple[float, ...] | None = None,
    num_dbcs: int = 4,
) -> ExperimentResult:
    """Placement robustness under deterministic shift-fault injection.

    Sweeps the per-shift fault rate (``0.0`` = the clean baseline) over
    the usual placement-policy trio and ranks the policies by how
    gracefully they degrade: the misaligned-access fraction at the
    highest injected rate. Faults only strike accesses that actually
    charge shifts, so shift-minimizing placements expose fewer draws to
    corruption — the sweep quantifies exactly that coupling.

    Each (rate, policy) cell is an ordinary matrix cell: faulted cells
    are content-addressed apart from clean ones, so repeated sweeps
    resume warm from the same store. The scrub cadence is the profile's
    ``scrub_interval`` and applies only to faulted rows.
    """
    from repro.eval.runner import run_matrix

    if benchmarks is None:
        benchmarks = _default_workloads(profile, ("cc65", "jpeg"))
    if rates is None:
        rates = (0.0, 0.002, 0.01, 0.05)
        if profile.fault_rate and profile.fault_rate not in rates:
            rates = tuple(sorted((*rates, profile.fault_rate)))
    scrub_interval = profile.scrub_interval
    policies = ("AFD-OFU", "DMA-OFU", "DMA-SR")
    config = [c for c in iso_capacity_sweep() if c.dbcs == num_dbcs][0]
    programs = resolve_workloads(benchmarks, WorkloadContext.from_profile(profile))
    rows = []
    misaligned_at_top: dict[str, float] = {}
    top_rate = max(rates)
    for rate in rates:
        p = replace(profile, fault_rate=rate,
                    scrub_interval=scrub_interval if rate else None)
        matrix = run_matrix(policies, p, configs=[config], programs=programs)
        for policy in policies:
            cells = [matrix[(prog.name, policy, num_dbcs)] for prog in programs]
            report = sum(c.report for c in cells)
            rows.append([
                f"{rate:g}", policy, report.shifts, report.scrub_shifts,
                report.fault_injected,
                f"{report.misaligned_fraction:.2%}",
                "yes" if report.fault_corrupted else "no",
            ])
            if rate == top_rate and rate:
                misaligned_at_top[policy] = report.misaligned_fraction
    summary: dict[str, float] = {"top_rate": float(top_rate)}
    ranking = sorted(misaligned_at_top, key=misaligned_at_top.get)
    for place, policy in enumerate(ranking, start=1):
        summary[f"rank_{policy}"] = float(place)
        summary[f"misaligned_frac_{policy}@{top_rate:g}"] = (
            misaligned_at_top[policy]
        )
    notes = ("Faults strike only shift-charging accesses, so placements "
             "that minimize shift traffic also minimize fault exposure.")
    if ranking:
        notes = (f"Most graceful at rate {top_rate:g}: {ranking[0]} "
                 f"(lowest misaligned fraction). " + notes)
    return ExperimentResult(
        experiment_id="ablation_faults",
        title=(f"Fault-rate ablation ({num_dbcs} DBCs"
               + (f", scrub every {scrub_interval}" if scrub_interval else "")
               + ")"),
        header=["fault rate", "policy", "shifts", "scrub shifts",
                "injected", "misaligned", "corrupted"],
        rows=rows,
        summary=summary,
        notes=notes,
    )


def ablation_swapping(
    profile: EvalProfile = QUICK_PROFILE,
    benchmark: str | None = None,
    num_dbcs: int = 4,
    threshold: int = 4,
) -> ExperimentResult:
    """Static placement vs counter-based online swapping.

    Inherently a single-workload probe: with an explicit
    ``profile.workloads`` selection it runs on the *first* spec (the
    title names which), defaulting to ``h263``.
    """
    if benchmark is None:
        (benchmark, *_rest) = _default_workloads(profile, ("h263",))
    config = [c for c in iso_capacity_sweep() if c.dbcs == num_dbcs][0]
    cap = config.locations_per_dbc
    bench = resolve_workload(benchmark, WorkloadContext.from_profile(profile))
    from repro.rtm.sim import simulate

    totals = {"AFD-OFU": 0, "AFD-OFU+swap": 0, "DMA-SR": 0}
    swaps = 0
    for trace in bench.traces:
        seq = trace.placement_sequence()
        afd = get_policy("AFD-OFU").place(seq, num_dbcs, cap)
        dma = get_policy("DMA-SR").place(seq, num_dbcs, cap)
        totals["AFD-OFU"] += simulate(trace, afd, config).shifts
        totals["DMA-SR"] += simulate(trace, dma, config).shifts
        dynamic, stats = SwappingController(
            config, afd, threshold=threshold
        ).execute(trace)
        totals["AFD-OFU+swap"] += dynamic.shifts
        swaps += stats.swaps
    return ExperimentResult(
        experiment_id="ablation_swapping",
        title=f"Static placement vs online swapping ({benchmark}, "
              f"{num_dbcs} DBCs)",
        header=["scheme", "total shifts"],
        rows=[[k, v] for k, v in totals.items()],
        summary={
            "swaps": float(swaps),
            "dma_vs_swapped_afd_x":
                (totals["AFD-OFU+swap"] + 1) / (totals["DMA-SR"] + 1),
        },
        notes="Sequence-aware static placement beats the swap-assisted "
              "frequency layout with zero hardware support (Sec. V).",
    )
