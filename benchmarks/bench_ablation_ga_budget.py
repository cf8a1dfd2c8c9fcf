"""A-1 — ablation: GA budget sweep (convergence behaviour).

DESIGN.md calls out the GA's budget (mu = lambda = 100, 200 generations,
tournament of 4) as a design choice made 'to get best-effort results in
reasonable time'. This sweep shows the cost/quality trade-off and that
the heuristic seeding makes even tiny budgets competitive.

Run as a script, the module additionally records the ``search_scale``
quality-per-wall-time sweep the ROADMAP asked for — how much extra
placement quality the scaled GA populations and RW iteration budgets
buy per unit wall time now that generation scoring is one batched
engine pass — plus one GA run per seed at the paper's budget (mu =
lambda = 100, 200 generations) on the same sequence, and the host and
version provenance: ``PYTHONPATH=src python
benchmarks/bench_ablation_ga_budget.py --out BENCH_ga_budget.json``.
The script gates nothing.
"""

import pytest

from repro.core.cost import shift_cost
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.policies import get_policy
from repro.trace.generators.offsetstone import load_benchmark
from repro.util.tables import format_table

from _bench_utils import PROFILE, publish_text

BUDGETS = [
    ("seeds only", GAConfig(mu=16, lam=16, generations=0)),
    ("tiny", GAConfig(mu=16, lam=16, generations=5)),
    ("small", GAConfig(mu=16, lam=16, generations=20)),
    ("medium", GAConfig(mu=32, lam=32, generations=40)),
]


@pytest.fixture(scope="module")
def sequence():
    bench = load_benchmark("h263", scale=PROFILE.suite_scale, seed=PROFILE.seed)
    return max((t.sequence for t in bench.traces), key=len)


def test_ga_budget_sweep(benchmark, sequence):
    def sweep():
        rows = []
        for label, cfg in BUDGETS:
            result = GeneticPlacer(sequence, 4, 256, cfg, rng=11).run()
            rows.append(
                [label, cfg.generations, result.evaluations, result.cost]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    costs = [r[3] for r in rows]
    # More budget never hurts (mu+lambda keeps the best individual).
    assert all(a >= b for a, b in zip(costs, costs[1:])), costs
    # Even 'seeds only' is bounded by the best heuristic.
    sr = shift_cost(sequence, get_policy("DMA-SR").place(sequence, 4, 256))
    assert costs[0] <= sr
    publish_text(
        "A-1 GA budget sweep",
        format_table(
            ["budget", "generations", "evaluations", "shift cost"], rows
        ),
    )


def test_ga_convergence_history_monotone(benchmark, sequence):
    cfg = GAConfig(mu=16, lam=16, generations=25)

    def run():
        return GeneticPlacer(sequence, 4, 256, cfg, rng=3).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(a >= b for a, b in zip(result.history, result.history[1:]))


# ---------------------------------------------------------------------------
# search_scale quality-per-wall-time sweep (script mode, BENCH_ga_budget.json)
# ---------------------------------------------------------------------------

def _sweep_search_scale(scales, seeds, num_dbcs=4, capacity=256):
    """Cost and wall time of GA/RW at each ``search_scale`` multiplier.

    Budgets come from :func:`repro.eval.runner.policy_specs` on the
    active profile — the exact code path ``--search-scale`` exercises —
    and each scale runs every seed so the medians are not one lucky RNG
    stream.
    """
    import statistics
    import time
    from dataclasses import replace

    from repro.core.random_walk import random_walk_search
    from repro.eval.runner import policy_specs

    bench = load_benchmark("h263", scale=PROFILE.suite_scale, seed=PROFILE.seed)
    seq = max((t.sequence for t in bench.traces), key=len)
    rows = []
    for scale in scales:
        specs = dict(policy_specs(("GA", "RW"),
                                  replace(PROFILE, search_scale=scale)))
        ga_costs, ga_times, evaluations = [], [], []
        rw_costs, rw_times = [], []
        for seed in seeds:
            t0 = time.perf_counter()
            ga = GeneticPlacer(seq, num_dbcs, capacity,
                               GAConfig(**specs["GA"]), rng=seed).run()
            ga_times.append(time.perf_counter() - t0)
            ga_costs.append(ga.cost)
            evaluations.append(ga.evaluations)
            t0 = time.perf_counter()
            rw = random_walk_search(seq, num_dbcs, capacity,
                                    iterations=specs["RW"]["iterations"],
                                    rng=seed)
            rw_times.append(time.perf_counter() - t0)
            rw_costs.append(rw.cost)
        rows.append({
            "search_scale": scale,
            "ga": {
                "mu": specs["GA"].get("mu"),
                "lam": specs["GA"].get("lam"),
                "median_cost": statistics.median(ga_costs),
                "median_seconds": statistics.median(ga_times),
                "median_evaluations": statistics.median(evaluations),
            },
            "rw": {
                "iterations": specs["RW"]["iterations"],
                "median_cost": statistics.median(rw_costs),
                "median_seconds": statistics.median(rw_times),
            },
        })
    return seq, rows


def _paper_budget(seq, seeds, num_dbcs=4, capacity=256):
    """Cost and wall time of the GA at the paper's default budget."""
    import statistics
    import time

    costs, times, evaluations = [], [], []
    for seed in seeds:
        t0 = time.perf_counter()
        result = GeneticPlacer(seq, num_dbcs, capacity, GAConfig(), rng=seed).run()
        times.append(time.perf_counter() - t0)
        costs.append(result.cost)
        evaluations.append(result.evaluations)
    cfg = GAConfig()
    return {
        "mu": cfg.mu,
        "lam": cfg.lam,
        "generations": cfg.generations,
        "median_cost": statistics.median(costs),
        "median_seconds": statistics.median(times),
        "median_evaluations": statistics.median(evaluations),
    }


def main(argv=None) -> int:
    import argparse
    import json
    import os
    import platform
    from pathlib import Path

    import numpy as np

    import repro

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scales", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0, 4.0, 8.0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11, 23])
    parser.add_argument("--out", default="BENCH_ga_budget.json")
    args = parser.parse_args(argv)

    seq, rows = _sweep_search_scale(args.scales, args.seeds)
    # Improvements are quoted against scale 1.0 when swept, else the
    # smallest scale (rows arrive in --scales order, min is well-defined).
    base = next((r for r in rows if r["search_scale"] == 1.0),
                min(rows, key=lambda r: r["search_scale"]))
    for row in rows:
        # quality-per-wall-time: % cost improvement over scale 1.0 per
        # extra second of GA search (the ROADMAP's open question).
        d_cost = base["ga"]["median_cost"] - row["ga"]["median_cost"]
        d_time = row["ga"]["median_seconds"] - base["ga"]["median_seconds"]
        row["ga"]["improvement_vs_scale1_pct"] = (
            100.0 * d_cost / base["ga"]["median_cost"]
            if base["ga"]["median_cost"] else 0.0
        )
        row["ga"]["extra_seconds_vs_scale1"] = d_time
        print(f"scale {row['search_scale']:>4}: "
              f"GA mu={row['ga']['mu']:>4} cost={row['ga']['median_cost']:>6} "
              f"in {row['ga']['median_seconds']:.2f}s "
              f"({row['ga']['improvement_vs_scale1_pct']:+.2f}% vs x1) | "
              f"RW {row['rw']['iterations']:>6} iters "
              f"cost={row['rw']['median_cost']:>6} "
              f"in {row['rw']['median_seconds']:.2f}s")

    paper = _paper_budget(seq, args.seeds)
    print(f"paper budget: GA mu={paper['mu']} x {paper['generations']} "
          f"generations cost={paper['median_cost']} "
          f"in {paper['median_seconds']:.2f}s")

    payload = {
        "benchmark": "ga_budget_search_scale",
        "profile": PROFILE.name,
        "provenance": {
            "cores": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repro": repro.__version__,
        },
        "sequence": {"name": seq.name, "accesses": len(seq),
                     "variables": seq.num_variables},
        "seeds": args.seeds,
        "results": rows,
        "paper_budget": paper,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
