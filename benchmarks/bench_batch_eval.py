#!/usr/bin/env python
"""Micro-benchmark: batched vs per-candidate placement scoring.

Once single-placement trace replay was vectorized, search cost —
scoring thousands of candidate placements one at a time — dominated the
search-based policies. This benchmark tracks the scoring path the
batched-evaluation layer replaced:

* **population** — score a GA-sized population of complete placements.
  Baseline: the scalar per-candidate path the pre-refactor local-search
  and enumeration loops used (build a :class:`Placement`, call
  ``shift_cost``). Batched: stack the candidates into ``(K, V)``
  code-indexed arrays and score them through one
  :func:`repro.engine.evaluate_batch` pass — the stacking cost is
  *inside* the timed region, as any caller holding list-of-lists
  candidates pays it before scoring.

The GA breeds and scores ``(K, V)`` arrays directly; its real
per-generation cost is perfbench's ``core.ga_self_s``, not a mode here.

Results go to ``BENCH_batch.json``, with the seed, the core count and
the Python, numpy and repro versions, so the performance trajectory is
tracked from release to release; the script exits non-zero when the
speedup falls below ``--min-speedup`` so CI can gate on it.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_eval.py
    PYTHONPATH=src python benchmarks/bench_batch_eval.py \
        --population 400 --accesses 4000 --out results/BENCH_batch.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.cost import shift_cost, stack_placement_lists
from repro.core.placement import Placement
from repro.engine import clear_compile_caches, evaluate_batch
from repro.trace.generators.synthetic import zipf_sequence

from _bench_utils import provenance


def random_candidates(sequence, num_dbcs: int, population: int, rng):
    """GA-style candidates: random partition + random intra order each."""
    variables = list(sequence.variables)
    candidates = []
    for _ in range(population):
        assign = rng.integers(0, num_dbcs, len(variables))
        lists = [[] for _ in range(num_dbcs)]
        for v in rng.permutation(len(variables)):
            lists[int(assign[v])].append(variables[int(v)])
        candidates.append(lists)
    return candidates


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Defaults mirror the OffsetStone-like suite's median sequence
    # (~26 variables, ~180-250 accesses at full scale).
    parser.add_argument("--variables", type=int, default=32)
    parser.add_argument("--accesses", type=int, default=250)
    parser.add_argument("--dbcs", type=int, default=8)
    parser.add_argument("--population", type=int, default=200,
                        help="candidates per population pass (the paper's "
                             "GA scores mu + lambda = 200 per generation)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="fail below this population speedup "
                             "(0 disables)")
    parser.add_argument("--out", default="BENCH_batch.json")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    sequence = zipf_sequence(args.variables, args.accesses, rng=args.seed)
    candidates = random_candidates(sequence, args.dbcs, args.population, rng)
    codes = sequence.codes

    # -- population scoring --------------------------------------------------
    def scalar_population():
        # The pre-refactor search-loop path: one Placement + one scalar
        # shift_cost call per candidate. The compile cache is cleared so
        # repeats do not amortize it (search loops never see the same
        # candidate twice either).
        clear_compile_caches()
        return [shift_cost(sequence, Placement(lists)) for lists in candidates]

    def batched_population():
        # Stacking is part of the timed path: list-of-lists candidates
        # must be encoded before they are scored.
        dbc_of, pos_of = stack_placement_lists(sequence, candidates)
        return evaluate_batch(codes, dbc_of, pos_of, num_dbcs=args.dbcs)

    expected = scalar_population()
    assert list(batched_population()) == expected  # same numbers, always
    t_scalar = best_of(scalar_population, args.repeats)
    t_batch = best_of(batched_population, args.repeats)
    population_row = {
        "mode": "population",
        "candidates": args.population,
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "scalar_candidates_per_s": args.population / t_scalar,
        "batch_candidates_per_s": args.population / t_batch,
        "speedup": t_scalar / t_batch,
    }

    print(f"population: speedup {population_row['speedup']:.1f}x")
    payload = {
        "benchmark": "batched_candidate_evaluation",
        "provenance": provenance(args.seed),
        "variables": args.variables,
        "accesses": args.accesses,
        "dbcs": args.dbcs,
        "repeats": args.repeats,
        "results": [population_row],
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    if args.min_speedup and population_row["speedup"] < args.min_speedup:
        print(
            f"FAIL: population ({population_row['speedup']:.1f}x < "
            f"{args.min_speedup}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
