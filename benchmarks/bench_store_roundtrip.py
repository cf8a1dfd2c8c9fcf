"""Store round-trip gate: a warm store must serve (almost) every cell.

Runs a small experiment matrix twice against a fresh temporary store.
The first pass computes and persists every cell; the in-memory cell
cache is then dropped — simulating a new process — so the second pass
can only be satisfied from disk. The gate fails unless at least 90% of
the second pass's cells are persistent-store hits (it should be 100%;
the slack keeps the gate about the mechanism, not the exact layout) and
the two result sets are bit-identical.

Usage: ``PYTHONPATH=src python benchmarks/bench_store_roundtrip.py
--out BENCH_store.json`` (CI runs exactly this).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.eval.profiles import EvalProfile
from repro.eval.runner import clear_cell_cache, last_matrix_stats, run_matrix
from repro.rtm.geometry import iso_capacity_sweep
from repro.store import ExperimentStore

from _bench_utils import provenance

PROFILE = EvalProfile(
    name="store-roundtrip",
    suite_scale=0.12,
    ga_options={"mu": 8, "lam": 8, "generations": 4},
    rw_iterations=30,
    benchmarks=("adpcm", "bison", "jpeg"),
)

POLICIES = ("AFD-OFU", "DMA-SR", "GA")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-hit-rate", type=float, default=0.9,
                        help="fail below this persistent-hit share on the "
                             "second pass (0 disables)")
    parser.add_argument("--out", default="BENCH_store.json")
    args = parser.parse_args(argv)

    configs = iso_capacity_sweep(dbc_counts=(2, 4))
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "roundtrip.db"

        clear_cell_cache()
        t0 = time.perf_counter()
        first = run_matrix(POLICIES, PROFILE, configs=configs,
                           store=store_path)
        cold_s = time.perf_counter() - t0
        cold = last_matrix_stats()

        clear_cell_cache()  # a new process would start cold in memory
        t0 = time.perf_counter()
        second = run_matrix(POLICIES, PROFILE, configs=configs,
                            store=store_path)
        warm_s = time.perf_counter() - t0
        warm = last_matrix_stats()

        identical = first == second
        with ExperimentStore(store_path) as store:
            stored_cells = len(store)
            runs = [r["status"] for r in store.runs()]

    hit_rate = warm.hits_store / warm.cells_total if warm.cells_total else 0.0
    payload = {
        "benchmark": "store_roundtrip",
        "provenance": provenance(PROFILE.seed),
        "policies": list(POLICIES),
        "cells": cold.cells_total,
        "first_pass": {"computed": cold.computed,
                       "hits_store": cold.hits_store, "seconds": cold_s},
        "second_pass": {"computed": warm.computed,
                        "hits_store": warm.hits_store, "seconds": warm_s,
                        "hit_rate": hit_rate},
        "stored_cells": stored_cells,
        "run_statuses": runs,
        "bit_identical": identical,
        "speedup": cold_s / warm_s if warm_s else float("inf"),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"pass 1: {cold.describe()} in {cold_s:.2f}s")
    print(f"pass 2: {warm.describe()} in {warm_s:.2f}s "
          f"({100 * hit_rate:.0f}% persistent hits)")
    print(f"wrote {out}")

    if not identical:
        print("FAIL: warm-store results differ from cold run", file=sys.stderr)
        return 1
    if args.min_hit_rate and hit_rate < args.min_hit_rate:
        print(f"FAIL: persistent hit rate {hit_rate:.2%} < required "
              f"{args.min_hit_rate:.0%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
