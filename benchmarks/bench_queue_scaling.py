#!/usr/bin/env python
"""Benchmark: claim-based queue scaling vs serial and static sharding.

The work queue exists so that N machines pulling open cells from one
store scale the matrix near-linearly *without* the load-balance failure
mode of static ``--shard i/N`` partitioning: shards are content-digest
slices with no notion of cell cost, so a skewed matrix pins the matrix
wall-clock to whichever shard drew the expensive cells, while the queue
hands out cells biggest-first to whoever is idle. This bench makes both
claims observable on a deliberately cost-skewed workload mix (one huge
streamed-length workload among small kernels — the cell costs span
~40x):

* **scaling** — the same enqueued matrix drained by 1 vs 4
  ``repro-worker`` processes. Gated: 4 workers must drain it
  ``--min-speedup`` (default 2.5x) faster than 1. Real parallelism
  needed, so the gate arms only when the machine has at least as many
  cores as workers.
* **queue vs static shard** — 4 queue workers vs 4 ``--shard i/4``
  processes computing the identical matrix. Gated (same arming rule):
  the queue must finish strictly faster — the digest partition is
  deterministic and provably imbalanced for this matrix (the bench
  prints big-cells-per-shard), so pull scheduling wins on makespan.
* **bit-identity** — cells computed by queue workers must equal a cold
  in-process serial run bit-exactly (always enforced; the queue only
  changes *who* computes, never any number).

Workers claim one cell per transaction here: cells cost seconds, so
batch amortization is irrelevant and single-cell claims give the
scheduler maximum packing freedom (big cells first, then fill).

Usage::

    PYTHONPATH=src python benchmarks/bench_queue_scaling.py
    PYTHONPATH=src python benchmarks/bench_queue_scaling.py \
        --scale 0.5 --out results/BENCH_queue.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, REPO_SRC)

from repro.eval.profiles import QUICK_PROFILE  # noqa: E402
from repro.eval.runner import (  # noqa: E402
    clear_cell_cache,
    last_matrix_stats,
    run_matrix,
)
from repro.rtm.geometry import RTMConfig  # noqa: E402
from repro.store import ExperimentStore, WorkQueue  # noqa: E402

from _bench_utils import provenance  # noqa: E402

#: Deterministic heuristic policies: per-cell cost tracks trace length,
#: so the cost skew below is the *workload's* skew, not search-budget
#: noise, and bit-identity needs no seed bookkeeping.
POLICIES = ("AFD", "AFD-SR", "DMA", "DMA-SR")

#: One huge workload among small ones: the 4 big cells dominate the
#: matrix wall-clock, and their content digests land 2/1/1/0 across 4
#: shards (deterministic — the bench asserts it), so static sharding
#: serializes two big cells on one process while the queue never does.
BIG_LENGTH = 1_000_000
SMALL_SPECS = (
    "synthetic:zipf,vars=32,length=24000",
    "synthetic:zipf,vars=32,length=20000",
    "synthetic:markov,vars=24,length=16000",
    "synthetic:markov,vars=24,length=12000",
    "synthetic:uniform,vars=24,length=10000",
    "synthetic:uniform,vars=16,length=8000",
    "synthetic:uniform,vars=16,length=6000",
    "synthetic:sliding,vars=24,length=14000",
)

CONFIG = RTMConfig(dbcs=4, tracks_per_dbc=8, domains_per_track=64)

#: The shard process / queue worker count both comparisons use.
FAN_OUT = 4

_SHARD_CHILD = """
import sys
sys.path.insert(0, {src!r})
from dataclasses import replace

from repro.eval.profiles import QUICK_PROFILE
from repro.eval.runner import run_matrix
from repro.rtm.geometry import RTMConfig

profile = replace(QUICK_PROFILE, workloads=tuple({specs!r}), workers=1)
run_matrix({policies!r}, profile, configs=[RTMConfig(**{config!r})],
           store={store!r}, shard=(int(sys.argv[1]), {fan_out}))
"""


def bench_profile(scale: float):
    per_phase = max(1, int(BIG_LENGTH * scale) // 4)
    big = f"synthetic:phased,phases=4,vars=24,length={per_phase}"
    return replace(QUICK_PROFILE, workloads=(big,) + SMALL_SPECS, workers=1)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def enqueue(profile, store_path) -> int:
    clear_cell_cache()
    run_matrix(POLICIES, profile, configs=[CONFIG], store=store_path,
               enqueue=True)
    return last_matrix_stats().enqueued


def drain_with_workers(store_path, n: int) -> float:
    """Start n drain-mode workers; wall time until the last one exits."""
    start = time.perf_counter()
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.eval.service", "worker",
             "--store", str(store_path), "--drain", "--batch", "1",
             "--lease", "60", "--poll", "0.1", "-q"],
            env=child_env(),
        )
        for _ in range(n)
    ]
    failures = [w.wait() for w in workers]
    wall = time.perf_counter() - start
    if any(failures):
        raise RuntimeError(f"worker exit codes: {failures}")
    return wall


def run_shards(profile, store_path, tmp: Path) -> float:
    """FAN_OUT static-shard processes over one store; wall until all exit."""
    script = tmp / "shard_child.py"
    script.write_text(_SHARD_CHILD.format(
        src=REPO_SRC, specs=list(profile.workload_specs),
        policies=tuple(POLICIES), store=str(store_path),
        config={"dbcs": CONFIG.dbcs, "tracks_per_dbc": CONFIG.tracks_per_dbc,
                "domains_per_track": CONFIG.domains_per_track},
        fan_out=FAN_OUT,
    ))
    start = time.perf_counter()
    children = [
        subprocess.Popen([sys.executable, str(script), str(i)],
                         env=child_env())
        for i in range(FAN_OUT)
    ]
    codes = [c.wait() for c in children]
    wall = time.perf_counter() - start
    if any(codes):
        raise RuntimeError(f"shard exit codes: {codes}")
    return wall


def big_cells_per_shard(profile) -> list[int]:
    """The deterministic digest assignment of the 4 big cells."""
    from repro.eval.runner import CellRecipe, _in_shard, load_suite, policy_specs
    from repro.util.rng import ensure_rng, spawn_seeds

    programs = load_suite(profile)
    specs = policy_specs(POLICIES, profile)
    seeds = spawn_seeds(ensure_rng(profile.seed), len(programs) * len(specs))
    per_shard = [0] * FAN_OUT
    big_name = programs[0].name  # the huge workload is first in the suite
    i = 0
    for program in programs:
        for spec in specs:
            key = CellRecipe(spec, CONFIG, seeds[i], "numpy").key(program)
            i += 1
            if program.name == big_name:
                for shard in range(FAN_OUT):
                    if _in_shard(key, (shard, FAN_OUT)):
                        per_shard[shard] += 1
    return per_shard


def identical(a, b) -> bool:
    return set(a) == set(b) and all(
        a[k].shifts == b[k].shifts and a[k].report == b[k].report for k in a
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the big workload's length "
                             "(1.0 = %d accesses)" % BIG_LENGTH)
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="gate: 4-worker drain speedup over 1 worker "
                             "(0 disables; auto-skipped below 4 cores)")
    parser.add_argument("--out", default="BENCH_queue.json")
    args = parser.parse_args(argv)

    profile = bench_profile(args.scale)
    cores = os.cpu_count() or 1
    gate_armed = bool(args.min_speedup) and cores >= FAN_OUT
    gate_reason = (
        "armed" if gate_armed else
        f"skipped: {cores} core(s) < {FAN_OUT} workers"
        if args.min_speedup else "disabled"
    )

    shard_load = big_cells_per_shard(profile)
    print(f"big cells per shard (digest partition): {shard_load}")

    with tempfile.TemporaryDirectory(prefix="bench_queue_") as tmp_s:
        tmp = Path(tmp_s)

        # Serial in-process reference: the ground truth cells and the
        # single-process wall the throughput rows are relative to.
        clear_cell_cache()
        start = time.perf_counter()
        reference = run_matrix(POLICIES, profile, configs=[CONFIG])
        t_serial = time.perf_counter() - start
        cells = len(reference)
        print(f"serial reference: {cells} cells in {t_serial:.2f}s")

        # Queue drained by 1 worker, then by FAN_OUT workers.
        q1_store = tmp / "q1.sqlite"
        enqueued = enqueue(profile, q1_store)
        t_q1 = drain_with_workers(q1_store, 1)
        print(f"queue, 1 worker:  {enqueued} cells in {t_q1:.2f}s")

        qn_store = tmp / "qn.sqlite"
        enqueue(profile, qn_store)
        t_qn = drain_with_workers(qn_store, FAN_OUT)
        print(f"queue, {FAN_OUT} workers: drained in {t_qn:.2f}s")

        # The identical matrix via static shards, same process count.
        shard_store = tmp / "shard.sqlite"
        t_shard = run_shards(profile, shard_store, tmp)
        print(f"static --shard x{FAN_OUT}: {t_shard:.2f}s")

        # Bit-identity: queue-computed cells vs the serial reference.
        clear_cell_cache()
        via_queue = run_matrix(POLICIES, replace(profile, offline=True),
                               configs=[CONFIG], store=qn_store)
        stats = last_matrix_stats()
        bit_identical = (identical(via_queue, reference)
                         and stats.hits_queue == cells)
        with ExperimentStore(qn_store) as store:
            counts = WorkQueue(store).counts()

    speedup = t_q1 / t_qn
    vs_shard = t_shard / t_qn
    payload = {
        "benchmark": "queue_scaling",
        "provenance": provenance(profile.seed),
        "cells": cells,
        "enqueued": enqueued,
        "policies": list(POLICIES),
        "big_cells_per_shard": shard_load,
        "results": [
            {"mode": "serial", "processes": 1, "wall_s": t_serial},
            {"mode": "queue", "workers": 1, "wall_s": t_q1},
            {"mode": "queue", "workers": FAN_OUT, "wall_s": t_qn,
             "speedup_vs_1_worker": speedup, "gated": gate_armed,
             "gate_reason": gate_reason},
            {"mode": "shard", "processes": FAN_OUT, "wall_s": t_shard,
             "queue_advantage": vs_shard},
        ],
        "checks": {
            "bit_identical_queue_vs_serial": bit_identical,
            "queue_drained": counts
            == {"open": 0, "claimed": 0, "done": cells, "failed": 0},
            "shard_partition_skewed": max(shard_load) >= 2,
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    failures = []
    if not bit_identical:
        failures.append("queue-computed cells differ from serial reference")
    if not payload["checks"]["queue_drained"]:
        failures.append(f"queue not fully drained: {counts}")
    if max(shard_load) < 2:
        failures.append(
            f"shard partition unexpectedly balanced ({shard_load}); "
            f"the vs-shard comparison would be meaningless"
        )
    if gate_armed and speedup < args.min_speedup:
        failures.append(
            f"{FAN_OUT}-worker speedup {speedup:.2f}x < {args.min_speedup}x"
        )
    if gate_armed and vs_shard <= 1.0:
        failures.append(
            f"queue ({t_qn:.2f}s) did not beat static shards "
            f"({t_shard:.2f}s) on the skewed matrix"
        )
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"speedup {speedup:.2f}x vs 1 worker, {vs_shard:.2f}x vs static "
          f"shards ({gate_reason}); all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
