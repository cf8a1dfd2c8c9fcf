#!/usr/bin/env python
"""Micro-benchmark: shift-engine backend throughput (accesses/sec).

Runs the reference (per-access Python) and numpy (batched vectorized)
backends on identical randomized traces and reports throughput per
backend plus the numpy-over-reference speedup, as JSON
(``BENCH_engine.json`` by default) so the performance trajectory is
tracked from PR to PR.

``--backends`` widens the comparison to any registered backend: the
legacy ``results`` rows keep their exact reference+numpy shape, and a
``backends`` list adds one row per (ports, backend) with throughput and
speedup over reference. The reference backend is always timed — it is
the denominator — whether or not it is listed.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_speedup.py
    PYTHONPATH=src python benchmarks/bench_engine_speedup.py \
        --accesses 1000000 --ports 1 2 4 --out results/BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine_speedup.py \
        --backends numpy reference

The acceptance bar of the engine PR: >= 10x accesses/sec on a
100k-access trace (single port); the script exits non-zero below
``--min-speedup`` so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.engine import ShiftRequest, available_backends, get_backend


def make_request(accesses: int, num_dbcs: int, domains: int, ports: int,
                 seed: int) -> ShiftRequest:
    rng = np.random.default_rng(seed)
    return ShiftRequest(
        dbc=rng.integers(0, num_dbcs, accesses),
        slot=rng.integers(0, domains, accesses),
        num_dbcs=num_dbcs,
        domains=domains,
        ports=ports,
    )


def time_backend(backend, request: ShiftRequest, repeats: int) -> float:
    """Best-of-``repeats`` wall time for one request (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        backend.run(request)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=100_000)
    parser.add_argument("--dbcs", type=int, default=8)
    parser.add_argument("--domains", type=int, default=128)
    parser.add_argument("--ports", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail below this numpy/reference ratio on the "
                             "single-port case (0 disables)")
    parser.add_argument("--backends", nargs="+", default=None,
                        help="registered backend names to time (default: "
                             "all registered); reference is always timed "
                             "as the denominator")
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args(argv)

    reference = get_backend("reference")
    vectorized = get_backend("numpy")
    # Dedupe by .name, reference first: it anchors every speedup column.
    contenders: dict[str, object] = {reference.name: reference}
    for name in (args.backends or available_backends()):
        backend = get_backend(name)
        contenders.setdefault(backend.name, backend)
    rows = []
    backend_rows = []
    gate_speedup = None
    for ports in args.ports:
        request = make_request(args.accesses, args.dbcs, args.domains,
                               ports, args.seed)
        # Cross-check while we are here: the numbers being compared must
        # be the *same* numbers.
        expected = reference.run(request).shifts
        assert vectorized.run(request).shifts == expected
        t_ref = time_backend(reference, request, args.repeats)
        t_vec = time_backend(vectorized, request, args.repeats)
        row = {
            "ports": ports,
            "reference_s": t_ref,
            "numpy_s": t_vec,
            "reference_accesses_per_s": args.accesses / t_ref,
            "numpy_accesses_per_s": args.accesses / t_vec,
            "speedup": t_ref / t_vec,
        }
        rows.append(row)
        if ports == 1:
            gate_speedup = row["speedup"]
        print(f"ports={ports}: reference {row['reference_accesses_per_s']:,.0f} acc/s, "
              f"numpy {row['numpy_accesses_per_s']:,.0f} acc/s, "
              f"speedup {row['speedup']:.1f}x")
        for backend in contenders.values():
            if backend.name == reference.name:
                seconds = t_ref
            elif backend.name == vectorized.name:
                seconds = t_vec
            else:
                assert backend.run(request).shifts == expected
                seconds = time_backend(backend, request, args.repeats)
                print(f"ports={ports}: {backend.name} "
                      f"{args.accesses / seconds:,.0f} acc/s, "
                      f"speedup {t_ref / seconds:.1f}x")
            backend_rows.append({
                "ports": ports,
                "backend": backend.name,
                "seconds": seconds,
                "accesses_per_s": args.accesses / seconds,
                "speedup_vs_reference": t_ref / seconds,
            })

    payload = {
        "benchmark": "engine_backend_throughput",
        "accesses": args.accesses,
        "dbcs": args.dbcs,
        "domains": args.domains,
        "repeats": args.repeats,
        "results": rows,
        "backends": backend_rows,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    if args.min_speedup and gate_speedup is not None \
            and gate_speedup < args.min_speedup:
        print(f"FAIL: single-port speedup {gate_speedup:.1f}x "
              f"< required {args.min_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
