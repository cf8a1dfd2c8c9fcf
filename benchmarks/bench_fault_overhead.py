#!/usr/bin/env python
"""Benchmark the fault-injection layer: zero-cost when off, bounded when on.

Per port count, times clean replay against (a) a rate-0 fault model and
(b) live fault rates on identical randomized traces. The rate-0 model
must normalize away at request construction (checked structurally:
``request.fault is None``) and therefore run the *exact* clean code
path — its row is gated at ``--max-overhead`` (default 1.05x) of the
clean time. Live-fault rows pay for the vectorized post-pass and are
gated at ``--min-ratio`` (default 0.25x) of clean throughput. Every
faulted row is also cross-checked bit-identical across the reference
and numpy backends — the determinism contract, enforced where the perf
numbers are produced. Each ratio times its two calls interleaved. The
output records the seed, the core count and the Python, numpy and repro
versions and, in its ``gates`` block, whether the gates passed.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py
    PYTHONPATH=src python benchmarks/bench_fault_overhead.py \
        --accesses 500000 --ports 1 2 4 --out BENCH_faults.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.engine import FaultModel, ShiftRequest, get_backend

from _bench_utils import provenance, time_pair


def make_arrays(accesses: int, num_dbcs: int, domains: int, seed: int):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, num_dbcs, accesses),
            rng.integers(0, domains, accesses))


def make_request(dbc, slot, num_dbcs, domains, ports, fault) -> ShiftRequest:
    return ShiftRequest(dbc=dbc, slot=slot, num_dbcs=num_dbcs,
                        domains=domains, ports=ports, fault=fault)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=200_000)
    parser.add_argument("--dbcs", type=int, default=8)
    parser.add_argument("--domains", type=int, default=128)
    parser.add_argument("--ports", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--rates", type=float, nargs="+", default=[0.01, 0.1])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-overhead", type=float, default=1.05,
                        help="rate-0 model time / clean time ceiling "
                             "(0 disables the gates)")
    parser.add_argument("--min-ratio", type=float, default=0.25,
                        help="faulted numpy throughput floor vs clean")
    parser.add_argument("--out", default="BENCH_faults.json")
    args = parser.parse_args(argv)

    reference = get_backend("reference")
    vectorized = get_backend("numpy")

    dbc, slot = make_arrays(args.accesses, args.dbcs, args.domains, args.seed)
    rows = []
    identical = True
    worst_overhead = 0.0
    worst_faulted = float("inf")
    for ports in args.ports:
        clean = make_request(dbc, slot, args.dbcs, args.domains, ports, None)
        zeroed = make_request(dbc, slot, args.dbcs, args.domains, ports,
                              FaultModel(rate=0.0, seed=args.seed))
        assert zeroed.fault is None, "rate-0 model failed to normalize away"
        assert vectorized.run(zeroed) == vectorized.run(clean)
        t_clean, t_zero = time_pair(lambda: vectorized.run(clean),
                                    lambda: vectorized.run(zeroed),
                                    args.repeats)
        overhead = t_zero / t_clean
        worst_overhead = max(worst_overhead, overhead)
        row = {
            "ports": ports,
            "accesses": args.accesses,
            "clean_s": t_clean,
            "clean_accesses_per_s": args.accesses / t_clean,
            "rate0_s": t_zero,
            "rate0_overhead_x": overhead,
        }
        print(f"ports={ports}: clean {row['clean_accesses_per_s']:,.0f} "
              f"acc/s, rate-0 overhead {overhead:.3f}x")
        faulted_rows = []
        for rate in args.rates:
            fault = FaultModel(rate=rate, seed=args.seed)
            request = make_request(dbc, slot, args.dbcs, args.domains,
                                   ports, fault)
            expected = vectorized.run(request)
            same = reference.run(request) == expected
            identical = identical and same
            t_base, t_fault = time_pair(lambda: vectorized.run(clean),
                                        lambda: vectorized.run(request),
                                        args.repeats)
            ratio = t_base / t_fault
            worst_faulted = min(worst_faulted, ratio)
            frow = {
                "rate": rate,
                "numpy_s": t_fault,
                "numpy_accesses_per_s": args.accesses / t_fault,
                "vs_clean_x": ratio,
                "injected": expected.faults.injected,
                "misaligned": expected.faults.misaligned,
                "identical": same,
            }
            print(f"  rate={rate:g}: numpy faulted "
                  f"{frow['numpy_accesses_per_s']:,.0f} acc/s "
                  f"({ratio:.2f}x clean, {frow['injected']} injected, "
                  f"identical={same})")
            faulted_rows.append(frow)
        row["faulted"] = faulted_rows
        rows.append(row)

    failures = []
    if args.max_overhead:
        if not identical:
            failures.append("faulted results diverge across backends")
        if worst_overhead > args.max_overhead:
            failures.append(
                f"rate-0 overhead {worst_overhead:.3f}x clean "
                f"> ceiling {args.max_overhead}x"
            )
        if worst_faulted < args.min_ratio:
            failures.append(
                f"faulted throughput fell to {worst_faulted:.2f}x clean "
                f"< floor {args.min_ratio}x"
            )
    status = ("fail" if failures else "pass") if args.max_overhead else "disabled"
    payload = {
        "benchmark": "fault_overhead",
        "provenance": provenance(args.seed),
        "accesses": args.accesses,
        "dbcs": args.dbcs,
        "domains": args.domains,
        "repeats": args.repeats,
        "rows": rows,
        "gates": {
            "max_overhead": args.max_overhead,
            "min_ratio": args.min_ratio,
            "worst_rate0_overhead_x": worst_overhead,
            "worst_faulted_vs_clean_x": worst_faulted,
            "identical": identical,
            "status": status,
            "failures": failures,
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
