#!/usr/bin/env python
"""Micro-benchmark: multi-port replay (blocked monoid scan) vs the reference.

One **replay** row per port count: 1-D trace replay through the
reference backend (per-access Python) vs numpy (per-gap transition
tables + one blocked scan per map representation, the same at every
trace length). Gated at ``--min-replay-speedup`` (default 8x) for the
gate ports (default 2, 4 and 8 — 2 ports run the packed maps' forward
fill, 4 ports the packed-table scan, 8 ports the constant-collapse state
chase; at the default 200,000 accesses every scan runs full 128-access
blocks).

Every pair is first checked *bit-identical*, so the speedups always
compare the same numbers, then timed interleaved. Results go to
``BENCH_multiport.json`` with the seed, the core count and the Python,
numpy and repro versions; non-zero exit on a missed gate lets CI
enforce it.

Usage::

    PYTHONPATH=src python benchmarks/bench_multiport.py
    PYTHONPATH=src python benchmarks/bench_multiport.py \
        --ports 2 4 8 --out results/BENCH_multiport.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.engine import ShiftRequest, get_backend

from _bench_utils import provenance, time_pair


def replay_rows(args) -> list[dict]:
    reference = get_backend("reference")
    vectorized = get_backend("numpy")
    rng = np.random.default_rng(args.seed)
    rows = []
    for ports in args.ports:
        request = ShiftRequest(
            dbc=rng.integers(0, args.dbcs, args.accesses),
            slot=rng.integers(0, args.domains, args.accesses),
            num_dbcs=args.dbcs,
            domains=args.domains,
            ports=ports,
        )
        assert reference.run(request) == vectorized.run(request)
        t_ref, t_vec = time_pair(lambda: reference.run(request),
                                 lambda: vectorized.run(request), args.repeats)
        rows.append({
            "mode": "replay",
            "ports": ports,
            "reference_s": t_ref,
            "numpy_s": t_vec,
            "reference_accesses_per_s": args.accesses / t_ref,
            "numpy_accesses_per_s": args.accesses / t_vec,
            "speedup": t_ref / t_vec,
            "gated": ports in args.gate_ports,
        })
        print(f"replay ports={ports}: "
              f"reference {rows[-1]['reference_accesses_per_s']:,.0f} acc/s, "
              f"numpy {rows[-1]['numpy_accesses_per_s']:,.0f} acc/s, "
              f"speedup {rows[-1]['speedup']:.1f}x")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=200_000,
                        help="replay trace length")
    parser.add_argument("--dbcs", type=int, default=8)
    parser.add_argument("--domains", type=int, default=128)
    parser.add_argument("--ports", type=int, nargs="+", default=[2, 4, 8],
                        help="port counts for the replay rows")
    parser.add_argument("--gate-ports", type=int, nargs="+", default=[2, 4, 8],
                        help="port counts the replay gate applies to")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-replay-speedup", type=float, default=8.0,
                        help="fail below this on gate ports (0 disables)")
    parser.add_argument("--out", default="BENCH_multiport.json")
    args = parser.parse_args(argv)

    rows = replay_rows(args)
    payload = {
        "benchmark": "multiport_fast_path",
        "provenance": provenance(args.seed),
        "accesses": args.accesses,
        "dbcs": args.dbcs,
        "domains": args.domains,
        "repeats": args.repeats,
        "results": rows,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    bar = args.min_replay_speedup
    failures = [
        f"{row['mode']} ports={row['ports']} ({row['speedup']:.1f}x < {bar}x)"
        for row in rows
        if row["gated"] and bar and row["speedup"] < bar
    ]
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
