"""Workload-layer throughput gate: ingestion and registry resolution.

Three measurements, each gated as a conservative non-regression floor:

* **ingest** — parse a 200k-line raw address trace and map it to a
  placement trace through the geometry (word grouping, hot/cold
  filtering, working-set capping), best of 5 calls. Gate: >= 250k
  accesses/s, a floor well below the block parser's 1.0M-1.9M/s on a
  2-vCPU VM (the per-line parser it replaced read 0.23M-0.31M/s there).
* **roundtrip** — render the ingested trace to the native format and
  parse it back, asserting identity, best of 5 calls. Gate: >= 50k
  accesses/s.
* **resolve** — resolve the smoke suite through the workload registry
  and compare against the direct suite loader, timed interleaved (best
  of 15 calls each). Gates: bit-identical fingerprints, and registry
  overhead <= 25% (it should be ~0: the registry adds one parse + RNG
  spawn per spec).

Usage: ``PYTHONPATH=src python benchmarks/bench_workload_ingest.py
--out BENCH_workloads.json`` (CI runs exactly this).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.eval.profiles import SMOKE_PROFILE
from repro.trace.generators.offsetstone import load_benchmark
from repro.trace.io import parse_traces, read_address_trace, render_traces
from repro.workloads import (
    WorkloadContext,
    resolve_workloads,
    workload_fingerprint,
)

from _bench_utils import provenance, time_pair

ACCESSES = 200_000
WORDS = 1_024
SEED = 42
#: Interleaved calls per side of the resolve comparison.
RESOLVE_REPEATS = 15
#: Interleaved calls whose best times give the ingest and round-trip
#: rates: one call reads the host's load as much as the code.
REPEATS = 5


def _write_address_trace(path: Path, accesses: int) -> None:
    rng = np.random.default_rng(SEED)
    # Zipf-flavoured hot set over WORDS words at byte granularity.
    ranks = rng.zipf(1.3, size=accesses) % WORDS
    addrs = 0x10_000 + ranks * 4
    ops = np.where(rng.random(accesses) < 0.3, "W", "R")
    with open(path, "w", encoding="utf-8") as f:
        f.write("# synthetic gem5-style trace\n")
        for i in range(accesses):
            f.write(f"{1000 + i}: {ops[i]} 0x{addrs[i]:x} 4\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=ACCESSES)
    parser.add_argument("--min-ingest-rate", type=float, default=250_000,
                        help="fail below this many ingested accesses/s "
                             "(0 disables)")
    parser.add_argument("--min-roundtrip-rate", type=float, default=50_000,
                        help="fail below this many round-tripped accesses/s "
                             "(0 disables)")
    parser.add_argument("--max-resolve-overhead", type=float, default=1.25,
                        help="fail when registry resolution exceeds this "
                             "multiple of the direct loader (0 disables)")
    parser.add_argument("--out", default="BENCH_workloads.json")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "app.atrc"
        _write_address_trace(trace_path, args.accesses)

        def ingest():
            return read_address_trace(trace_path, max_vars=512, min_count=2)

        def roundtrip(trace):
            return parse_traces(render_traces([trace]))[0]

        trace = ingest()
        if roundtrip(trace) != trace:
            print("FAIL: render/parse round-trip not identical",
                  file=sys.stderr)
            return 1
        ingest_s, roundtrip_s = time_pair(
            ingest, lambda: roundtrip(trace), REPEATS
        )
        ingest_rate = args.accesses / ingest_s
        roundtrip_rate = len(trace) / roundtrip_s

    ctx = WorkloadContext.from_profile(SMOKE_PROFILE)
    names = SMOKE_PROFILE.benchmarks

    def load_direct():
        return [
            load_benchmark(n, scale=ctx.scale, seed=ctx.seed,
                           write_ratio=ctx.write_ratio)
            for n in names
        ]

    direct = load_direct()
    resolved = resolve_workloads(names, ctx)
    # Both sides take milliseconds: interleaved minima over many calls,
    # so one busy moment cannot read as registry overhead.
    direct_s, resolve_s = time_pair(
        load_direct, lambda: resolve_workloads(names, ctx), RESOLVE_REPEATS
    )
    identical = (
        [workload_fingerprint(p) for p in direct]
        == [workload_fingerprint(p) for p in resolved]
    )
    overhead = resolve_s / direct_s if direct_s else 1.0

    payload = {
        "benchmark": "workload_ingest",
        "provenance": provenance(SEED),
        "accesses": args.accesses,
        "ingest": {"repeats": REPEATS, "seconds": ingest_s,
                   "rate_per_s": ingest_rate,
                   "kept_vars": trace.sequence.num_variables,
                   "kept_accesses": len(trace)},
        "roundtrip": {"repeats": REPEATS, "seconds": roundtrip_s,
                      "rate_per_s": roundtrip_rate},
        "resolve": {"suite": list(names), "seed": ctx.seed,
                    "repeats": RESOLVE_REPEATS, "direct_s": direct_s,
                    "registry_s": resolve_s, "overhead_x": overhead,
                    "bit_identical": identical},
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"ingest:    {args.accesses} accesses in {ingest_s:.2f}s "
          f"({ingest_rate:,.0f}/s; kept {trace.sequence.num_variables} vars, "
          f"{len(trace)} accesses)")
    print(f"roundtrip: {len(trace)} accesses in {roundtrip_s:.2f}s "
          f"({roundtrip_rate:,.0f}/s)")
    print(f"resolve:   {len(names)} specs, direct {direct_s:.3f}s vs "
          f"registry {resolve_s:.3f}s ({overhead:.2f}x, "
          f"bit_identical={identical})")
    print(f"wrote {out}")

    if not identical:
        print("FAIL: registry suite differs from the direct loader",
              file=sys.stderr)
        return 1
    if args.min_ingest_rate and ingest_rate < args.min_ingest_rate:
        print(f"FAIL: ingest rate {ingest_rate:,.0f}/s < required "
              f"{args.min_ingest_rate:,.0f}/s", file=sys.stderr)
        return 1
    if args.min_roundtrip_rate and roundtrip_rate < args.min_roundtrip_rate:
        print(f"FAIL: roundtrip rate {roundtrip_rate:,.0f}/s < required "
              f"{args.min_roundtrip_rate:,.0f}/s", file=sys.stderr)
        return 1
    if args.max_resolve_overhead and overhead > args.max_resolve_overhead:
        print(f"FAIL: registry overhead {overhead:.2f}x > allowed "
              f"{args.max_resolve_overhead:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
