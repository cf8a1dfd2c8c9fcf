#!/usr/bin/env python
"""Benchmark: bounded-memory streaming replay of a huge address trace.

``stream_address_trace`` + the engine's ``ShiftCursor`` exist so that
hundred-million-access traces can be replayed without materializing
per-access arrays: ingestion spills coded accesses to disk in a census
pass and replay walks fixed-size chunks through the same backends the
monolithic path uses. This bench makes the three claims observable on a
~10M-access synthetic trace:

* **bit-identity** — the streamed replay's ``SimReport`` (integer
  counters *and* derived floats) must equal the in-memory replay's,
  always enforced.
* **bounded memory** — peak resident memory of the streamed run must
  stay below a flat ceiling (``--rss-ceiling``) *and* must not grow
  with trace length: the full-length streamed peak is gated against
  the quarter-length streamed peak times ``--flat-tolerance``.
* **throughput** — streaming may not cost more than a bounded slowdown:
  end-to-end (ingest + replay) streamed throughput must be at least
  ``--min-throughput`` (default 0.7x) of the in-memory path.

Each measured phase runs in a fresh forked child so one phase's
allocator high-water mark cannot pollute another's; the parent samples
peak PSS of the process tree from ``/proc`` (see ``_bench_utils``).

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src python benchmarks/bench_streaming.py \
        --accesses 20000000 --out results/BENCH_streaming.json
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _bench_utils import RssSampler, provenance  # noqa: E402

from repro.rtm.controller import RTMController  # noqa: E402
from repro.rtm.geometry import RTMConfig  # noqa: E402
from repro.trace.io import read_address_trace  # noqa: E402
from repro.trace.streaming import stream_address_trace  # noqa: E402

#: Ingestion knobs shared by both paths (identical hot-set selection).
INGEST = dict(word_bytes=8, max_vars=64, min_count=2)

_WRITE_BATCH = 1 << 20


def write_address_trace(path: Path, accesses: int, seed: int) -> None:
    """A deterministic gem5-style raw address trace with a hot working set."""
    rng = np.random.default_rng(seed)
    words = 96
    ranks = np.arange(1, words + 1, dtype=np.float64)
    probs = 1.0 / ranks**1.1
    probs /= probs.sum()
    with path.open("w", encoding="utf-8") as fh:
        for start in range(0, accesses, _WRITE_BATCH):
            n = min(_WRITE_BATCH, accesses - start)
            idx = rng.choice(words, size=n, p=probs)
            fh.write("\n".join(f"0x{0x1000 + 8 * a:x}" for a in idx))
            fh.write("\n")


class RoundRobinPlacement:
    """Variables dealt round-robin across DBCs, in variable order.

    Policy-free and a pure function of the variable tuple, so the
    in-memory and streamed runs (whose variable orders are identical by
    the ingestion contract) replay against the same physical layout.
    """

    def __init__(self, variables, num_dbcs: int):
        lists: list[list[str]] = [[] for _ in range(num_dbcs)]
        for code, name in enumerate(variables):
            lists[code % num_dbcs].append(name)
        self._lists = lists

    def dbc_lists(self):
        return self._lists


def _run_phase(mode: str, path: str, chunk: int, limit, conn) -> None:
    """Child-process body: ingest + replay once, ship timings back."""
    config = RTMConfig(
        dbcs=16, tracks_per_dbc=1, domains_per_track=64, ports_per_track=4
    )
    t0 = time.perf_counter()
    if mode == "inmem":
        trace = read_address_trace(path, limit=limit, **INGEST)
    else:
        trace = stream_address_trace(path, chunk=chunk, limit=limit, **INGEST)
    t_ingest = time.perf_counter() - t0
    placement = RoundRobinPlacement(trace.variables, config.dbcs)
    controller = RTMController(config, placement)
    t1 = time.perf_counter()
    report = controller.execute(trace)
    t_replay = time.perf_counter() - t1
    conn.send({
        "accesses": len(trace),
        "variables": len(trace.variables),
        "ingest_s": t_ingest,
        "replay_s": t_replay,
        "report": report,
    })
    conn.close()


def timed_phase(mode: str, path: Path, chunk: int, limit=None):
    """Run one phase in a fresh child; returns (stats, peak_rss_mib)."""
    ctx = multiprocessing.get_context()
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_run_phase, args=(mode, str(path), chunk, limit, child)
    )
    with RssSampler() as mem:
        proc.start()
        child.close()
        stats = parent.recv()
        proc.join(timeout=600)
    parent.close()
    if proc.exitcode != 0:
        raise RuntimeError(f"{mode} phase exited with {proc.exitcode}")
    return stats, mem.peak_mib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=10_000_000,
                        help="length of the generated raw address trace")
    parser.add_argument("--chunk", type=int, default=1 << 20,
                        help="streaming chunk size in accesses")
    parser.add_argument("--min-throughput", type=float, default=0.7,
                        help="gate: streamed end-to-end throughput as a "
                             "fraction of in-memory (0 disables)")
    parser.add_argument("--rss-ceiling", type=float, default=384.0,
                        help="gate: streamed peak RSS ceiling in MiB "
                             "(0 disables; independent of trace length)")
    parser.add_argument("--flat-tolerance", type=float, default=1.25,
                        help="gate: full-length streamed peak RSS may "
                             "exceed quarter-length by at most this factor "
                             "(0 disables)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default="BENCH_streaming.json")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_streaming_") as tmp:
        trace_file = Path(tmp) / "addresses.trc"
        t0 = time.perf_counter()
        write_address_trace(trace_file, args.accesses, args.seed)
        size_mib = trace_file.stat().st_size / 2**20
        print(f"generated {args.accesses:,} accesses "
              f"({size_mib:.0f} MiB) in {time.perf_counter() - t0:.1f}s")

        inmem, rss_inmem = timed_phase("inmem", trace_file, args.chunk)
        print(f"in-memory : ingest {inmem['ingest_s']:.2f}s, replay "
              f"{inmem['replay_s']:.2f}s, peak {rss_inmem:.0f} MiB")
        stream, rss_stream = timed_phase("stream", trace_file, args.chunk)
        print(f"streamed  : ingest {stream['ingest_s']:.2f}s, replay "
              f"{stream['replay_s']:.2f}s, peak {rss_stream:.0f} MiB")
        quarter, rss_quarter = timed_phase(
            "stream", trace_file, args.chunk, limit=args.accesses // 4
        )
        print(f"streamed/4: ingest {quarter['ingest_s']:.2f}s, replay "
              f"{quarter['replay_s']:.2f}s, peak {rss_quarter:.0f} MiB")

    bit_identical = (
        stream["report"] == inmem["report"]
        and stream["accesses"] == inmem["accesses"]
    )
    t_inmem = inmem["ingest_s"] + inmem["replay_s"]
    t_stream = stream["ingest_s"] + stream["replay_s"]
    throughput = t_inmem / t_stream
    sampler_ok = min(rss_inmem, rss_stream, rss_quarter) > 0
    rss_growth = rss_stream / rss_quarter if rss_quarter else float("inf")

    def row(name, stats, rss):
        return {
            "mode": name,
            "accesses": stats["accesses"],
            "variables": stats["variables"],
            "ingest_s": stats["ingest_s"],
            "replay_s": stats["replay_s"],
            "peak_rss_mib": rss,
            "shifts": stats["report"].shifts,
        }

    payload = {
        "benchmark": "streaming_replay",
        "provenance": provenance(args.seed),
        "generated_accesses": args.accesses,
        "chunk": args.chunk,
        "results": [
            row("inmem", inmem, rss_inmem),
            row("stream", stream, rss_stream),
            row("stream_quarter", quarter, rss_quarter),
        ],
        "throughput_vs_inmem": throughput,
        "rss_growth_full_vs_quarter": rss_growth,
        "checks": {
            "bit_identical_stream_vs_inmem": bit_identical,
            "rss_sampler_available": sampler_ok,
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    failures = []
    if not bit_identical:
        failures.append("streamed report differs from in-memory report")
    if args.min_throughput and throughput < args.min_throughput:
        failures.append(
            f"streamed throughput {throughput:.2f}x < {args.min_throughput}x"
        )
    if sampler_ok:
        if args.rss_ceiling and rss_stream > args.rss_ceiling:
            failures.append(
                f"streamed peak RSS {rss_stream:.0f} MiB > ceiling "
                f"{args.rss_ceiling:.0f} MiB"
            )
        if args.flat_tolerance and rss_growth > args.flat_tolerance:
            failures.append(
                f"streamed peak RSS grew {rss_growth:.2f}x from quarter to "
                f"full length (> {args.flat_tolerance}x)"
            )
    else:
        print("RSS gates skipped: /proc sampling unavailable")
    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"throughput {throughput:.2f}x, RSS flat-growth {rss_growth:.2f}x; "
          f"all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
