"""External trace ingestion, end to end.

The paper's placement heuristics are defined over arbitrary access
traces; this example runs them on one that was never generated by this
library. It (1) fabricates a gem5-style raw address trace (CSV lines of
``op,address``), (2) ingests it through the RTM geometry — word-granular
grouping, working-set capping, cold filtering — into the native trace
format, (3) evaluates the paper's heuristics on it as a ``file:``
workload spec with a scenario transform, against a persistent store,
and (4) regenerates the same numbers offline, with zero simulation,
straight from the store.

Run:  python examples/external_trace_ingestion.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.eval.profiles import SMOKE_PROFILE
from repro.eval.runner import clear_cell_cache, last_matrix_stats, run_matrix
from repro.rtm.geometry import iso_capacity_sweep
from repro.trace.io import read_address_trace, write_traces
from repro.trace.stats import analyze
from repro.util.tables import format_table
from repro.workloads import WorkloadContext, resolve_workload


def fabricate_address_trace(path: Path, accesses: int = 6_000) -> None:
    """Phased traffic over a 256-word heap, as a pintool would log it."""
    rng = np.random.default_rng(11)
    lines = ["# op,address — one heap access per line"]
    phase_bases = [0x1000, 0x2000, 0x3000]
    for i in range(accesses):
        base = phase_bases[(i * len(phase_bases)) // accesses]
        hot = rng.zipf(1.4) % 64
        op = "w" if rng.random() < 0.3 else "r"
        lines.append(f"{op},0x{base + 4 * hot:x}")
    path.write_text("\n".join(lines))


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-ingest-"))
    raw = tmp / "app.csv"
    fabricate_address_trace(raw)
    print(f"fabricated raw address trace: {raw}")

    # (2) ingest: addresses -> variables through the geometry.
    trace = read_address_trace(raw, word_bytes=4, max_vars=128, min_count=2)
    stats = analyze(trace.sequence)
    print(f"ingested: {stats.describe()}")
    native = tmp / "app.trc"
    write_traces(native, [trace])
    print(f"native format written: {native} "
          f"(repro-trace stats {native} shows the same numbers)\n")

    # (3) evaluate the heuristics on it, phase-split into 3 scenarios.
    spec = f"file:{native}@phases=3"
    program = resolve_workload(spec, WorkloadContext())
    print(f"workload {program.name}: {program.num_sequences} traces, "
          f"{program.total_accesses} accesses")

    profile = replace(SMOKE_PROFILE, workloads=(spec,))
    store = tmp / "cells.db"
    policies = ("AFD-OFU", "DMA-OFU", "DMA-SR")
    configs = iso_capacity_sweep(dbc_counts=(2, 4, 8))
    clear_cell_cache()
    matrix = run_matrix(policies, profile, configs=configs, store=store)
    print(f"matrix computed: {last_matrix_stats().describe()}")

    rows = []
    for q in (2, 4, 8):
        afd = matrix[(program.name, "AFD-OFU", q)].shifts
        row = [q]
        for p in policies:
            cell = matrix[(program.name, p, q)]
            row.append(f"{cell.shifts} ({(afd + 1) / (cell.shifts + 1):.2f}x)")
        rows.append(row)
    print(format_table(
        ["DBCs", *policies], rows,
        title="shift cost on the ingested trace (improvement over AFD-OFU)",
    ))

    # (4) offline regeneration: the store serves everything.
    clear_cell_cache()
    regenerated = run_matrix(policies, replace(profile, offline=True),
                             configs=configs, store=store)
    stats = last_matrix_stats()
    assert regenerated == matrix and stats.computed == 0
    print(f"\noffline regeneration from {store.name}: "
          f"{stats.describe()} — bit-identical, zero simulation")


if __name__ == "__main__":
    main()
