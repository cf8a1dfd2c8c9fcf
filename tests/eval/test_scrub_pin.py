"""Pinned scrubbed matrix results.

Scrubbing realigns every drifted track after each ``scrub_interval``
accesses, counted over a controller's lifetime. Where the cut between
scrub windows falls must not depend on how a trace is replayed: the
engine backend, the replay chunk size and the port count's replay path
all have to give the same cells. This file pins one SHA-256 per scrub
interval over the canonical store payload
(:func:`repro.store.serde.cell_to_payload`) of every cell of a small
faulted matrix, and checks that both backends and two replay chunk
sizes reproduce it.
"""

import hashlib
from dataclasses import replace

import pytest

import repro.trace.trace as trace_module
from repro.eval.profiles import SMOKE_PROFILE
from repro.eval.runner import run_matrix
from repro.rtm.geometry import RTMConfig
from repro.store.serde import cell_to_payload

WORKLOADS = (
    "synthetic:uniform,vars=10,length=300,seqs=2",
    "synthetic:markov,vars=12,length=400",
)
CONFIGS = (
    RTMConfig(dbcs=2, domains_per_track=16, ports_per_track=1),
    RTMConfig(dbcs=4, domains_per_track=8, ports_per_track=2),
    RTMConfig(dbcs=3, domains_per_track=16, ports_per_track=4),
)
POLICIES = ("AFD-OFU", "DMA-SR")
PROFILE = replace(SMOKE_PROFILE, workloads=WORKLOADS, fault_rate=0.05,
                  workers=1)

#: scrub interval -> SHA-256 over the cells' payloads in result-key order.
PINNED = {
    1: "bf336fa88dd526cf2057d42c1ce80b36ebf7eac5686ed9f0620f64bcb9cc4f28",
    7: "b1d1369029caf780ea1e6791a2ffdbc4a7dc2eec268a3eba5272985b4f6a541b",
    64: "7266a3b9a198ce64d6fdf190b3313c988ee3427550edbb4319a71d2befbc8ff5",
}


def _matrix_digest(interval: int, backend: str) -> tuple[str, list]:
    cells = run_matrix(
        POLICIES,
        replace(PROFILE, scrub_interval=interval, engine_backend=backend),
        configs=CONFIGS, use_cache=False,
    )
    h = hashlib.sha256()
    for key in sorted(cells):
        h.update(cell_to_payload(cells[key]).encode())
    return h.hexdigest(), list(cells.values())


@pytest.mark.parametrize("chunk", [5, None], ids=["chunk5", "default-chunk"])
@pytest.mark.parametrize("backend", ["numpy", "reference"])
@pytest.mark.parametrize("interval", sorted(PINNED))
def test_scrubbed_cells_are_pinned(monkeypatch, interval, backend, chunk):
    if chunk is not None:
        monkeypatch.setattr(trace_module, "REPLAY_CHUNK", chunk)
    digest, cells = _matrix_digest(interval, backend)
    assert len(cells) == len(WORKLOADS) * len(CONFIGS) * len(POLICIES)
    assert all(c.report.scrub_events > 0 for c in cells)
    assert any(c.report.scrub_shifts > 0 for c in cells)
    assert digest == PINNED[interval]
