"""A-2 — ablation: access-port count per track.

Chen's multi-DBC heuristic assumes a fixed multi-port architecture; the
paper's central 'generalized' claim is that DMA works for any port count
(Sec. II-B / III). This ablation measures every policy's shift cost at
1, 2 and 4 ports per track and checks that DMA's advantage persists.
"""

import pytest

from repro.core.cost import shift_cost
from repro.core.policies import get_policy
from repro.trace.generators.offsetstone import load_benchmark
from repro.util.tables import format_table

from _bench_utils import PROFILE, publish_text

POLICIES = ("AFD-OFU", "DMA-OFU", "DMA-SR")
PORTS = (1, 2, 4)


@pytest.fixture(scope="module")
def sequences():
    out = []
    for name in ("cc65", "jpeg", "gsm"):
        bench = load_benchmark(name, scale=PROFILE.suite_scale, seed=PROFILE.seed)
        out.append(max((t.sequence for t in bench.traces), key=len))
    return out


def test_port_count_ablation(benchmark, sequences):
    domains = 256

    def sweep():
        totals = {(p, ports): 0 for p in POLICIES for ports in PORTS}
        for seq in sequences:
            placements = {
                p: get_policy(p).place(seq, 4, domains) for p in POLICIES
            }
            for p, placement in placements.items():
                for ports in PORTS:
                    totals[(p, ports)] += shift_cost(
                        seq, placement, ports=ports, domains=domains
                    )
        return totals

    totals = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for ports in PORTS:
        row = [f"{ports} port(s)"]
        for p in POLICIES:
            row.append(totals[(p, ports)])
        rows.append(row)
    publish_text(
        "A-2 port-count ablation (total shifts, 4 DBCs)",
        format_table(["config", *POLICIES], rows),
    )

    for p in POLICIES:
        # More ports never cost more shifts for the same placement.
        per_port = [totals[(p, ports)] for ports in PORTS]
        assert all(a >= b for a, b in zip(per_port, per_port[1:])), (p, per_port)
    for ports in PORTS:
        # DMA-SR's advantage over AFD-OFU is port-count independent.
        assert totals[("DMA-SR", ports)] <= totals[("AFD-OFU", ports)], ports

