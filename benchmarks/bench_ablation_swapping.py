"""A-6 — ablation: static placement vs runtime mitigation schemes.

The paper's pitch for placement is that it removes shifts "with trivial
or no overheads" (Sec. V) compared to hardware schemes like runtime data
swapping [20] and proactive port alignment [1,12,21]. This bench stages
that comparison: AFD-OFU + swapping / pre-shifting (runtime help for a
frequency-only layout) against plain static DMA-SR.
"""

import pytest

from repro.core.policies import get_policy
from repro.eval.ablations import ablation_swapping
from repro.rtm.geometry import iso_capacity_sweep
from repro.rtm.preshift import PreshiftController, PreshiftPolicy
from repro.trace.generators.offsetstone import load_benchmark
from repro.util.tables import format_table

from _bench_utils import PROFILE, publish_text


@pytest.fixture(scope="module")
def workload():
    bench = load_benchmark("h263", scale=PROFILE.suite_scale, seed=PROFILE.seed)
    config = [c for c in iso_capacity_sweep() if c.dbcs == 4][0]
    return bench, config


def test_static_dma_vs_online_swapping(benchmark):
    result = benchmark.pedantic(
        lambda: ablation_swapping(
            PROFILE, benchmark="h263", num_dbcs=4, threshold=4
        ),
        rounds=1, iterations=1,
    )
    publish_text(
        "A-6 static placement vs online swapping (4 DBCs, total shifts)",
        format_table(["scheme", "total shifts"], result.rows)
        + f"\n(swaps performed: {int(result.summary['swaps'])})",
    )
    totals = dict(result.rows)
    # Static DMA-SR should beat the swap-assisted frequency layout —
    # the paper's 'no hardware overhead' argument.
    assert totals["DMA-SR"] <= totals["AFD-OFU+swap"]


def test_preshift_latency_energy_tradeoff(benchmark, workload):
    bench, config = workload
    cap = config.locations_per_dbc
    policy = get_policy("DMA-SR")

    def run():
        rows = []
        for label, ps in (("none", PreshiftPolicy.NONE),
                          ("centre", PreshiftPolicy.CENTRE),
                          ("stride", PreshiftPolicy.STRIDE)):
            demand = idle = 0
            latency = 0.0
            for trace in bench.traces:
                seq = trace.sequence
                placement = policy.place(seq, config.dbcs, cap)
                ctrl = PreshiftController(config, placement, policy=ps)
                report = ctrl.execute(trace)
                demand += report.demand_shifts
                idle += report.idle_shifts
                latency += report.latency_ns
            rows.append([label, demand, idle, round(latency, 1)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish_text(
        "A-6 pre-shift policies on DMA-SR (4 DBCs)",
        format_table(
            ["policy", "demand shifts", "idle shifts", "latency [ns]"], rows
        )
        + "\n(finding: naive proactive alignment *increases* demand shifts "
        "on a placement-optimized layout — the placement already encodes "
        "the locality the predictor guesses at; see test_preshift.py for "
        "the ping-pong pattern where pre-shifting does win)",
    )
    by = {r[0]: r for r in rows}
    # Plain demand shifting performs no idle work...
    assert by["none"][2] == 0
    # ...and on a placement-optimized layout it is also the best policy:
    # the layout already puts successive accesses next to the port, so
    # speculative realignment can only lose. This supports the paper's
    # 'placement instead of hardware mitigation' argument (Sec. V).
    assert by["none"][1] <= by["stride"][1] <= by["centre"][1]
    assert by["centre"][2] > 0 and by["stride"][2] > 0
