"""Multi-port fast-path equivalence: the 2-D monoid scan vs the oracle.

The multi-port tentpole lifted nearest-port evaluation onto the same
vectorized footing as the single-port path: per-gap transition tables,
a blocked monoid scan in the 1-D backend, a population-level ``(K, N)``
flattened kernel in ``evaluate_batch``, and an exact per-DBC replay mode
in ``DeltaCost``. Everything here enforces the one invariant that makes
the fast path usable: *bit-identical totals* against the per-access
reference backend, across population sizes and port counts — plus
seed-pinned multi-port searcher runs so the wiring through
GA/RW/annealing stays reproducible.
"""

import numpy as np
import pytest

from repro.core.cost import shift_cost
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.intra.annealing import annealed_order
from repro.core.placement import Placement
from repro.core.random_walk import random_walk_search
from repro.engine import (
    DeltaCost,
    ShiftRequest,
    evaluate_batch,
    get_backend,
)
from repro.engine.numpy_backend import (
    _DOUBLING_MAX,
    _gap_maps,
    _transition_tables,
    boundaries_array,
    positions_array,
)
from repro.errors import SimulationError
from repro.trace.sequence import AccessSequence
from tests.paperdata import FIG3_ACCESSES


def reference_scores(codes, dbc_of, pos_of, num_dbcs, domains, ports):
    backend = get_backend("reference")
    out = []
    for k in range(dbc_of.shape[0]):
        if codes.size == 0:
            out.append(0)
            continue
        out.append(backend.run(ShiftRequest(
            dbc=dbc_of[k][codes], slot=pos_of[k][codes],
            num_dbcs=num_dbcs, domains=domains, ports=ports,
        )).shifts)
    return out


class TestMultiPortBatchEquivalence:
    """K x ports, bit-identical to the oracle."""

    @pytest.mark.parametrize("population", [1, 8, 64])
    @pytest.mark.parametrize("ports", [2, 4, 8])
    def test_matches_reference_backend(self, population, ports):
        rng = np.random.default_rng(10_000 * population + 100 * ports + 10)
        for _trial in range(3):
            num_vars = int(rng.integers(1, 14))
            accesses = int(rng.integers(0, 90))
            num_dbcs = int(rng.integers(1, 5))
            domains = int(rng.integers(ports + 4, 96))
            codes = rng.integers(0, num_vars, accesses)
            dbc_of = rng.integers(0, num_dbcs, (population, num_vars))
            pos_of = rng.integers(0, domains, (population, num_vars))
            got = evaluate_batch(
                codes, dbc_of, pos_of, num_dbcs=num_dbcs, domains=domains,
                ports=ports,
            )
            assert list(got) == reference_scores(
                codes, dbc_of, pos_of, num_dbcs, domains, ports
            )

    def test_long_rows_cross_the_chunk_budget(self):
        # Trace length beyond _FLAT_CHUNK_ELEMENTS // K forces few-row
        # chunks; the flattened kernel must stay exact there too.
        rng = np.random.default_rng(42)
        codes = rng.integers(0, 12, 5000)
        dbc_of = rng.integers(0, 3, (7, 12))
        pos_of = rng.integers(0, 48, (7, 12))
        got = evaluate_batch(
            codes, dbc_of, pos_of, num_dbcs=3, domains=48, ports=2,
        )
        assert list(got) == reference_scores(codes, dbc_of, pos_of, 3, 48, 2)

    @pytest.mark.parametrize("ports", [2, 4, 8])
    def test_blocked_scan_matches_doubling_scale(self, ports):
        # One request past _DOUBLING_MAX exercises the blocked two-level
        # scan (packed for ports <= 4, explicit maps for 8).
        rng = np.random.default_rng(ports)
        n = _DOUBLING_MAX + 1500
        req = ShiftRequest(
            dbc=rng.integers(0, 6, n), slot=rng.integers(0, 64, n),
            num_dbcs=6, domains=64, ports=ports,
            init_offsets=rng.integers(-20, 21, 6),
            init_aligned=rng.integers(0, 2, 6).astype(bool),
            warm_start=False,
        )
        assert get_backend("numpy").run(req) == get_backend("reference").run(req)

    def test_placeholder_entries_on_unaccessed_variables_stay_legal(self):
        # The range checks prefer the (K, V) matrices but the contract
        # only constrains entries the trace gathers: placeholder DBC /
        # slot values on never-accessed variables must not raise.
        codes = np.array([0, 1, 0, 1])
        dbc_of = np.array([[0, 0, 99]])  # variable 2 never accessed
        pos_of = np.array([[0, 1, 7]])
        got = evaluate_batch(
            codes, dbc_of, pos_of, num_dbcs=1, domains=4, ports=2
        )
        assert got.tolist() == reference_scores(
            codes, np.zeros((1, 3), dtype=np.int64), pos_of, 1, 4, 2,
        )
        # Accessed violations still raise.
        with pytest.raises(SimulationError):
            evaluate_batch(
                codes, np.zeros((1, 3), dtype=np.int64),
                np.array([[0, 7, 1]]), num_dbcs=1, domains=4, ports=2,
            )

    def test_population_rows_cannot_leak_port_state(self):
        # Row boundaries are run resets: a candidate's multi-port cost
        # must not depend on its batchmates.
        codes = np.arange(4)
        dbc_of = np.zeros((2, 4), dtype=np.int64)
        lone = evaluate_batch(
            codes, dbc_of[:1], np.array([[0, 60, 3, 55]]),
            num_dbcs=1, domains=64, ports=2,
        )
        paired = evaluate_batch(
            codes, dbc_of, np.array([[0, 60, 3, 55], [63, 1, 62, 2]]),
            num_dbcs=1, domains=64, ports=2,
        )
        assert int(lone[0]) == int(paired[0])


class TestCachedGeometryTables:
    """Per-(domains, ports) tables are built once and shared (satellite)."""

    def test_tables_are_cached_and_frozen(self):
        for fn in (positions_array, boundaries_array, _transition_tables):
            a = fn(128, 4)
            assert fn(128, 4) is a  # identity: no rebuild per matrix cell
            assert not a.flags.writeable

    def test_transition_table_shapes(self):
        packed = _transition_tables(64, 2)     # packed: one int per gap
        assert packed.shape == (127,)
        rows, const = _gap_maps(64, 8)         # wide: rows plus const lane
        assert rows.shape == (127, 8)
        assert const.shape == (127,)
        # Constant lane agrees with the rows it summarizes.
        is_const = rows[:, 0] == rows[:, -1]
        assert np.array_equal(const >= 0, is_const)
        assert np.array_equal(const[is_const], rows[is_const, 0])


class TestMultiPortDeltaCost:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ports", [2, 4])
    def test_random_walk_agrees_with_reference(self, seed, ports):
        rng = np.random.default_rng(100 * ports + seed)
        num_vars = int(rng.integers(2, 14))
        accesses = int(rng.integers(2, 150))
        num_dbcs = int(rng.integers(1, 4))
        domains = int(rng.integers(16, 80))
        codes = rng.integers(0, num_vars, accesses)
        dbc_of = rng.integers(0, num_dbcs, num_vars)
        pos_of = rng.permutation(domains)[:num_vars].astype(np.int64)
        evaluator = DeltaCost(
            codes, dbc_of, pos_of, domains=domains, ports=ports
        )
        pos = pos_of.copy()

        def oracle():
            return reference_scores(
                codes, dbc_of[None, :], pos[None, :], num_dbcs, domains,
                ports,
            )[0]

        assert evaluator.cost == oracle()
        for _ in range(20):
            a, b = (int(x) for x in rng.choice(num_vars, 2, replace=False))
            priced = evaluator.swap_delta(a, b)
            before = evaluator.cost
            assert evaluator.cost == before  # pricing must not commit
            pos[a], pos[b] = pos[b], pos[a]
            assert evaluator.swap(a, b) == oracle()
            assert evaluator.cost - before == priced
        assert evaluator.resync() == oracle()

    def test_generic_moves(self):
        rng = np.random.default_rng(17)
        codes = rng.integers(0, 6, 80)
        dbc_of = np.zeros(6, dtype=np.int64)
        pos_of = np.array([0, 30, 3, 28, 7, 19], dtype=np.int64)
        evaluator = DeltaCost(codes, dbc_of, pos_of, domains=32, ports=2)
        moves = {0: 30, 1: 3, 2: 0}  # 3-cycle within the DBC
        priced = evaluator.delta(moves)
        total = evaluator.apply(moves)
        pos = pos_of.copy()
        pos[[0, 1, 2]] = [30, 3, 0]
        want = reference_scores(
            codes, dbc_of[None, :], pos[None, :], 1, 32, 2,
        )[0]
        assert total == want
        assert priced == want - reference_scores(
            codes, dbc_of[None, :], pos_of[None, :], 1, 32, 2,
        )[0]

    def test_multi_port_requires_domains(self):
        with pytest.raises(SimulationError):
            DeltaCost(
                np.array([0, 1]), np.zeros(2, dtype=np.int64),
                np.arange(2, dtype=np.int64), ports=2,
            )


class TestMultiPortSearcherPins:
    """Seed-fixed multi-port searcher results (regression pins).

    The values were captured when the multi-port wiring landed; every
    pin is also cross-checked against the scalar multi-port cost so a
    pin can only move if the engine's numbers move.
    """

    @pytest.fixture()
    def fig3(self):
        return AccessSequence(FIG3_ACCESSES, name="fig3")

    GA_SMALL = GAConfig(mu=10, lam=10, generations=8)

    @pytest.mark.parametrize("seed,cost,evaluations", [
        (1, 9, 90), (5, 9, 90), (7, 9, 90),
    ])
    def test_ga_pinned_ports2(self, fig3, seed, cost, evaluations):
        result = GeneticPlacer(
            fig3, 2, 512, self.GA_SMALL, rng=seed, ports=2, domains=64
        ).run()
        assert result.cost == cost
        assert result.evaluations == evaluations
        assert result.cost == shift_cost(
            fig3, result.placement, ports=2, domains=64
        )

    @pytest.mark.parametrize("seed,cost", [(3, 14), (4, 13), (9, 14)])
    def test_rw_pinned_ports2(self, fig3, seed, cost):
        result = random_walk_search(
            fig3, 2, 512, iterations=300, rng=seed, history_stride=100,
            ports=2, domains=64,
        )
        assert result.cost == cost
        assert result.cost == shift_cost(
            fig3, result.placement, ports=2, domains=64
        )

    @pytest.mark.parametrize("seed,order,cost", [
        (0, "iacdfeghb", 29), (2, "feghidacb", 30),
    ])
    def test_annealing_pinned_ports2(self, fig3, seed, order, cost):
        got = annealed_order(
            fig3, fig3.variables, iterations=500, rng=seed,
            ports=2, domains=16,
        )
        assert "".join(got) == order
        assert shift_cost(
            fig3, Placement([got]), ports=2, domains=16
        ) == cost
