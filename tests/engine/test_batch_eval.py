"""Equivalence tests for the batched candidate-evaluation layer.

The contract: :func:`repro.engine.evaluate_batch` and
:class:`repro.engine.DeltaCost` must agree *exactly* — same integers —
with scoring each candidate through the per-access reference backend.
The searchers built on top (GA, RW, annealing) must keep producing
seed-for-seed identical results to the pre-batch scalar implementations,
which the regression pins at the bottom lock down.
"""

import numpy as np
import pytest

from repro.core.cost import cost_from_arrays, shift_cost
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.placement import Placement
from repro.core.random_walk import random_walk_search
from repro.engine import (
    DeltaCost,
    ShiftRequest,
    evaluate_batch,
    get_backend,
)
from repro.errors import SimulationError


def reference_scores(codes, dbc_of, pos_of, num_dbcs, domains, ports, warm):
    """Per-candidate totals through the per-access oracle backend."""
    backend = get_backend("reference")
    out = []
    for k in range(dbc_of.shape[0]):
        if codes.size == 0:
            out.append(0)
            continue
        result = backend.run(
            ShiftRequest(
                dbc=dbc_of[k][codes], slot=pos_of[k][codes],
                num_dbcs=num_dbcs, domains=domains, ports=ports,
                warm_start=warm,
            )
        )
        out.append(result.shifts)
    return out


class TestEvaluateBatch:
    @pytest.mark.parametrize("population", [1, 8, 64])
    @pytest.mark.parametrize("ports", [1, 2, 4])
    def test_matches_reference_backend(self, population, ports):
        rng = np.random.default_rng(1000 * population + 10 * ports + 1)
        for trial in range(4):
            num_vars = int(rng.integers(1, 14))
            accesses = int(rng.integers(0, 80))
            num_dbcs = int(rng.integers(1, 5))
            domains = int(rng.integers(8, 72))
            codes = rng.integers(0, num_vars, accesses)
            dbc_of = rng.integers(0, num_dbcs, (population, num_vars))
            pos_of = rng.integers(0, domains, (population, num_vars))
            got = evaluate_batch(
                codes, dbc_of, pos_of, num_dbcs=num_dbcs, domains=domains,
                ports=ports,
            )
            want = reference_scores(
                codes, dbc_of, pos_of, num_dbcs, domains, ports, True
            )
            assert list(got) == want

    def test_long_traces_take_the_per_row_path(self):
        # > _FLAT_MAX_ACCESSES exercises the row-by-row kernel.
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 9, 700)
        dbc_of = rng.integers(0, 3, (5, 9))
        pos_of = rng.integers(0, 40, (5, 9))
        got = evaluate_batch(codes, dbc_of, pos_of, num_dbcs=3, domains=40)
        assert list(got) == reference_scores(
            codes, dbc_of, pos_of, 3, 40, 1, True
        )

    def test_chunked_flat_key_range(self):
        # rows * num_dbcs beyond uint16 forces row chunking.
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 20, 50)
        dbc_of = rng.integers(0, 600, (150, 20))
        pos_of = rng.integers(0, 64, (150, 20))
        got = evaluate_batch(codes, dbc_of, pos_of, num_dbcs=600, domains=64)
        assert list(got) == reference_scores(
            codes, dbc_of, pos_of, 600, 64, 1, True
        )

    def test_single_candidate_promotion(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 6, 30)
        dbc_of = rng.integers(0, 2, 6)
        pos_of = rng.integers(0, 8, 6)
        got = evaluate_batch(codes, dbc_of, pos_of, num_dbcs=2, domains=8)
        assert got.shape == (1,)
        assert int(got[0]) == cost_from_arrays(codes, dbc_of, pos_of, 2)

    def test_empty_population_and_trace(self):
        assert evaluate_batch(
            np.empty(0, dtype=np.int64),
            np.empty((3, 4), dtype=np.int64),
            np.empty((3, 4), dtype=np.int64),
            num_dbcs=2,
            domains=8,
        ).tolist() == [0, 0, 0]

    def test_validation(self):
        codes = np.array([0, 1])
        ok = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(SimulationError):
            evaluate_batch(codes, ok, np.zeros((3, 2)), num_dbcs=1)
        with pytest.raises(SimulationError):
            evaluate_batch(codes, ok + 5, ok, num_dbcs=2, domains=4)
        with pytest.raises(SimulationError):
            evaluate_batch(codes, ok, ok + 9, num_dbcs=2, domains=4)
        with pytest.raises(SimulationError):  # multi-port needs geometry
            evaluate_batch(codes, ok, ok, num_dbcs=2, ports=2)
        with pytest.raises(SimulationError):  # codes outside the candidates
            evaluate_batch(np.array([7]), ok, ok, num_dbcs=2, domains=4)

    def test_malformed_candidate_rejected(self):
        # Right element count, but one code duplicated and one missing:
        # must raise, not score uninitialized memory.
        from repro.engine import stack_candidate_arrays
        with pytest.raises(SimulationError):
            stack_candidate_arrays([[[0, 0], [2]]], 3)
        # More entries than variables, and a code out of range.
        with pytest.raises(SimulationError, match="4 entries"):
            stack_candidate_arrays([[[0, 1], [2, 0]]], 3)
        with pytest.raises(SimulationError, match="code 5"):
            stack_candidate_arrays([[[0, 5], [2]]], 3)
        # Well-formed candidates still pack exactly.
        dbc_of, pos_of = stack_candidate_arrays([[[1, 0], [2]]], 3)
        assert dbc_of.tolist() == [[0, 0, 1]]
        assert pos_of.tolist() == [[1, 0, 0]]


class TestDeltaCost:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_walk_agrees_with_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 16))
        accesses = int(rng.integers(2, 150))
        num_dbcs = int(rng.integers(1, 4))
        codes = rng.integers(0, num_vars, accesses)
        dbc_of = rng.integers(0, num_dbcs, num_vars)
        pos_of = rng.permutation(num_vars).astype(np.int64)
        evaluator = DeltaCost(codes, dbc_of, pos_of)
        pos = pos_of.copy()

        def oracle():
            return reference_scores(
                codes, dbc_of[None, :], pos[None, :], num_dbcs,
                int(pos.max()) + 1, 1, True,
            )[0]

        assert evaluator.cost == oracle()
        for _ in range(25):
            a, b = (int(x) for x in rng.choice(num_vars, 2, replace=False))
            priced = evaluator.swap_delta(a, b)
            before = evaluator.cost
            pos[a], pos[b] = pos[b], pos[a]
            assert evaluator.swap(a, b) == oracle()
            assert evaluator.cost - before == priced
        assert evaluator.resync() == oracle()

    def test_generic_moves(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 8, 60)
        dbc_of = np.zeros(8, dtype=np.int64)
        pos_of = np.arange(8, dtype=np.int64)
        evaluator = DeltaCost(codes, dbc_of, pos_of)
        # Rotate three variables' slots: a 3-cycle as one move set.
        moves = {0: int(pos_of[1]), 1: int(pos_of[2]), 2: int(pos_of[0])}
        priced = evaluator.delta(moves)
        total = evaluator.apply(moves)
        pos = pos_of.copy()
        pos[[0, 1, 2]] = [pos_of[1], pos_of[2], pos_of[0]]
        want = cost_from_arrays(codes, dbc_of, pos, 1)
        assert total == want
        assert priced == want - cost_from_arrays(codes, dbc_of, pos_of, 1)

    def test_wide_dbc_indices_stay_grouped(self):
        # DBC indices beyond uint16 must not wrap in the pair compiler.
        codes = np.array([0, 1, 2])
        dbc_of = np.array([0, 0x10000, 0], dtype=np.int64)
        pos_of = np.array([0, 3, 7], dtype=np.int64)
        evaluator = DeltaCost(codes, dbc_of, pos_of)
        assert evaluator.cost == 7  # codes 0 and 2 share a DBC: |0 - 7|

    def test_delta_does_not_commit(self):
        codes = np.array([0, 1, 0, 2, 1])
        evaluator = DeltaCost(
            codes, np.zeros(3, dtype=np.int64), np.arange(3, dtype=np.int64)
        )
        before = evaluator.cost
        evaluator.swap_delta(0, 2)
        assert evaluator.cost == before
        assert evaluator.position_of(0) == 0


class TestSearcherRegressions:
    """Seed-fixed results pinned across the batch refactor.

    The values were captured from the pre-batch scalar implementations;
    the batched searchers must reproduce them bit-for-bit (the RNG
    streams are untouched because scoring consumes no randomness).
    """

    GA_SMALL = GAConfig(mu=10, lam=10, generations=8)

    @pytest.mark.parametrize("seed,cost,evaluations", [
        (1, 9, 90), (5, 9, 90), (7, 9, 90),
    ])
    def test_ga_pinned(self, fig3_sequence, seed, cost, evaluations):
        result = GeneticPlacer(
            fig3_sequence, 2, 512, self.GA_SMALL, rng=seed
        ).run()
        assert result.cost == cost
        assert result.evaluations == evaluations

    @pytest.mark.parametrize("seed,cost", [(3, 12), (4, 14), (9, 14)])
    def test_rw_pinned(self, fig3_sequence, seed, cost):
        result = random_walk_search(
            fig3_sequence, 2, 512, iterations=300, rng=seed,
            history_stride=100,
        )
        assert result.cost == cost

    def test_ga_batch_scoring_matches_single_fitness(self, fig3_sequence):
        placer = GeneticPlacer(
            fig3_sequence, 2, 512, self.GA_SMALL, rng=0
        )
        dbc_of, pos_of = placer.initial_population()
        batch = placer.score(dbc_of, pos_of).tolist()
        singles = [int(placer.score(dbc_of[i:i + 1], pos_of[i:i + 1])[0])
                   for i in range(dbc_of.shape[0])]
        assert batch == singles
        # Both paths also agree with the scalar placement cost.
        for row_dbc, row_pos, score in zip(dbc_of, pos_of, batch):
            placement = Placement.from_arrays(
                fig3_sequence.variables, row_dbc, row_pos, 2
            )
            assert score == shift_cost(fig3_sequence, placement)
