"""Equivalence tests for the batched candidate-evaluation layer.

The contract: :func:`repro.engine.evaluate_batch` must agree *exactly*
— same integers — with scoring each candidate through the per-access
reference backend at one port.
The searchers built on top (GA, RW) must keep producing
seed-for-seed identical results to the pre-batch scalar implementations,
which the regression pins at the bottom lock down.
"""

import numpy as np
import pytest

from repro.core.cost import shift_cost
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.placement import Placement
from repro.core.random_walk import random_walk_search
from repro.engine import ShiftRequest, evaluate_batch, get_backend
from repro.errors import SimulationError


def reference_scores(codes, dbc_of, pos_of, num_dbcs, domains, warm):
    """Per-candidate single-port totals through the per-access oracle."""
    backend = get_backend("reference")
    out = []
    for k in range(dbc_of.shape[0]):
        if codes.size == 0:
            out.append(0)
            continue
        result = backend.run(
            ShiftRequest(
                dbc=dbc_of[k][codes], slot=pos_of[k][codes],
                num_dbcs=num_dbcs, domains=domains, warm_start=warm,
            )
        )
        out.append(result.shifts)
    return out


class TestEvaluateBatch:
    @pytest.mark.parametrize("population", [1, 8, 64])
    def test_matches_reference_backend(self, population):
        rng = np.random.default_rng(1000 * population + 11)
        for trial in range(4):
            num_vars = int(rng.integers(1, 14))
            accesses = int(rng.integers(0, 80))
            num_dbcs = int(rng.integers(1, 5))
            domains = int(rng.integers(8, 72))
            codes = rng.integers(0, num_vars, accesses)
            dbc_of = rng.integers(0, num_dbcs, (population, num_vars))
            pos_of = rng.integers(0, domains, (population, num_vars))
            got = evaluate_batch(codes, dbc_of, pos_of, num_dbcs=num_dbcs)
            want = reference_scores(
                codes, dbc_of, pos_of, num_dbcs, domains, True
            )
            assert list(got) == want

    def test_long_traces_take_the_per_row_path(self):
        # > _FLAT_MAX_ACCESSES exercises the row-by-row kernel.
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 9, 700)
        dbc_of = rng.integers(0, 3, (5, 9))
        pos_of = rng.integers(0, 40, (5, 9))
        got = evaluate_batch(codes, dbc_of, pos_of, num_dbcs=3)
        assert list(got) == reference_scores(
            codes, dbc_of, pos_of, 3, 40, True
        )

    def test_chunked_flat_key_range(self):
        # rows * num_dbcs beyond uint16 forces row chunking.
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 20, 50)
        dbc_of = rng.integers(0, 600, (150, 20))
        pos_of = rng.integers(0, 64, (150, 20))
        got = evaluate_batch(codes, dbc_of, pos_of, num_dbcs=600)
        assert list(got) == reference_scores(
            codes, dbc_of, pos_of, 600, 64, True
        )

    def test_single_candidate_promotion(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 6, 30)
        dbc_of = rng.integers(0, 2, 6)
        pos_of = rng.integers(0, 8, 6)
        got = evaluate_batch(codes, dbc_of, pos_of, num_dbcs=2)
        assert got.shape == (1,)
        assert got.tolist() == reference_scores(
            codes, dbc_of[None, :], pos_of[None, :], 2, 8, True
        )

    def test_empty_population_and_trace(self):
        assert evaluate_batch(
            np.empty(0, dtype=np.int64),
            np.empty((3, 4), dtype=np.int64),
            np.empty((3, 4), dtype=np.int64),
            num_dbcs=2,
        ).tolist() == [0, 0, 0]

    def test_validation(self):
        codes = np.array([0, 1])
        ok = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(SimulationError):
            evaluate_batch(codes, ok, np.zeros((3, 2)), num_dbcs=1)
        with pytest.raises(SimulationError, match="num_dbcs"):
            evaluate_batch(codes, ok, ok, num_dbcs=0)
        with pytest.raises(SimulationError):
            evaluate_batch(codes, ok + 5, ok, num_dbcs=2)
        with pytest.raises(SimulationError):  # negative slots
            evaluate_batch(codes, ok, ok - 1, num_dbcs=2)
        with pytest.raises(SimulationError):  # codes outside the candidates
            evaluate_batch(np.array([7]), ok, ok, num_dbcs=2)

    def test_placeholder_entries_on_unaccessed_variables_stay_legal(self):
        # The range checks prefer the (K, V) matrices but the contract
        # only constrains entries the trace gathers: placeholder DBC /
        # slot values on never-accessed variables must not raise.
        codes = np.array([0, 1, 0, 1])
        dbc_of = np.array([[0, 0, 99]])  # variable 2 never accessed
        pos_of = np.array([[0, 1, -7]])
        got = evaluate_batch(codes, dbc_of, pos_of, num_dbcs=1)
        assert got.tolist() == reference_scores(
            codes, dbc_of, pos_of, 1, 2, True
        )
        # Accessed violations still raise.
        with pytest.raises(SimulationError, match="location -7"):
            evaluate_batch(
                codes, np.zeros((1, 3), dtype=np.int64),
                np.array([[0, -7, 1]]), num_dbcs=1,
            )
        with pytest.raises(SimulationError, match="dbc indices"):
            evaluate_batch(
                codes, np.array([[0, 99, 0]]), np.array([[0, 1, 2]]),
                num_dbcs=1,
            )

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
