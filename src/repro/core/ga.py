"""Genetic algorithm for complete RTM placements (Sec. III-C).

Individuals are complete placements evaluated by their analytic shift
cost. The algorithm is a (mu + lambda) evolution strategy with
tournament selection (best of 4), the paper's 2-fold crossover (swap the
DBC membership of a contiguous range of variables in first-appearance
order, preserving the intra-DBC order of everything else) and its three
mutations (move a variable to another DBC / transpose two variables in
one DBC / randomly permute every DBC), the destructive third skewed down
10 : 3. The initial population is seeded with the heuristic placements,
as Sec. VI describes.

A population is a pair of ``(K, V)`` int arrays, ``dbc_of`` and
``pos_of``: row ``i`` gives each variable code's DBC and slot in
individual ``i``, the candidate shape :func:`repro.engine.evaluate_batch`
scores. Slots are dense, ``0..n-1`` in a DBC of ``n`` variables. The
operators work on whole generations: crossover and mutation set each
child's DBCs and an order key, one dense re-slotting per generation
turns the keys into slots, and repair moves any DBC's overflow to free
locations. Only the best row ever becomes a :class:`Placement`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.inter.afd import afd_partition
from repro.core.inter.dma import dma_partition
from repro.core.inter.random_inter import group_ranks, random_partition_arrays
from repro.core.intra import chen_order, ofu_order, shifts_reduce_order
from repro.core.placement import Placement, check_room, intra_pass
from repro.engine import evaluate_batch, stack_candidate_arrays
from repro.errors import SolverError
from repro.trace.liveness import Liveness
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng

# random_partition is unused here but stays a module attribute: the
# layer tracer in perfbench/spans.py wraps it by name.
from repro.core.inter.random_inter import random_partition  # noqa: F401

#: Mutation kinds, indexing :attr:`GAConfig.mutation_weights`; children
#: left unmutated carry ``NO_MUTATION``.
MOVE, TRANSPOSE, PERMUTE, NO_MUTATION = 0, 1, 2, 3


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters; defaults are the paper's (Sec. III-C / IV-A)."""

    mu: int = 100
    lam: int = 100
    generations: int = 200
    tournament_size: int = 4
    mutation_rate: float = 0.5
    mutation_weights: tuple[float, float, float] = (10.0, 10.0, 3.0)
    seed_with_heuristics: bool = True
    elitism: bool = True
    patience: int | None = None  # stop after N generations without improvement

    def validate(self) -> None:
        if self.mu < 1 or self.lam < 1:
            raise SolverError("mu and lam must be >= 1")
        if self.generations < 0:
            raise SolverError("generations must be >= 0")
        if self.tournament_size < 1:
            raise SolverError("tournament_size must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise SolverError("mutation_rate must be in [0, 1]")
        if len(self.mutation_weights) != 3 or min(self.mutation_weights) < 0 or \
                sum(self.mutation_weights) == 0:
            raise SolverError("mutation_weights must be 3 non-negative weights")
        if self.patience is not None and self.patience < 1:
            raise SolverError("patience must be >= 1 when set")


@dataclass
class GAResult:
    """Best placement plus convergence telemetry."""

    placement: Placement
    cost: int
    evaluations: int
    generations_run: int
    history: list[int] = field(default_factory=list)


class GeneticPlacer:
    """Runs the GA for one access sequence on a (q DBCs, N capacity) device."""

    def __init__(
        self,
        sequence: AccessSequence,
        num_dbcs: int,
        capacity: int,
        config: GAConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        check_room(sequence.num_variables, num_dbcs, capacity)
        self.sequence = sequence
        self.num_dbcs = num_dbcs
        self.capacity = capacity
        self.config = config or GAConfig()
        self.config.validate()
        self.rng = ensure_rng(rng)
        weights = np.asarray(self.config.mutation_weights, dtype=float)
        # Upper bounds of a uniform draw per kind, the last one the rate.
        self._mutation_cdf = np.cumsum(weights) / weights.sum() * self.config.mutation_rate
        self._mutation_cdf[-1] = self.config.mutation_rate
        self._codes = sequence.codes
        # Crossover cut points index variables in first-appearance order:
        # _xover_rank[code] is the code's position in that order.
        order = Liveness(sequence).first_occurrence_order()
        self._xover_rank = np.empty_like(order)
        self._xover_rank[order] = np.arange(order.size)

    # -- population ------------------------------------------------------------

    def seed_individuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Heuristic placements seeding the population, as ``(dbc_of, pos_of)``.

        DMA with ShiftsReduce, Chen, OFU and no intra-DBC step, all from
        one DMA partition, then AFD.
        """
        seq, q, cap = self.sequence, self.num_dbcs, self.capacity
        dbcs, k = dma_partition(seq, q, cap)
        seeds = [
            intra_pass(seq, dbcs, k, intra).dbc_lists()
            for intra in (shifts_reduce_order, chen_order, ofu_order, None)
        ]
        seeds.append(afd_partition(seq, q, cap))
        return stack_candidate_arrays(seeds, seq.num_variables, code_of=seq.index_of)

    def score(self, dbc_of: np.ndarray, pos_of: np.ndarray) -> np.ndarray:
        """Shift costs of population rows in one batched engine pass."""
        return evaluate_batch(self._codes, dbc_of, pos_of, num_dbcs=self.num_dbcs)

    def initial_population(self) -> tuple[np.ndarray, np.ndarray]:
        """The first ``mu`` rows: the seeds when seeding, then random
        placements drawn in one batch."""
        mu, n = self.config.mu, self.sequence.num_variables
        if self.config.seed_with_heuristics:
            dbc_of, pos_of = (rows[:mu] for rows in self.seed_individuals())
        else:
            dbc_of = pos_of = np.empty((0, n), dtype=np.int64)
        if dbc_of.shape[0] < mu:
            extra_dbc, extra_pos = random_partition_arrays(
                n, self.num_dbcs, self.capacity, mu - dbc_of.shape[0], self.rng
            )
            dbc_of = np.concatenate([dbc_of, extra_dbc])
            pos_of = np.concatenate([pos_of, extra_pos])
        return dbc_of, pos_of

    # -- genetic operators -------------------------------------------------------

    def tournament(self, costs: np.ndarray, count: int) -> np.ndarray:
        """Winners of ``count`` tournaments over rows with ``costs``.

        Each tournament draws ``tournament_size`` distinct rows (all rows
        when there are fewer); the first cheapest drawn wins.
        """
        n = costs.size
        size = min(self.config.tournament_size, n)
        # The first columns of uniform row permutations: distinct draws.
        picks = self.rng.random((count, n)).argsort(axis=1)[:, :size]
        return picks[np.arange(count), np.argmin(costs[picks], axis=1)]

    def crossover(
        self, dbc_of: np.ndarray, pos_of: np.ndarray, parents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The paper's 2-fold crossover of the ``(2, P)`` parent rows.

        Pair ``i`` (rows ``parents[0, i]`` and ``parents[1, i]``) swaps
        the DBCs of the variables whose first-occurrence rank lies in a
        random interval of at least two ranks. A variable that changes
        DBC goes to the tail of its new DBC (swapped variables in
        first-occurrence order); every other variable keeps its relative
        order. Returns the ``2P`` children's ``(dbc_of, key)``, pair
        ``i``'s in rows ``i`` and ``P + i``, where ``key`` orders each
        DBC's variables: its rank within the DBC is the slot.
        """
        dbc, key = dbc_of[parents], pos_of[parents]
        n = dbc_of.shape[1]
        if n >= 2:
            first = self.rng.integers(n - 1, size=parents.shape[1])
            last = first + 1 + self.rng.integers(n - 1 - first)
            rank = self._xover_rank
            swap = (rank >= first[:, None]) & (rank <= last[:, None])
            # Past every slot, so moved variables follow the kept ones.
            key = np.where(swap & (dbc[0] != dbc[1]), n + rank, key)
            dbc = np.where(swap, dbc[::-1], dbc)
        return dbc.reshape(-1, n), key.reshape(-1, n)

    def mutation_kinds(self, count: int) -> np.ndarray:
        """Per child: a mutation kind with ``mutation_rate``, else none.

        One uniform draw per child decides both: below the rate it picks
        the kind in proportion to ``mutation_weights``.
        """
        return np.searchsorted(
            self._mutation_cdf, self.rng.random(count), side="right"
        )

    def mutate(self, dbc_of: np.ndarray, key: np.ndarray, kinds: np.ndarray) -> None:
        """Apply mutation ``kinds[i]`` to row ``i`` of ``(dbc_of, key)`` in place.

        * move: a uniform variable of a uniform non-empty DBC goes to the
          tail of a uniform other DBC (none with a single DBC);
        * transpose: two uniform distinct variables of a uniform DBC
          holding at least two swap places (none without such a DBC);
        * permute: every DBC takes a uniform random order.
        """
        rng, q = self.rng, self.num_dbcs
        n = dbc_of.shape[1]
        counts = _dbc_counts(dbc_of, q)
        rows = np.flatnonzero(kinds == MOVE)
        if rows.size and q > 1:
            src = _uniform_true(rng, counts[rows] > 0)
            var = _uniform_true(rng, dbc_of[rows] == src[:, None])
            dst = rng.integers(q - 1, size=rows.size)
            dbc_of[rows, var] = dst + (dst >= src)
            key[rows, var] = 2 * n  # past every crossover key
        rows = np.flatnonzero(kinds == TRANSPOSE)
        eligible = counts[rows] >= 2
        some = eligible.any(axis=1)
        rows, eligible = rows[some], eligible[some]
        if rows.size:
            dbc = _uniform_true(rng, eligible)
            draw = np.where(
                dbc_of[rows] == dbc[:, None], rng.random((rows.size, n)), -1.0
            )
            # The two largest draws: two uniform distinct members.
            pair = draw.argsort(axis=1)[:, -2:]
            a, b = pair[:, 0], pair[:, 1]
            key[rows, a], key[rows, b] = key[rows, b], key[rows, a]
        rows = np.flatnonzero(kinds == PERMUTE)
        if rows.size:
            key[rows] = rng.random((rows.size, n)).argsort(axis=1)

    def repair(self, dbc_of: np.ndarray, pos_of: np.ndarray) -> None:
        """Move every DBC's overflow to free locations, in place.

        The variables in slots at or past the capacity leave; each takes
        a distinct uniform free location of its row, and the arrivals
        of each DBC fill its next slots. The paper assumes ample room,
        and with ``capacity >= V`` no DBC can overflow; iso-capacity
        sweeps can.
        """
        cap, q = self.capacity, self.num_dbcs
        if cap >= dbc_of.shape[1]:
            return
        rows, variables = np.nonzero(pos_of >= cap)
        if not rows.size:
            return
        counts = _dbc_counts(dbc_of, q)
        need = np.bincount(rows, minlength=dbc_of.shape[0])
        free = np.where(need[:, None] > 0, np.maximum(cap - counts, 0), 0)
        # One entry per free location, naming its (row, DBC) cell; rows
        # ascend, and within a row the locations are shuffled.
        cell = np.repeat(np.arange(free.size), free.ravel())
        cell = cell[np.argsort(cell // q + self.rng.random(cell.size))]
        room = free.sum(axis=1)
        rank = np.arange(cell.size) - np.repeat(np.cumsum(room) - room, room)
        cell = cell[rank < need[cell // q]]
        dbc_of[rows, variables] = cell % q
        pos_of[rows, variables] = (
            counts.ravel()[cell] + group_ranks(cell[None, :], np.arange(cell.size))[0]
        )

    def breed(
        self, dbc_of: np.ndarray, pos_of: np.ndarray, costs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One generation's ``lam`` children of the population rows."""
        lam = self.config.lam
        parents = self.tournament(costs, 2 * (-(-lam // 2))).reshape(2, -1)
        children, key = self.crossover(dbc_of, pos_of, parents)
        children, key = children[:lam], key[:lam]
        self.mutate(children, key, self.mutation_kinds(lam))
        slots = group_ranks(children, key)
        self.repair(children, slots)
        return children, slots

    # -- main loop --------------------------------------------------------------------

    def run(self) -> GAResult:
        """Evolve for the configured number of generations."""
        cfg = self.config
        dbc_of, pos_of = self.initial_population()
        costs = self.score(dbc_of, pos_of)
        evaluations = costs.size
        best = int(np.argmin(costs))
        best_cost, best_dbc, best_pos = int(costs[best]), dbc_of[best], pos_of[best]
        history = [best_cost]
        stale = 0
        generations_run = 0
        for _gen in range(cfg.generations):
            generations_run += 1
            child_dbc, child_pos = self.breed(dbc_of, pos_of, costs)
            pool_dbc = np.concatenate([dbc_of, child_dbc])
            pool_pos = np.concatenate([pos_of, child_pos])
            child_costs = self.score(child_dbc, child_pos)
            evaluations += child_costs.size
            pool_costs = np.concatenate([costs, child_costs])
            keep = self.tournament(pool_costs, cfg.mu)
            gen_best = int(np.argmin(pool_costs))
            if cfg.elitism:
                keep[0] = gen_best
            dbc_of, pos_of, costs = pool_dbc[keep], pool_pos[keep], pool_costs[keep]
            if pool_costs[gen_best] < best_cost:
                best_cost = int(pool_costs[gen_best])
                best_dbc, best_pos = pool_dbc[gen_best], pool_pos[gen_best]
                stale = 0
            else:
                stale += 1
            history.append(best_cost)
            if cfg.patience is not None and stale >= cfg.patience:
                break
        return GAResult(
            placement=Placement.from_arrays(
                self.sequence.variables, best_dbc, best_pos, self.num_dbcs
            ),
            cost=best_cost,
            evaluations=evaluations,
            generations_run=generations_run,
            history=history,
        )


def _dbc_counts(dbc_of: np.ndarray, num_dbcs: int) -> np.ndarray:
    """``(K, q)`` number of variables per row and DBC."""
    k = dbc_of.shape[0]
    cells = np.arange(k)[:, None] * num_dbcs + dbc_of
    return np.bincount(cells.ravel(), minlength=k * num_dbcs).reshape(k, num_dbcs)


def _uniform_true(rng: np.random.Generator, mask: np.ndarray) -> np.ndarray:
    """Per row, the column of a uniform true entry (each row has one)."""
    return np.argmax(np.where(mask, rng.random(mask.shape), -1.0), axis=1)
