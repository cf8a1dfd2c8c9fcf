"""Genetic algorithm for complete RTM placements (Sec. III-C).

Individuals are complete placements — lists of per-DBC ordered variable
lists — evaluated by their analytic shift cost. The algorithm is a
(mu + lambda) evolution strategy with tournament selection (best of 4),
the paper's 2-fold crossover (swap the DBC membership of a contiguous
range of variables in first-appearance order, preserving the intra-DBC
order of everything else) and its three mutations (move a variable to
another DBC / transpose two variables in one DBC / randomly permute every
DBC), the destructive third skewed down 10 : 3. The initial population is
seeded with the heuristic placements, as Sec. VI describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.inter.afd import afd_partition
from repro.core.inter.dma import dma_partition
from repro.core.inter.random_inter import random_partition
from repro.core.intra import chen_order, ofu_order, shifts_reduce_order
from repro.core.placement import Placement
from repro.engine import evaluate_batch, stack_candidate_arrays
from repro.errors import CapacityError, SolverError
from repro.trace.liveness import Liveness
from repro.trace.sequence import AccessSequence
from repro.util.rng import ensure_rng

Individual = list[list[int]]


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
        ports: int = 1,
        domains: int | None = None,
    ) -> None:
        if sequence.num_variables > num_dbcs * capacity:
            raise CapacityError(
                f"{sequence.num_variables} variables exceed {num_dbcs} x "
                f"{capacity} locations"
            )
        self.sequence = sequence
        self.num_dbcs = num_dbcs
        self.capacity = capacity
        # Multi-port fitness: score against the real track geometry. The
        # track length defaults to the DBC capacity (they are the same
        # quantity in this library's geometry).
        self.ports = ports
        self.domains = domains if domains is not None else (
            capacity if ports > 1 else None
        )
        self.config = config or GAConfig()
        self.config.validate()
        self.rng = ensure_rng(rng)
        self._codes = sequence.codes
        # Crossover cut points index variables in first-appearance order.
        live = Liveness(sequence)
        self._xover_order = [sequence.index_of(v) for v in live.by_first_occurrence()]
        self.evaluations = 0

    # -- fitness ---------------------------------------------------------------

    def score_population(self, individuals: list[Individual]) -> list[int]:
        """Shift costs of a whole population in one batched engine pass."""
        if not individuals:
            return []
        dbc_of, pos_of = stack_candidate_arrays(
            individuals, self.sequence.num_variables
        )
        costs = evaluate_batch(
            self._codes, dbc_of, pos_of, num_dbcs=self.num_dbcs,
            domains=self.domains, ports=self.ports,
        )
        self.evaluations += len(individuals)
        return costs.tolist()

    def fitness(self, individual: Individual) -> int:
        """Shift cost of an individual (lower is better)."""
        return self.score_population([individual])[0]

    # -- individuals -------------------------------------------------------------

    def _to_individual(self, dbc_lists: list[list[str]]) -> Individual:
        index = self.sequence.index_of
        ind = [[index(v) for v in dbc] for dbc in dbc_lists]
        while len(ind) < self.num_dbcs:
            ind.append([])
        return ind

    def seed_individuals(self) -> list[Individual]:
        """Heuristic placements used to seed the initial population."""
        seq, q, cap = self.sequence, self.num_dbcs, self.capacity
        partition, k = dma_partition(seq, q, cap)
        seeds: list[Individual] = []
        for intra in (shifts_reduce_order, chen_order, ofu_order, None):
            dbcs = [list(d) for d in partition]
            if intra is not None:
                for i in range(k, len(dbcs)):
                    if len(dbcs[i]) > 1:
                        dbcs[i] = intra(seq, dbcs[i])
            seeds.append(self._to_individual(dbcs))
        seeds.append(self._to_individual(afd_partition(seq, q, cap)))
        return seeds

    def random_individual(self) -> Individual:
        dbcs = random_partition(self.sequence, self.num_dbcs, self.capacity, self.rng)
        return self._to_individual(dbcs)

    # -- genetic operators ---------------------------------------------------------

    def crossover(self, parent_a: Individual, parent_b: Individual
                  ) -> tuple[Individual, Individual]:
        """The paper's 2-fold crossover: swap a variable interval's DBCs."""
        n = len(self._xover_order)
        if n < 2:
            return [list(d) for d in parent_a], [list(d) for d in parent_b]
        first = int(self.rng.integers(0, n - 1))
        last = int(self.rng.integers(first + 1, n))
        swap = set(self._xover_order[first : last + 1])
        child_a = [list(d) for d in parent_a]
        child_b = [list(d) for d in parent_b]
        in_a = {v: i for i, dbc in enumerate(parent_a) for v in dbc}
        in_b = {v: i for i, dbc in enumerate(parent_b) for v in dbc}
        for v in swap:
            ra, rb = in_a[v], in_b[v]
            if ra == rb:
                continue
            child_a[ra].remove(v)
            child_a[rb].append(v)
            child_b[rb].remove(v)
            child_b[ra].append(v)
        self._repair(child_a)
        self._repair(child_b)
        return child_a, child_b

    def mutate(self, individual: Individual) -> Individual:
        """Apply one of the three mutations, skewed 10 : 10 : 3."""
        ind = [list(d) for d in individual]
        weights = np.asarray(self.config.mutation_weights, dtype=float)
        kind = int(self.rng.choice(3, p=weights / weights.sum()))
        if kind == 0:
            self._mutate_move(ind)
        elif kind == 1:
            self._mutate_transpose(ind)
        else:
            self._mutate_permute(ind)
        self._repair(ind)
        return ind

    def _mutate_move(self, ind: Individual) -> None:
        sources = [i for i, d in enumerate(ind) if d]
        if not sources or len(ind) < 2:
            return
        src = sources[int(self.rng.integers(0, len(sources)))]
        slot = int(self.rng.integers(0, len(ind[src])))
        v = ind[src].pop(slot)
        targets = [i for i in range(len(ind)) if i != src]
        dst = targets[int(self.rng.integers(0, len(targets)))]
        ind[dst].append(v)

    def _mutate_transpose(self, ind: Individual) -> None:
        eligible = [i for i, d in enumerate(ind) if len(d) >= 2]
        if not eligible:
            return
        i = eligible[int(self.rng.integers(0, len(eligible)))]
        a, b = self.rng.choice(len(ind[i]), size=2, replace=False)
        ind[i][a], ind[i][b] = ind[i][b], ind[i][a]

    def _mutate_permute(self, ind: Individual) -> None:
        for dbc in ind:
            if len(dbc) >= 2:
                perm = self.rng.permutation(len(dbc))
                dbc[:] = [dbc[int(p)] for p in perm]

    def _repair(self, ind: Individual) -> None:
        """Restore the capacity invariant after an operator (paper assumes
        ample room; iso-capacity sweeps can overflow a single DBC)."""
        cap = self.capacity
        for i, dbc in enumerate(ind):
            while len(dbc) > cap:
                v = dbc.pop()
                spaces = [j for j, d in enumerate(ind) if j != i and len(d) < cap]
                if not spaces:  # pragma: no cover - guarded by constructor
                    raise SolverError("repair failed: no free location")
                dst = spaces[int(self.rng.integers(0, len(spaces)))]
                ind[dst].append(v)

    def validate_individual(self, ind: Individual) -> None:
        """Invariant check used by the test-suite: a permutation of V."""
        seen = sorted(v for dbc in ind for v in dbc)
        if seen != list(range(self.sequence.num_variables)):
            raise SolverError("individual is not a permutation of the variables")
        if len(ind) != self.num_dbcs:
            raise SolverError(f"individual has {len(ind)} DBCs, want {self.num_dbcs}")
        if any(len(d) > self.capacity for d in ind):
            raise SolverError("individual violates DBC capacity")

    # -- main loop --------------------------------------------------------------------

    def _tournament(self, scored: list[tuple[int, Individual]]) -> Individual:
        k = min(self.config.tournament_size, len(scored))
        picks = self.rng.choice(len(scored), size=k, replace=False)
        best = min(picks, key=lambda i: scored[int(i)][0])
        return scored[int(best)][1]

    def run(self) -> GAResult:
        """Evolve for the configured number of generations."""
        cfg = self.config
        population: list[Individual] = []
        if cfg.seed_with_heuristics:
            population.extend(self.seed_individuals())
        while len(population) < cfg.mu:
            population.append(self.random_individual())
        population = population[: cfg.mu]
        scored = list(zip(self.score_population(population), population))
        best_cost, best = min(scored, key=lambda t: t[0])
        best = [list(d) for d in best]
        history = [best_cost]
        stale = 0
        generations_run = 0
        for _gen in range(cfg.generations):
            generations_run += 1
            # Generate the whole brood first (fitness consumes no RNG, so
            # deferring evaluation leaves the random stream untouched),
            # then score the generation in one batched engine pass.
            children: list[Individual] = []
            while len(children) < cfg.lam:
                pa = self._tournament(scored)
                pb = self._tournament(scored)
                for child in self.crossover(pa, pb):
                    if self.rng.random() < cfg.mutation_rate:
                        child = self.mutate(child)
                    children.append(child)
                    if len(children) >= cfg.lam:
                        break
            offspring = list(zip(self.score_population(children), children))
            pool = scored + offspring
            scored = [
                (c, [list(d) for d in ind])
                for c, ind in (
                    min(
                        (pool[int(i)] for i in self.rng.choice(
                            len(pool),
                            size=min(cfg.tournament_size, len(pool)),
                            replace=False,
                        )),
                        key=lambda t: t[0],
                    )
                    for _ in range(cfg.mu)
                )
            ]
            gen_best_cost, gen_best = min(pool, key=lambda t: t[0])
            if cfg.elitism:
                scored[0] = (gen_best_cost, [list(d) for d in gen_best])
            if gen_best_cost < best_cost:
                best_cost, best = gen_best_cost, [list(d) for d in gen_best]
                stale = 0
            else:
                stale += 1
            history.append(best_cost)
            if cfg.patience is not None and stale >= cfg.patience:
                break
        variables = self.sequence.variables
        placement = Placement([[variables[v] for v in dbc] for dbc in best])
        return GAResult(
            placement=placement,
            cost=best_cost,
            evaluations=self.evaluations,
            generations_run=generations_run,
            history=history,
        )
