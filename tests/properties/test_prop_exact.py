"""Exact-optimum oracle: every scorer and placer checked on tiny instances.

:func:`~repro.core.exact.exact_optimal_placement` enumerates every
placement of up to 7 variables, so on such instances it certifies two
things: the four ways of pricing a placement (the analytic model, the
batched evaluator, annealing's per-DBC access-graph arrangement cost and
the trace-driven simulator) agree on the paper's single-port warm-start
model, and no placement policy beats the optimum.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import shift_cost
from repro.core.exact import exact_optimal_placement
from repro.core.ga import GAConfig, GeneticPlacer
from repro.core.intra.annealing import _adjacency, _arrangement_cost
from repro.core.policies import available_policies, get_policy
from repro.core.random_walk import random_walk_search
from repro.engine import evaluate_batch
from repro.rtm.geometry import RTMConfig
from repro.rtm.sim import simulate
from repro.trace.trace import MemoryTrace

from strategies import exact_instances

#: Registered policies that ignore the rng.
DETERMINISTIC = tuple(
    name for name in available_policies() if get_policy(name).deterministic
)

#: The heuristic placements the GA seeds its first population with.
GA_SEEDS = ("DMA-SR", "DMA-Chen", "DMA-OFU", "DMA", "AFD")


@given(instance=exact_instances())
@settings(max_examples=120, deadline=None)
def test_scorers_agree_on_the_optimum(instance):
    seq, q, cap = instance
    placement, cost = exact_optimal_placement(seq, q, cap)
    dbc_of, pos_of = placement.as_arrays(seq)
    assert shift_cost(seq, placement) == cost
    assert int(evaluate_batch(seq.codes, dbc_of, pos_of, num_dbcs=q)[0]) == cost
    slot = dict(zip(seq.variables, pos_of.tolist()))
    per_dbc = [seq.restricted_to(group) for group in placement.dbc_lists() if group]
    assert sum(
        _arrangement_cost(_adjacency(local), [slot[v] for v in local.variables])
        for local in per_dbc
    ) == cost
    config = RTMConfig(dbcs=q, domains_per_track=cap)
    assert simulate(MemoryTrace(seq), placement, config).shifts == cost


@given(instance=exact_instances())
@settings(max_examples=80, deadline=None)
def test_deterministic_policies_bounded_by_optimum(instance):
    seq, q, cap = instance
    _placement, optimum = exact_optimal_placement(seq, q, cap)
    for name in DETERMINISTIC:
        placement = get_policy(name).place(seq, q, cap)
        assert shift_cost(seq, placement) >= optimum, name


@given(instance=exact_instances(), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_ga_between_optimum_and_its_seeds(instance, seed):
    seq, q, cap = instance
    _placement, optimum = exact_optimal_placement(seq, q, cap)
    config = GAConfig(mu=8, lam=8, generations=3)
    result = GeneticPlacer(seq, q, cap, config, rng=seed).run()
    best_seed = min(
        shift_cost(seq, get_policy(name).place(seq, q, cap))
        for name in GA_SEEDS
    )
    assert result.cost == shift_cost(seq, result.placement)
    assert optimum <= result.cost <= best_seed


@given(instance=exact_instances(), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_random_walk_bounded_by_optimum(instance, seed):
    seq, q, cap = instance
    _placement, optimum = exact_optimal_placement(seq, q, cap)
    result = random_walk_search(seq, q, cap, iterations=50, rng=seed)
    assert result.cost == shift_cost(seq, result.placement)
    assert result.cost >= optimum
