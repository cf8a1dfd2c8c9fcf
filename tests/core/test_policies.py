"""Unit tests for the policy registry and the named pipelines."""

import pytest

from repro.core.cost import shift_cost
from repro.core.policies import (
    PAPER_POLICIES,
    available_policies,
    get_policy,
    intra_heuristic_names,
)
from repro.errors import SolverError


class TestRegistry:
    def test_paper_policies_registered(self):
        for name in PAPER_POLICIES:
            assert name in available_policies()

    def test_paper_policy_list_matches_sec4a(self):
        assert PAPER_POLICIES == (
            "AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW"
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(SolverError, match="unknown policy"):
            get_policy("DMA-Magic")

    def test_bad_options_rejected(self):
        with pytest.raises(SolverError, match="bad options"):
            get_policy("AFD-OFU", bogus=1)
        with pytest.raises(SolverError, match="bad options"):
            get_policy("GA", bogus=1)

    def test_ga_options_forwarded(self, fig3_sequence):
        fast = get_policy("GA", mu=8, lam=8, generations=2)
        placement = fast.place(fig3_sequence, 2, 512, rng=0)
        placement.validate_for(fig3_sequence, num_dbcs=2, capacity=512)

    @pytest.mark.parametrize("name,options", [
        ("GA", {"mu": 0}),
        ("GA", {"patience": 0}),
        ("GA", {"mutation_rate": 2.0}),
        ("RW", {"iterations": 0}),
    ])
    def test_invalid_search_options_rejected(self, name, options):
        with pytest.raises(SolverError, match=next(iter(options))):
            get_policy(name, **options)

    def test_rw_options_forwarded(self, fig3_sequence):
        rw = get_policy("RW", iterations=10)
        placement = rw.place(fig3_sequence, 2, 512, rng=0)
        placement.validate_for(fig3_sequence, num_dbcs=2, capacity=512)

    def test_intra_names(self):
        assert {"OFU", "Chen", "SR"} <= set(intra_heuristic_names())


class TestPlacements:
    @pytest.mark.parametrize("name", sorted(
        {"AFD", "DMA", "AFD-OFU", "AFD-Chen", "AFD-SR", "DMA-OFU",
         "DMA-Chen", "DMA-SR", "DMA-TSP", "MDMA-OFU", "MDMA-SR"}
    ))
    def test_every_deterministic_policy_valid(self, name, small_sequence):
        policy = get_policy(name)
        placement = policy.place(small_sequence, 4, 64, rng=0)
        placement.validate_for(small_sequence, num_dbcs=4, capacity=64)

    @pytest.mark.parametrize("name", ["GA", "RW"])
    def test_stochastic_policies_valid(self, name, small_sequence):
        options = {"mu": 8, "lam": 8, "generations": 3} if name == "GA" else \
            {"iterations": 20}
        policy = get_policy(name, **options)
        placement = policy.place(small_sequence, 4, 64, rng=1)
        placement.validate_for(small_sequence, num_dbcs=4, capacity=64)

    def test_placements_padded_to_device_width(self, fig3_sequence):
        placement = get_policy("DMA-SR").place(fig3_sequence, 8, 64)
        assert placement.num_dbcs == 8

    def test_deterministic_policies_ignore_rng(self, small_sequence):
        policy = get_policy("DMA-SR")
        a = policy.place(small_sequence, 4, 64, rng=1)
        b = policy.place(small_sequence, 4, 64, rng=999)
        assert a == b

    def test_policy_flags(self):
        assert get_policy("DMA-SR").deterministic
        assert not get_policy("GA").deterministic
        assert not get_policy("RW").deterministic


class TestQualityRelations:
    """Suite-level relations the evaluation section depends on."""

    def test_dma_sr_at_least_as_good_as_dma_ofu(self, small_sequence):
        sr = get_policy("DMA-SR").place(small_sequence, 4, 64)
        ofu = get_policy("DMA-OFU").place(small_sequence, 4, 64)
        assert shift_cost(small_sequence, sr) <= shift_cost(small_sequence, ofu)

    def test_dma_beats_afd_on_staggered_trace(self, small_sequence):
        dma = get_policy("DMA-OFU").place(small_sequence, 4, 64)
        afd = get_policy("AFD-OFU").place(small_sequence, 4, 64)
        assert shift_cost(small_sequence, dma) <= shift_cost(small_sequence, afd)

    def test_ga_at_least_as_good_as_seeds(self, small_sequence):
        ga = get_policy("GA", mu=10, lam=10, generations=5)
        ga_cost = shift_cost(
            small_sequence, ga.place(small_sequence, 4, 64, rng=3)
        )
        for name in ("DMA-SR", "DMA-Chen", "DMA-OFU", "AFD-OFU"):
            heuristic = get_policy(name).place(small_sequence, 4, 64)
            assert ga_cost <= shift_cost(small_sequence, heuristic)
