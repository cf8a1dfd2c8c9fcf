"""Unit tests for the inter-DBC distribution strategies beyond Fig. 3."""

import numpy as np
import pytest

from repro.core.inter.afd import afd_partition, afd_placement
from repro.core.inter.dma import dma_partition, dma_placement, dma_split
from repro.core.inter.multiset import (
    extract_disjoint_sets,
    multiset_dma_partition,
    multiset_dma_placement,
)
from repro.core.inter.random_inter import random_partition, random_partition_arrays
from repro.core.cost import shift_cost, stack_placement_lists
from repro.core.intra import shifts_reduce_order
from repro.errors import CapacityError
from repro.trace.liveness import Liveness
from repro.trace.sequence import AccessSequence


def partition_vars(dbcs):
    return sorted(v for dbc in dbcs for v in dbc)


class TestAFDGeneral:
    def test_all_variables_placed_once(self, small_sequence):
        dbcs = afd_partition(small_sequence, 4, 64)
        assert partition_vars(dbcs) == sorted(small_sequence.variables)

    def test_round_robin_balances(self, small_sequence):
        dbcs = afd_partition(small_sequence, 4, 64)
        sizes = [len(d) for d in dbcs]
        assert max(sizes) - min(sizes) <= 1

    def test_capacity_respected(self, small_sequence):
        n = small_sequence.num_variables
        capacity = n // 2  # forces both DBCs to fill completely
        dbcs = afd_partition(small_sequence, 2, capacity + 1)
        assert all(len(d) <= capacity + 1 for d in dbcs)

    def test_overflow_rejected(self, small_sequence):
        with pytest.raises(CapacityError):
            afd_partition(small_sequence, 2, 3)

    def test_zero_dbcs_rejected(self, small_sequence):
        with pytest.raises(CapacityError):
            afd_partition(small_sequence, 0)

    def test_single_dbc_is_frequency_order(self):
        seq = AccessSequence(list("abcbcc"))
        (dbc,) = afd_partition(seq, 1)
        assert dbc == ["c", "b", "a"]


class TestDMAGeneral:
    def test_all_variables_placed_once(self, small_sequence):
        dbcs, _ = dma_partition(small_sequence, 4, 64)
        assert partition_vars(dbcs) == sorted(small_sequence.variables)

    def test_vdj_is_pairwise_disjoint(self, small_sequence):
        split = dma_split(small_sequence)
        live = Liveness(small_sequence)
        assert live.pairwise_disjoint(list(split.vdj))

    def test_vdj_in_first_occurrence_order(self, small_sequence):
        split = dma_split(small_sequence)
        live = Liveness(small_sequence)
        firsts = [live.first(v) for v in split.vdj]
        assert firsts == sorted(firsts)

    def test_split_partitions_variables(self, small_sequence):
        split = dma_split(small_sequence)
        assert sorted(split.vdj + split.vndj) == sorted(small_sequence.variables)

    def test_capacity_error(self, small_sequence):
        with pytest.raises(CapacityError):
            dma_partition(small_sequence, 2, 2)

    def test_unaccessed_variables_stay_non_disjoint(self):
        seq = AccessSequence(list("aabb"), variables=list("ab") + ["zz"])
        split = dma_split(seq)
        assert "zz" in split.vndj

    def test_empty_sequence(self):
        seq = AccessSequence([], variables=["a", "b"])
        dbcs, k = dma_partition(seq, 2, 4)
        assert k == 0
        assert partition_vars(dbcs) == ["a", "b"]

    def test_k_scales_with_capacity(self):
        # 8 strictly disjoint variables, capacity 2 -> Vdj spans 4 DBCs
        seq = AccessSequence([v for v in "abcdefgh" for _ in range(3)])
        split = dma_split(seq)
        assert len(split.vdj) == 8
        dbcs, k = dma_partition(seq, 8, 2, fairness_guard=False)
        assert k == 4
        for i in range(k):
            assert len(dbcs[i]) == 2

    def test_round_robin_preserves_access_order_per_dbc(self):
        seq = AccessSequence([v for v in "abcdefgh" for _ in range(3)])
        dbcs, k = dma_partition(seq, 8, 2, fairness_guard=False)
        live = Liveness(seq)
        for i in range(k):
            firsts = [live.first(v) for v in dbcs[i]]
            assert firsts == sorted(firsts)

    def test_all_disjoint_no_vndj(self):
        seq = AccessSequence([v for v in "abcd" for _ in range(2)])
        dbcs, k = dma_partition(seq, 2, 4)
        assert partition_vars(dbcs) == list("abcd")

    def test_fairness_guard_degenerates_to_afd_when_no_benefit(self):
        # fully interleaved variables: no disjoint structure at all
        seq = AccessSequence(list("abcabcabcabc"))
        guarded = dma_placement(seq, 2, 512)
        afd = afd_placement(seq, 2, 512)
        assert shift_cost(seq, guarded) == shift_cost(seq, afd)

    def test_pure_mode_reserves_dbc_even_when_wasteful(self):
        seq = AccessSequence(list("abcabcabcabc") + ["z", "z"])
        _, k = dma_partition(seq, 2, 512, fairness_guard=False)
        assert k == 1  # z is disjoint from the tail -> gets a whole DBC

    def test_intra_only_applied_to_non_disjoint_dbcs(self, small_sequence):
        raw = dma_placement(small_sequence, 4, 64, intra=None)
        opt = dma_placement(small_sequence, 4, 64, intra=shifts_reduce_order)
        _, k = dma_partition(small_sequence, 4, 64)
        for i in range(k):
            assert raw.dbc_lists()[i] == opt.dbc_lists()[i]


class TestMultiset:
    def test_chains_are_disjoint(self, small_sequence):
        chains, _ = extract_disjoint_sets(small_sequence)
        live = Liveness(small_sequence)
        for chain in chains:
            assert live.pairwise_disjoint(chain)

    def test_chains_cover_no_variable_twice(self, small_sequence):
        chains, leftovers = extract_disjoint_sets(small_sequence)
        flat = [v for c in chains for v in c] + leftovers
        assert sorted(flat) == sorted(small_sequence.variables)

    def test_max_sets_cap(self, small_sequence):
        chains, _ = extract_disjoint_sets(small_sequence, max_sets=1)
        assert len(chains) <= 1

    def test_partition_covers_everything(self, small_sequence):
        dbcs, _ = multiset_dma_partition(small_sequence, 4, 64)
        assert partition_vars(dbcs) == sorted(small_sequence.variables)

    def test_capacity_error(self, small_sequence):
        with pytest.raises(CapacityError):
            multiset_dma_partition(small_sequence, 1, 4)

    def test_multiset_at_least_as_good_as_single_on_phased(self):
        from repro.trace.generators.synthetic import phased_sequence
        seq = phased_sequence(6, 4, 40, shared_vars=2, rng=11)
        single = dma_placement(seq, 4, 256, intra=shifts_reduce_order)
        multi = multiset_dma_placement(seq, 4, 256, intra=shifts_reduce_order)
        assert shift_cost(seq, multi) <= shift_cost(seq, single) * 1.5

    def test_leftovers_deal_over_every_dbc_when_chains_hold_all(self):
        # Chain abcdef takes both DBCs; chain xyz fits no chain DBC and
        # is given up, so the deal round-robins over every DBC.
        seq = AccessSequence(list("axaaa" "bybbb" "czccc" "dddd" "eeee" "ffff"))
        assert extract_disjoint_sets(seq) == ([list("abcdef"), list("xyz")], [])
        dbcs, used = multiset_dma_partition(seq, 2, 5)
        assert used == 2
        assert dbcs == [list("acexz"), list("bdfy")]

    def test_placement_applies_intra_to_leftover_dbcs(self, small_sequence):
        placement = multiset_dma_placement(
            small_sequence, 4, 64, intra=shifts_reduce_order
        )
        placement.validate_for(small_sequence, num_dbcs=4, capacity=64)


class TestRandomPartition:
    def test_covers_all_variables(self, small_sequence, rng):
        dbcs = random_partition(small_sequence, 4, 64, rng)
        assert partition_vars(dbcs) == sorted(small_sequence.variables)

    def test_respects_capacity(self, small_sequence, rng):
        n = small_sequence.num_variables
        cap = (n + 3) // 4 + 1
        for _ in range(10):
            dbcs = random_partition(small_sequence, 4, cap, rng)
            assert all(len(d) <= cap for d in dbcs)

    def test_deterministic_for_seed(self, small_sequence):
        a = random_partition(small_sequence, 4, 64, 5)
        b = random_partition(small_sequence, 4, 64, 5)
        assert a == b

    def test_capacity_error(self, small_sequence):
        with pytest.raises(CapacityError):
            random_partition(small_sequence, 2, 2, 0)


class TestRandomPartitionArrays:
    """The batch sampler draws what :func:`random_partition` draws."""

    DRAWS = 20_000

    #: (variables, DBCs, capacity) -> (number P of possible placements,
    #: the 99.9th percentile of chi-square with P - 1 degrees of freedom).
    CASES = {
        (3, 2, 2): (12, 31.26),
        (4, 3, 2): (144, 201.00),
        (5, 2, 3): (240, 312.29),
        (4, 2, 4): (120, 172.41),
        (6, 3, 2): (720, 841.90),
    }

    @staticmethod
    def placement_ids(dbc_of, pos_of, num_dbcs, capacity):
        """One integer per row naming its whole placement."""
        places = num_dbcs * capacity
        return (dbc_of * capacity + pos_of) @ places ** np.arange(dbc_of.shape[1])

    @pytest.mark.parametrize("geometry", sorted(CASES))
    def test_placement_histogram_matches_random_partition(self, geometry):
        """Two-sample chi-square over every possible placement."""
        n, q, cap = geometry
        placements, critical = self.CASES[geometry]
        seq = AccessSequence([f"v{i}" for i in range(n)])
        gen = np.random.default_rng(2020)
        reference = stack_placement_lists(
            seq, [random_partition(seq, q, cap, gen) for _ in range(self.DRAWS)]
        )
        batch = random_partition_arrays(n, q, cap, self.DRAWS, 2021)
        ids = np.concatenate([self.placement_ids(*reference, q, cap),
                              self.placement_ids(*batch, q, cap)])
        kinds, which = np.unique(ids, return_inverse=True)
        a = np.bincount(which[: self.DRAWS], minlength=kinds.size)
        b = np.bincount(which[self.DRAWS :], minlength=kinds.size)
        assert kinds.size == placements
        assert ((a - b) ** 2 / (a + b)).sum() < critical

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            random_partition_arrays(5, 2, 2, 4, 0)
