"""Property-based tests for Algorithm 1 and the other distributors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.inter.dma as dma
from repro.core.inter.afd import afd_partition
from repro.core.inter.dma import DMASplit, dma_partition, dma_split
from repro.core.inter.multiset import extract_disjoint_sets, multiset_dma_partition
from repro.eval.profiles import QUICK_PROFILE, SMOKE_PROFILE
from repro.trace.generators.offsetstone import offsetstone_suite
from repro.trace.liveness import NEVER, Liveness
from repro.trace.sequence import AccessSequence

from strategies import access_sequences, sequences_with_geometry


def _pseudocode_split(sequence):
    """Lines 1-12 of Algorithm 1 exactly as the pseudocode reads: each
    candidate's line-10 sum runs over the variables still in Vndj.
    The reference :func:`dma_split` must match."""
    live = Liveness(sequence)
    first = live.first_occurrences
    last = live.last_occurrences
    freq = live.frequencies
    idx = sequence.index_of

    vndj = live.by_first_occurrence()
    vdj = []
    t_min = 0
    remaining = set(vndj)
    for v in list(vndj):
        iv = idx(v)
        fv = int(first[iv])
        if fv == NEVER or fv <= t_min:
            continue
        lv = int(last[iv])
        nested_sum = sum(
            int(freq[idx(u)])
            for u in remaining
            if u != v
            and first[idx(u)] != NEVER
            and int(first[idx(u)]) > fv
            and int(last[idx(u)]) < lv
        )
        if int(freq[iv]) > nested_sum:
            vdj.append(v)
            remaining.discard(v)
            t_min = lv
    vndj = [v for v in vndj if v in remaining]
    return DMASplit(
        vdj=tuple(vdj),
        vndj=tuple(vndj),
        disjoint_frequency_sum=sum(int(freq[idx(v)]) for v in vdj),
    )


def _nested_sums_of(seq):
    """``(accessed codes in first-occurrence order, their line-10 sums)``."""
    live = Liveness(seq)
    order = live.first_occurrence_order()
    accessed = order[live.first_occurrences[order] != NEVER]
    return accessed, dma._nested_sums(
        live.last_occurrences[accessed], seq.frequencies[accessed]
    )


@given(seq=access_sequences())
@settings(max_examples=300, deadline=None)
def test_dma_split_matches_the_pseudocode(seq):
    assert dma_split(seq) == _pseudocode_split(seq)


@pytest.mark.parametrize("profile", [SMOKE_PROFILE, QUICK_PROFILE],
                         ids=lambda p: p.name)
def test_dma_split_matches_the_pseudocode_on_the_suite(profile):
    suite = offsetstone_suite(scale=profile.suite_scale, seed=profile.seed)
    for program in suite:
        for trace in program.traces:
            seq = trace.sequence
            assert dma_split(seq) == _pseudocode_split(seq), seq.name


@given(seq=access_sequences())
@settings(max_examples=150, deadline=None)
def test_nested_sums_match_nested_within(seq):
    live = Liveness(seq)
    for code, total in zip(*_nested_sums_of(seq)):
        nested = live.nested_within(seq.variables[code])
        assert total == sum(seq.frequency(u) for u in nested)


def test_nested_sums_do_not_depend_on_the_row_block(monkeypatch):
    rng = np.random.default_rng(3)
    names = [f"v{i}" for i in range(40)]
    seqs = [AccessSequence([names[c] for c in rng.integers(0, 40, 300)],
                           variables=names) for _ in range(5)]
    whole = [_nested_sums_of(seq)[1] for seq in seqs]
    monkeypatch.setattr(dma, "_BLOCK_ELEMENTS", 7)  # a few rows per block
    for seq, sums in zip(seqs, whole):
        assert np.array_equal(_nested_sums_of(seq)[1], sums)


def test_split_is_computed_once_per_sequence(fig3_sequence, monkeypatch):
    calls = []
    scan = dma._scan
    monkeypatch.setattr(dma, "_scan", lambda seq: calls.append(seq) or scan(seq))
    first = dma_split(fig3_sequence)
    dma_partition(fig3_sequence, 2, 512)
    assert dma_split(fig3_sequence) is first
    assert len(calls) == 1
    # A renamed copy is a new sequence object with its own memo.
    assert dma_split(fig3_sequence.with_name("copy")) == first
    assert len(calls) == 2


@given(seq=access_sequences())
@settings(max_examples=150, deadline=None)
def test_dma_split_partitions_universe(seq):
    split = dma_split(seq)
    assert sorted(split.vdj + split.vndj) == sorted(seq.variables)


@given(seq=access_sequences())
@settings(max_examples=150, deadline=None)
def test_vdj_pairwise_disjoint(seq):
    """The invariant that makes the disjoint DBC cheap (Sec. III-B)."""
    split = dma_split(seq)
    live = Liveness(seq)
    assert live.pairwise_disjoint(list(split.vdj))


@given(seq=access_sequences())
@settings(max_examples=100, deadline=None)
def test_vdj_ordered_by_first_occurrence(seq):
    split = dma_split(seq)
    live = Liveness(seq)
    firsts = [live.first(v) for v in split.vdj]
    assert firsts == sorted(firsts)


@given(seq=access_sequences())
@settings(max_examples=100, deadline=None)
def test_vdj_frequency_sum_consistent(seq):
    split = dma_split(seq)
    assert split.disjoint_frequency_sum == sum(
        seq.frequency(v) for v in split.vdj
    )


@given(data=sequences_with_geometry(), guard=st.booleans())
@settings(max_examples=150, deadline=None)
def test_dma_partition_is_valid(data, guard):
    seq, q, cap = data
    dbcs, k = dma_partition(seq, q, cap, fairness_guard=guard)
    assert len(dbcs) == q
    assert 0 <= k <= q
    assert all(len(d) <= cap for d in dbcs)
    placed = sorted(v for d in dbcs for v in d)
    assert placed == sorted(seq.variables)


@given(data=sequences_with_geometry())
@settings(max_examples=100, deadline=None)
def test_afd_partition_is_valid(data):
    seq, q, cap = data
    dbcs = afd_partition(seq, q, cap)
    assert all(len(d) <= cap for d in dbcs)
    assert sorted(v for d in dbcs for v in d) == sorted(seq.variables)


@given(data=sequences_with_geometry())
@settings(max_examples=100, deadline=None)
def test_multiset_partition_is_valid(data):
    seq, q, cap = data
    dbcs, used = multiset_dma_partition(seq, q, cap)
    assert 0 <= used <= q
    assert all(len(d) <= cap for d in dbcs)
    assert sorted(v for d in dbcs for v in d) == sorted(seq.variables)


@given(seq=access_sequences())
@settings(max_examples=100, deadline=None)
def test_multiset_chains_disjoint_and_exclusive(seq):
    chains, leftovers = extract_disjoint_sets(seq)
    live = Liveness(seq)
    flat = []
    for chain in chains:
        assert len(chain) >= 2
        assert live.pairwise_disjoint(chain)
        flat.extend(chain)
    flat.extend(leftovers)
    assert sorted(flat) == sorted(seq.variables)
