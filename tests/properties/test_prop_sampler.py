"""Property-based tests for the batch random-placement sampler."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.inter.random_inter import random_partition_arrays


@st.composite
def geometries(draw):
    """``(variables, DBCs, capacity)`` with room for every variable."""
    num_dbcs = draw(st.integers(1, 5))
    capacity = draw(st.integers(1, 6))
    return draw(st.integers(0, num_dbcs * capacity)), num_dbcs, capacity


@given(geometry=geometries(), count=st.integers(0, 16), seed=st.integers(0, 2**16))
@example(geometry=(7, 3, 3), count=16, seed=0)  # more variables than one DBC holds
@example(geometry=(12, 4, 3), count=16, seed=1)  # every location filled
@settings(max_examples=150, deadline=None)
def test_every_row_is_a_complete_placement(geometry, count, seed):
    """Each DBC of each row holds at most ``capacity`` variables, in
    slots 0..n-1."""
    n, q, cap = geometry
    dbc_of, pos_of = random_partition_arrays(n, q, cap, count, seed)
    assert dbc_of.shape == pos_of.shape == (count, n)
    assert dbc_of.dtype == pos_of.dtype == np.int64
    for dbcs, slots in zip(dbc_of, pos_of):
        assert ((dbcs >= 0) & (dbcs < q)).all()
        for d in range(q):
            held = np.sort(slots[dbcs == d])
            assert held.size <= cap
            assert (held == np.arange(held.size)).all()
