"""Shared hypothesis strategies for the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.trace.sequence import AccessSequence

#: Small variable alphabet keeps shrinking pleasant.
_VAR_POOL = [f"v{i}" for i in range(12)]


@st.composite
def access_sequences(
    draw,
    max_vars: int = 12,
    min_length: int = 0,
    max_length: int = 60,
    allow_unaccessed: bool = True,
) -> AccessSequence:
    """A random access sequence over a small declared universe."""
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    variables = _VAR_POOL[:num_vars]
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    codes = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_vars - 1),
            min_size=length, max_size=length,
        )
    )
    if not allow_unaccessed and num_vars > 0:
        # force every variable to appear at least once
        codes = list(range(num_vars)) + codes
    accesses = [variables[c] for c in codes]
    return AccessSequence(accesses, variables=variables)


@st.composite
def sequences_with_geometry(
    draw,
    max_vars: int = 10,
    max_length: int = 50,
):
    """(sequence, num_dbcs, capacity) with guaranteed feasibility."""
    seq = draw(access_sequences(max_vars=max_vars, max_length=max_length))
    num_dbcs = draw(st.integers(min_value=1, max_value=6))
    min_capacity = -(-seq.num_variables // num_dbcs)  # ceil division
    capacity = draw(st.integers(min_value=min_capacity,
                                max_value=max(min_capacity, 16)))
    return seq, num_dbcs, capacity


@st.composite
def exact_instances(draw, max_vars: int = 7, max_length: int = 40):
    """(sequence, num_dbcs, capacity) small enough for the exact solver.

    2 to ``max_vars`` declared variables, 1 to 3 DBCs and a capacity
    between the fewest slots that fit every variable and one slot per
    variable.
    """
    seq = draw(access_sequences(max_vars=max_vars, max_length=max_length)
               .filter(lambda s: s.num_variables >= 2))
    num_dbcs = draw(st.integers(min_value=1, max_value=3))
    min_capacity = -(-seq.num_variables // num_dbcs)  # ceil division
    capacity = draw(st.integers(min_value=min_capacity,
                                max_value=seq.num_variables))
    return seq, num_dbcs, capacity
