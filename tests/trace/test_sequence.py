"""Unit tests for repro.trace.sequence.AccessSequence."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.sequence import AccessSequence


class TestConstruction:
    def test_infers_variables_in_first_appearance_order(self):
        seq = AccessSequence(["b", "a", "b", "c"])
        assert seq.variables == ("b", "a", "c")

    def test_explicit_variable_order_is_preserved(self):
        seq = AccessSequence(["b", "a"], variables=["a", "b", "z"])
        assert seq.variables == ("a", "b", "z")

    def test_declared_but_unaccessed_variables_allowed(self):
        seq = AccessSequence(["a"], variables=["a", "ghost"])
        assert seq.frequency("ghost") == 0

    def test_empty_accesses_with_declared_variables(self):
        seq = AccessSequence([], variables=["a"])
        assert len(seq) == 0
        assert seq.num_variables == 1

    def test_rejects_empty_variable_universe(self):
        with pytest.raises(TraceError):
            AccessSequence([])

    def test_rejects_duplicate_variables(self):
        with pytest.raises(TraceError, match="duplicate"):
            AccessSequence(["a"], variables=["a", "a"])

    def test_rejects_undeclared_access(self):
        with pytest.raises(TraceError, match="undeclared"):
            AccessSequence(["a", "x"], variables=["a"])

    def test_undeclared_error_names_the_first_bad_access(self):
        with pytest.raises(
            TraceError, match=r"^access 2 refers to undeclared variable 'y'$"
        ):
            AccessSequence(["a", "a", "y", "z"], variables=["a"])

    def test_rejects_non_string_variable(self):
        with pytest.raises(TraceError):
            AccessSequence([1, 2])  # type: ignore[list-item]

    def test_rejects_empty_string_variable(self):
        with pytest.raises(TraceError):
            AccessSequence([""], variables=[""])


class TestProtocol:
    def test_len_iter_getitem(self, fig3_sequence):
        assert len(fig3_sequence) == 24
        assert list(fig3_sequence)[:4] == ["a", "b", "a", "b"]
        assert fig3_sequence[4] == "c"

    def test_equality_and_hash(self):
        a = AccessSequence(["a", "b"], variables=["a", "b"])
        b = AccessSequence(["a", "b"], variables=["a", "b"])
        c = AccessSequence(["a", "b"], variables=["b", "a"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_equality_other_type(self):
        assert AccessSequence(["a"]) != "a"

    def test_contains(self, fig3_sequence):
        assert "a" in fig3_sequence
        assert "z" not in fig3_sequence

    def test_repr_mentions_sizes(self, fig3_sequence):
        assert "9 vars" in repr(fig3_sequence)
        assert "24 accesses" in repr(fig3_sequence)


class TestDerivedData:
    def test_codes_match_variables(self, fig3_sequence):
        codes = fig3_sequence.codes
        assert codes.dtype == np.int64
        assert fig3_sequence.variables[codes[0]] == "a"
        assert fig3_sequence.variables[codes[4]] == "c"

    def test_codes_are_read_only(self, fig3_sequence):
        with pytest.raises(ValueError):
            fig3_sequence.codes[0] = 3

    def test_frequencies(self, fig3_sequence):
        freq = {v: fig3_sequence.frequency(v) for v in fig3_sequence.variables}
        assert freq == {"a": 5, "b": 2, "c": 2, "d": 2, "e": 3,
                        "f": 2, "g": 3, "h": 2, "i": 3}

    def test_frequencies_sum_to_length(self, fig3_sequence):
        assert int(fig3_sequence.frequencies.sum()) == len(fig3_sequence)

    def test_index_of_unknown_raises(self, fig3_sequence):
        with pytest.raises(TraceError):
            fig3_sequence.index_of("nope")

    def test_codes_of_keeps_the_given_order(self, fig3_sequence):
        codes = fig3_sequence.codes_of(["i", "a", "e"])
        assert codes.dtype == np.int64
        assert codes.tolist() == [8, 0, 4]
        assert fig3_sequence.codes_of([]).tolist() == []

    def test_codes_of_unknown_raises(self, fig3_sequence):
        with pytest.raises(TraceError, match="nope"):
            fig3_sequence.codes_of(["a", "nope"])

    def test_accesses_roundtrip(self, fig3_sequence):
        rebuilt = AccessSequence(
            fig3_sequence.accesses, variables=fig3_sequence.variables
        )
        assert rebuilt == fig3_sequence


class TestRestriction:
    def test_restricted_to_keeps_subsequence(self, fig3_sequence):
        local = fig3_sequence.restricted_to(["a", "b", "d", "g", "h"])
        assert "".join(local.accesses) == "ababaaddagghgh"

    def test_restricted_preserves_declaration_order(self, fig3_sequence):
        local = fig3_sequence.restricted_to(["h", "a", "b"])
        assert local.variables == ("a", "b", "h")

    def test_restricted_unknown_variable_raises(self, fig3_sequence):
        with pytest.raises(TraceError):
            fig3_sequence.restricted_to(["a", "zz"])

    def test_restricted_empty_subset_raises(self, fig3_sequence):
        with pytest.raises(TraceError):
            fig3_sequence.restricted_to([])

    def test_restriction_partitions_sequence(self, fig3_sequence):
        s0 = fig3_sequence.restricted_to(["a", "g", "b", "d", "h"])
        s1 = fig3_sequence.restricted_to(["e", "i", "c", "f"])
        assert len(s0) + len(s1) == len(fig3_sequence)

    def test_fig3_afd_subsequences(self, fig3_sequence):
        """The S0/S1 split printed in Fig. 3-(c)."""
        s0 = fig3_sequence.restricted_to(["a", "g", "b", "d", "h"])
        s1 = fig3_sequence.restricted_to(["e", "i", "c", "f"])
        assert "".join(s0.accesses) == "ababaaddagghgh"
        assert "".join(s1.accesses) == "cciefefeii"


class TestMisc:
    def test_with_name(self, fig3_sequence):
        renamed = fig3_sequence.with_name("other")
        assert renamed.name == "other"
        assert renamed == fig3_sequence  # same content
