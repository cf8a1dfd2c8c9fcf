"""Unit tests for repro.trace.trace.MemoryTrace."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.sequence import AccessSequence
from repro.trace.trace import MemoryTrace, trace_operations


class TestDefaults:
    def test_first_access_of_each_variable_is_write(self, fig3_sequence):
        trace = MemoryTrace(fig3_sequence)
        firsts = {}
        for i, (name, is_write) in enumerate(trace_operations(trace)):
            if name not in firsts:
                firsts[name] = i
                assert is_write, f"first access of {name} should be a write"
            elif i not in firsts.values():
                pass  # later accesses may be either
        assert trace.num_writes == fig3_sequence.num_variables

    def test_reads_plus_writes_is_length(self, fig3_trace):
        assert fig3_trace.num_reads + fig3_trace.num_writes == len(fig3_trace)

    def test_from_accesses_builder(self):
        trace = MemoryTrace.from_accesses(["x", "y", "x"], name="t")
        assert trace.name == "t"
        assert len(trace) == 3


class TestExplicitMask:
    def test_explicit_mask_respected(self):
        seq = AccessSequence(["a", "b", "a"])
        trace = MemoryTrace(seq, writes=[True, False, True])
        assert trace.num_writes == 2

    def test_wrong_mask_shape_rejected(self):
        seq = AccessSequence(["a", "b"])
        with pytest.raises(TraceError, match="shape"):
            MemoryTrace(seq, writes=[True])

    def test_mask_is_immutable(self, fig3_trace):
        with pytest.raises(ValueError):
            fig3_trace.writes[0] = False

    def test_mask_copied_from_caller(self):
        seq = AccessSequence(["a", "b"])
        mask = np.array([True, False])
        trace = MemoryTrace(seq, writes=mask)
        mask[1] = True
        assert trace.num_writes == 1


class TestWriteRatio:
    def test_ratio_zero_only_first_writes(self, fig3_sequence):
        trace = MemoryTrace.with_write_ratio(fig3_sequence, 0.0, rng=1)
        assert trace.num_writes == fig3_sequence.num_variables

    def test_ratio_one_all_writes(self, fig3_sequence):
        trace = MemoryTrace.with_write_ratio(fig3_sequence, 1.0, rng=1)
        assert trace.num_writes == len(fig3_sequence)

    def test_ratio_reproducible(self, fig3_sequence):
        a = MemoryTrace.with_write_ratio(fig3_sequence, 0.5, rng=7)
        b = MemoryTrace.with_write_ratio(fig3_sequence, 0.5, rng=7)
        assert a == b

    def test_bad_ratio_rejected(self, fig3_sequence):
        with pytest.raises(TraceError):
            MemoryTrace.with_write_ratio(fig3_sequence, 1.5)


class TestProtocol:
    def test_equality(self, fig3_sequence):
        assert MemoryTrace(fig3_sequence) == MemoryTrace(fig3_sequence)
        assert MemoryTrace(fig3_sequence) != "x"

    def test_operations_order(self):
        trace = MemoryTrace.from_accesses(["x", "y"])
        ops = list(trace_operations(trace))
        assert [n for n, _ in ops] == ["x", "y"]

    def test_variables_exposed(self, fig3_trace):
        assert fig3_trace.variables == tuple("abcdefghi")

    def test_repr(self, fig3_trace):
        assert "24 accesses" in repr(fig3_trace)
