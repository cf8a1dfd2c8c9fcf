"""Unit tests for table rendering and RNG utilities."""

import numpy as np
import pytest

from repro.util.rng import ensure_rng, spawn_rng
from repro.util.tables import format_table


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seeds(self):
        a, b = ensure_rng(5), ensure_rng(5)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestSpawnRng:
    def test_children_independent_and_reproducible(self):
        kids1 = spawn_rng(np.random.default_rng(1), 3)
        kids2 = spawn_rng(np.random.default_rng(1), 3)
        draws1 = [k.integers(0, 1000) for k in kids1]
        draws2 = [k.integers(0, 1000) for k in kids2]
        assert draws1 == draws2
        assert len(set(draws1)) > 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rng(np.random.default_rng(0), -1)

    def test_zero_count(self):
        assert spawn_rng(np.random.default_rng(0), 0) == []


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "--" in lines[1]

    def test_title(self):
        text = format_table(["c"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_numeric_right_aligned(self):
        text = format_table(["v"], [[1], [100]])
        rows = text.splitlines()[-2:]
        assert rows[0].endswith("1")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["v"], [[3.14159265]])
        assert "3.142" in text

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text
