"""The knob table: each execution setting is read from its variable and
its flag, checked on the profile and documented through its one row in
:data:`repro.eval.profiles.KNOBS`."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main_experiment
from repro.engine import get_backend
from repro.errors import ExperimentError
from repro.eval.profiles import KNOBS, SMOKE_PROFILE, profile_from_env
from repro.eval.runner import run_matrix
from repro.rtm.geometry import iso_capacity_sweep

DOCS = Path(__file__).resolve().parents[2] / "docs" / "experiments.md"

#: Per field: variable text, the value it sets, an invalid text (for the
#: variable and the flag alike) and an invalid value set on a profile.
EXAMPLES = {
    "engine_backend": (" Reference ", "reference", "bogus", "bogus"),
    "workers": ("3", 3, "-2", -1),
    "search_scale": ("2.5", 2.5, "0", float("nan")),
    "store": ("rtm.db", "rtm.db", " ", " "),
    "shared_traces": ("on", True, "maybe", "yes"),
    "workloads": ("kernels:fir; offsetstone:h263",
                  ("kernels:fir", "offsetstone:h263"), " ", ("",)),
    "fault_rate": ("0.01", 0.01, "1.5", 2.0),
    "scrub_interval": ("64", 64, "0", 0),
    "ports": ("1,2 4", (1, 2, 4), "0", (0,)),
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "smoke")
    for knob in KNOBS:
        monkeypatch.delenv(knob.env, raising=False)


def test_every_row_has_examples():
    assert set(EXAMPLES) == {knob.field for knob in KNOBS}


@pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.field)
class TestKnobRow:
    def test_variable_sets_field(self, knob, monkeypatch):
        text, value, _, _ = EXAMPLES[knob.field]
        monkeypatch.setenv(knob.env, text)
        assert getattr(profile_from_env(), knob.field) == value

    def test_invalid_variable_named(self, knob, monkeypatch, capsys):
        monkeypatch.setenv(knob.env, EXAMPLES[knob.field][2])
        with pytest.raises(ExperimentError, match=knob.env):
            profile_from_env()
        assert main_experiment(["table1"]) == 2
        assert knob.env in capsys.readouterr().err

    def test_invalid_flag_named(self, knob, capsys):
        with pytest.raises(SystemExit) as exc:
            main_experiment(["table1", f"{knob.flag}={EXAMPLES[knob.field][2]}"])
        assert exc.value.code == 2
        assert knob.flag in capsys.readouterr().err

    def test_run_matrix_names_field(self, knob):
        bad = replace(SMOKE_PROFILE, **{knob.field: EXAMPLES[knob.field][3]})
        with pytest.raises(ExperimentError, match=knob.field):
            run_matrix(("DMA-SR",), bad,
                       configs=iso_capacity_sweep(dbc_counts=(2,)),
                       use_cache=False)


def test_backend_spelling_shared_by_both_readers(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", " NumPy ")
    assert profile_from_env().engine_backend == "numpy"
    assert get_backend(None).name == "numpy"


def test_negative_workers_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main_experiment(["fig6", "--workers", "-1"])
    assert exc.value.code == 2
    assert "--workers must be" in capsys.readouterr().err


def test_docs_table_lists_exactly_the_knobs():
    section = DOCS.read_text().split("\n## Execution knobs\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `")]
    assert {re.search(r"REPRO_\w+", row[1])[0] for row in rows} == {
        knob.env for knob in KNOBS}
    assert {re.search(r"--[\w-]+", row[2])[0] for row in rows} == {
        knob.flag for knob in KNOBS}
