"""Unit tests for the command-line entry points."""

import pytest

from repro.cli import main_experiment, main_place, main_sim, main_suite
from repro.trace.io import write_traces
from repro.trace.trace import MemoryTrace


@pytest.fixture
def trace_file(tmp_path, fig3_sequence):
    path = tmp_path / "fig3.txt"
    write_traces(path, [MemoryTrace(fig3_sequence)])
    return str(path)


class TestPlace:
    def test_prints_costs(self, trace_file, capsys):
        assert main_place([trace_file, "--dbcs", "2", "--domains", "512"]) == 0
        out = capsys.readouterr().out
        assert "total shifts:" in out
        assert "fig3" in out

    def test_policy_selection(self, trace_file, capsys):
        main_place([trace_file, "--policy", "AFD", "--dbcs", "2",
                    "--domains", "512"])
        out = capsys.readouterr().out
        assert "total shifts: 39" in out


class TestSim:
    def test_prints_report(self, trace_file, capsys):
        assert main_sim([trace_file, "--dbcs", "2", "--domains", "512"]) == 0
        out = capsys.readouterr().out
        assert "shifts" in out and "pJ" in out

    def test_cold_start_flag(self, trace_file, capsys):
        main_sim([trace_file, "--dbcs", "2", "--domains", "512",
                  "--cold-start"])
        assert "shifts" in capsys.readouterr().out


class TestDeviceArgs:
    """A device the flags cannot build is a usage error, not a traceback."""

    @pytest.mark.parametrize("flag,value,field", [
        ("--ports", "0", "ports"),
        ("--dbcs", "0", "dbcs"),
        ("--domains", "0", "domains"),
        ("--ports", "300", "ports"),  # more ports than the 256 domains
    ], ids=["ports-0", "dbcs-0", "domains-0", "ports-300"])
    @pytest.mark.parametrize("main", [main_place, main_sim],
                             ids=["place", "sim"])
    def test_bad_geometry_exits_2(self, trace_file, capsys, main, flag,
                                  value, field):
        with pytest.raises(SystemExit) as exc:
            main([trace_file, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert field in err and value in err


class TestSuite:
    def test_lists_programs(self, capsys):
        assert main_suite(["--scale", "0.12", "adpcm", "dct"]) == 0
        out = capsys.readouterr().out
        assert "adpcm" in out and "dct" in out


class TestExperiment:
    def test_table1(self, capsys):
        assert main_experiment(["table1"]) == 0
        out = capsys.readouterr().out
        assert "8.94" in out and "0.0159" in out

    def test_fig3(self, capsys):
        assert main_experiment(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "39" in out

    def test_save(self, tmp_path, capsys):
        assert main_experiment(["table1", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table1.json").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main_experiment(["fig99"])


class TestExperimentStoreFlags:
    @pytest.fixture(autouse=True)
    def smoke_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")

    def test_store_then_from_store(self, tmp_path, capsys):
        from repro.eval.runner import clear_cell_cache, last_matrix_stats

        store = str(tmp_path / "s.db")
        clear_cell_cache()
        assert main_experiment(["fig6", "--store", store]) == 0
        assert last_matrix_stats().computed > 0
        clear_cell_cache()
        assert main_experiment(["fig6", "--store", store,
                                "--from-store"]) == 0
        stats = last_matrix_stats()
        assert stats.computed == 0 and stats.hits_store == stats.cells_total
        assert "store hit(s)" in capsys.readouterr().err

    def test_from_store_requires_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit):
            main_experiment(["fig6", "--from-store"])

    def test_from_store_cold_store_fails_cleanly(self, tmp_path, capsys):
        from repro.eval.runner import clear_cell_cache

        clear_cell_cache()
        rc = main_experiment(["fig6", "--store", str(tmp_path / "cold.db"),
                              "--from-store"])
        assert rc == 2  # clean exit code, no traceback
        assert "missing from the store" in capsys.readouterr().err

    def test_shard_populates_store_without_report(self, tmp_path, capsys):
        from repro.eval.runner import clear_cell_cache
        from repro.store import ExperimentStore

        store = tmp_path / "s.db"
        clear_cell_cache()
        assert main_experiment(["fig6", "--store", str(store),
                                "--shard", "0/2"]) == 0
        out = capsys.readouterr().out
        assert "shard 0/2" in out
        assert "Fig. 6" not in out  # no report on shard runs
        with ExperimentStore(store) as s:
            assert 0 < len(s) < 32  # a strict, non-empty slice

    def test_shard_requires_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit):
            main_experiment(["fig6", "--shard", "0/2"])

    def test_shard_rejects_non_matrix_experiment(self, tmp_path):
        with pytest.raises(SystemExit):
            main_experiment(["table1", "--store", str(tmp_path / "s.db"),
                             "--shard", "0/2"])

    def test_bad_shard_designator(self, tmp_path):
        with pytest.raises(SystemExit):
            main_experiment(["fig6", "--store", str(tmp_path / "s.db"),
                             "--shard", "2/2"])


class TestFaultFlags:
    @pytest.fixture(autouse=True)
    def smoke_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")

    def test_faulted_experiment_runs(self, capsys):
        assert main_experiment(["ablation-faults"]) == 0
        out = capsys.readouterr().out
        assert "Fault-rate ablation" in out
        assert "misaligned" in out

    def test_scrub_without_fault_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main_experiment(["fig6", "--scrub-interval", "100"])
        err = capsys.readouterr().err
        assert "requires a nonzero --fault-rate" in err

    @pytest.mark.parametrize("rate", ["-0.5", "1.5", "nan"])
    def test_bad_fault_rate_rejected(self, rate, capsys):
        with pytest.raises(SystemExit):
            main_experiment(["fig6", "--fault-rate", rate])
        assert "probability in [0, 1]" in capsys.readouterr().err

    def test_bad_scrub_interval_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main_experiment(["fig6", "--fault-rate", "0.01",
                             "--scrub-interval", "0"])
        assert "--scrub-interval must be >= 1" in capsys.readouterr().err

    def test_env_scrub_with_cli_rate_accepted(self, monkeypatch, capsys):
        """The combined check runs after ALL overrides: an interval from
        the environment plus a rate from the CLI is a valid pairing."""
        monkeypatch.setenv("REPRO_SCRUB_INTERVAL", "50")
        assert main_experiment(["fig3", "--fault-rate", "0.01"]) == 0
        capsys.readouterr()


class TestBackendFlags:
    def test_list_backends(self, capsys):
        assert main_experiment(["--list-backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "reference" in out

    @pytest.mark.parametrize("name", ["auto", "numba"])
    @pytest.mark.parametrize("cli", ["place", "sim", "experiment"])
    def test_unknown_backend_rejected_by_parser(self, trace_file, capsys,
                                                cli, name):
        main, argv = {
            "place": (main_place, [trace_file]),
            "sim": (main_sim, [trace_file]),
            "experiment": (main_experiment, ["fig6"]),
        }[cli]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--backend", name])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["auto", "numba"])
    @pytest.mark.parametrize("experiment", ["fig6", "fig3", "sec4b", "table1"])
    def test_unknown_backend_from_env_fails_cleanly(self, monkeypatch, capsys,
                                                    experiment, name):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", name)
        assert main_experiment([experiment]) == 2
        assert "unknown engine backend" in capsys.readouterr().err


class TestExperimentWorkloads:
    @pytest.fixture(autouse=True)
    def smoke_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        monkeypatch.delenv("REPRO_WORKLOADS", raising=False)

    def test_list_workloads(self, capsys):
        assert main_experiment(["--list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "offsetstone" in out and "interleave" in out
        assert "h263" in out  # the suite names are listed too

    def test_experiment_required_without_list(self):
        with pytest.raises(SystemExit):
            main_experiment([])

    def test_workloads_flag_drives_the_matrix(self, trace_file, capsys):
        rc = main_experiment([
            "fig6", "--workloads", f"file:{trace_file}", "kernels:fir",
        ])
        assert rc == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_flag_first_ordering_reclaims_experiment(self, trace_file, capsys):
        # nargs='+' swallows the trailing positional; the CLI reclaims it.
        rc = main_experiment(["--workloads", f"file:{trace_file}", "fig6"])
        assert rc == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_from_store_regenerates_external_workload(
        self, trace_file, tmp_path, capsys
    ):
        from repro.eval.runner import clear_cell_cache, last_matrix_stats

        store = str(tmp_path / "s.db")
        spec = f"file:{trace_file}@tile=2"
        clear_cell_cache()
        assert main_experiment(["fig6", "--workloads", spec,
                                "--store", store]) == 0
        assert last_matrix_stats().computed > 0
        clear_cell_cache()
        assert main_experiment(["fig6", "--workloads", spec, "--store", store,
                                "--from-store"]) == 0
        stats = last_matrix_stats()
        assert stats.computed == 0 and stats.hits_store == stats.cells_total

    def test_bad_workload_spec_fails_cleanly(self, capsys):
        rc = main_experiment(["fig6", "--workloads", "nope:x"])
        assert rc == 2
        assert "unknown workload source" in capsys.readouterr().err

    def test_env_workloads_respected(self, monkeypatch, trace_file, capsys):
        monkeypatch.setenv("REPRO_WORKLOADS", f"file:{trace_file}")
        assert main_experiment(["fig6"]) == 0
        assert "Fig. 6" in capsys.readouterr().out
